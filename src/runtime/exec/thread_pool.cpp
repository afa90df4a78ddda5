#include "runtime/exec/thread_pool.hpp"

#include "support/error.hpp"

namespace pmc {

namespace {

/// The pool whose worker_loop the current thread belongs to (nullptr on
/// non-worker threads). Lets parallel_for detect re-entrant calls — a worker
/// submitting a nested job to its own pool would deadlock on run_m_.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int workers) {
  PMC_REQUIRE(workers >= 1, "thread pool needs at least one worker, got "
                                << workers);
  slots_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) slots_.push_back(std::make_unique<Slot>());
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back(
        [this, w] { worker_loop(static_cast<std::size_t>(w)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(job_m_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (t_worker_pool == this) {
    // Nested submit from one of our own workers: run inline. Index order and
    // first-throw-wins match what the sequential backend would do.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard run_lock(run_m_);
  const auto workers = slots_.size();
  // Only this thread (holding run_m_) writes job_id_, so the next id can be
  // read without job_m_. The work is enqueued under that id *before* the id
  // is published: a worker that observes the new id must find its items
  // already queued, or it would record the id as seen, go back to sleep on
  // a satisfied predicate, and miss the notify below (a lost wakeup).
  // Workers still holding the old id leave the new entries alone.
  const std::uint64_t job = job_id_ + 1;
  // Contiguous blocks: worker w owns [w*n/W, (w+1)*n/W). Owners pop from the
  // front so blocks execute in index order unless stolen from the back.
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = w * n / workers;
    const std::size_t hi = (w + 1) * n / workers;
    if (lo == hi) continue;
    std::lock_guard lock(slots_[w]->m);
    for (std::size_t i = lo; i < hi; ++i) slots_[w]->q.emplace_back(job, i);
  }
  {
    std::lock_guard lock(job_m_);
    job_ = &fn;
    job_id_ = job;
    outstanding_ = n;
    failure_ = nullptr;
    failed_index_ = 0;
  }
  job_cv_.notify_all();
  std::exception_ptr failure;
  {
    std::unique_lock lock(job_m_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
    job_ = nullptr;
    failure = failure_;
    failure_ = nullptr;
  }
  if (failure) std::rethrow_exception(failure);
}

bool ThreadPool::take(std::size_t self, std::uint64_t job,
                      std::size_t& index) {
  {
    std::lock_guard lock(slots_[self]->m);
    auto& q = slots_[self]->q;
    if (!q.empty() && q.front().first == job) {
      index = q.front().second;
      q.pop_front();
      return true;
    }
  }
  for (std::size_t off = 1; off < slots_.size(); ++off) {
    const std::size_t victim = (self + off) % slots_.size();
    std::lock_guard lock(slots_[victim]->m);
    auto& q = slots_[victim]->q;
    if (!q.empty() && q.back().first == job) {
      index = q.back().second;
      q.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker_pool = this;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::uint64_t id = 0;
    {
      std::unique_lock lock(job_m_);
      job_cv_.wait(lock, [&] { return stop_ || job_id_ != seen; });
      if (stop_) return;
      seen = id = job_id_;
      job = job_;
    }
    std::size_t index = 0;
    while (take(self, id, index)) {
      bool threw = false;
      std::exception_ptr error;
      try {
        (*job)(index);
      } catch (...) {
        threw = true;
        error = std::current_exception();
      }
      std::lock_guard lock(job_m_);
      if (threw && (!failure_ || index < failed_index_)) {
        failure_ = error;
        failed_index_ = index;
      }
      if (--outstanding_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace pmc
