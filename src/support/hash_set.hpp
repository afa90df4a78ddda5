// The one hash container in the library, and it cannot be iterated.
//
// Hash order is a property of the standard library's bucket layout, not of
// any algorithm, so it must never reach a send, a floating-point sum or any
// other output (DESIGN.md §7). HashSet offers membership and a count only:
// no begin()/end(), so a range-for over it does not compile. Code that needs
// an ordered walk keeps a sorted vector or a std::map instead. Everywhere
// else in src/, pmc-lint's D1 bans the std::unordered_* names outright.
#pragma once

#include <cstddef>
#include <unordered_set>

namespace pmc {

/// A set of keys that answers "was this new?" and "how many?", nothing
/// more.
template <typename K>
class HashSet {
 public:
  /// Adds `key`; true iff it was not present before.
  bool insert(const K& key) { return set_.insert(key).second; }
  [[nodiscard]] std::size_t size() const noexcept { return set_.size(); }
  void reserve(std::size_t n) { set_.reserve(n); }

 private:
  std::unordered_set<K> set_;
};

}  // namespace pmc
