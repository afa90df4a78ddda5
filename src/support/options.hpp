// Tiny command-line option parser for the examples and benchmark binaries.
//
// Supports --key=value, --key value, and boolean --flag forms. Unknown
// options raise errors so typos in experiment scripts fail fast.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace pmc {

/// Declarative CLI parser: declare options, then parse(argc, argv).
class Options {
 public:
  /// Declares a string option with a default value and help text.
  void add(const std::string& name, const std::string& default_value,
           const std::string& help);

  /// Declares a boolean flag (defaults to false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv; throws pmc::Error on unknown or malformed options.
  /// Returns leftover positional arguments.
  std::vector<std::string> parse(int argc, const char* const* argv);

  [[nodiscard]] const std::string& get(const std::string& name) const;
  /// The integer value of option --name as a T: trailing garbage, overflow
  /// and a value that does not fit T (--ranks=4294967298 as a Rank, -1 as
  /// an unsigned seed) are errors naming the option.
  template <std::integral T = std::int64_t>
  [[nodiscard]] T get_int(const std::string& name) const {
    const std::int64_t v = get_int64(name);
    PMC_REQUIRE(std::in_range<T>(v), "option --" << name
                                                 << " is out of range: '"
                                                 << get(name) << "'");
    return static_cast<T>(v);
  }
  /// A comma-separated list of positive integers ("--ranks=2,8,32"). Every
  /// entry gets get_int's strict parsing; trailing garbage, entries <= 0 or
  /// beyond int, and an empty list are errors naming the option.
  [[nodiscard]] std::vector<int> get_int_list(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  /// A comma-separated list of numbers ("--drops=0,0.05"). Every entry gets
  /// get_double's strict parsing; an empty list or entry, trailing garbage
  /// and a value beyond a double's range are errors naming the option and
  /// the entry.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Resolves the execution-backend thread count: the explicitly supplied
  /// option value wins, else the PMC_THREADS environment variable, else the
  /// declared default (1 when the default is empty). All three sources go
  /// through parse_thread_count's strict validation.
  [[nodiscard]] int get_threads(const std::string& name = "threads") const;

  /// True if the option was explicitly supplied on the command line.
  [[nodiscard]] bool supplied(const std::string& name) const;

  /// Renders a --help style usage summary.
  [[nodiscard]] std::string help(const std::string& program) const;

 private:
  struct Spec {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };
  [[nodiscard]] std::int64_t get_int64(const std::string& name) const;

  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
};

/// Largest thread count the CLI accepts: 4x the advertised hardware
/// concurrency (modest oversubscription still helps latency-bound runs),
/// treating an unknown concurrency as 1.
[[nodiscard]] int max_thread_count() noexcept;

/// Strict thread-count parser shared by --threads and PMC_THREADS (`what`
/// names the source in errors). Rejects non-integers, zero/negative counts
/// and counts above max_thread_count() with distinct messages.
[[nodiscard]] int parse_thread_count(const std::string& text,
                                     const std::string& what);

}  // namespace pmc
