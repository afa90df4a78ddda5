#include "support/options.hpp"

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>

#include "support/error.hpp"
#include "support/text.hpp"

namespace pmc {

void Options::add(const std::string& name, const std::string& default_value,
                  const std::string& help) {
  PMC_REQUIRE(!specs_.contains(name), "duplicate option --" << name);
  specs_[name] = Spec{default_value, help, /*is_flag=*/false};
}

void Options::add_flag(const std::string& name, const std::string& help) {
  PMC_REQUIRE(!specs_.contains(name), "duplicate option --" << name);
  specs_[name] = Spec{"false", help, /*is_flag=*/true};
}

std::vector<std::string> Options::parse(int argc, const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name = arg;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    const auto it = specs_.find(name);
    PMC_REQUIRE(it != specs_.end(), "unknown option --" << name);
    if (it->second.is_flag) {
      PMC_REQUIRE(!value.has_value() || *value == "true" || *value == "false",
                  "flag --" << name << " takes no value or true/false");
      values_[name] = value.value_or("true");
    } else {
      if (!value.has_value()) {
        PMC_REQUIRE(i + 1 < argc, "option --" << name << " needs a value");
        value = argv[++i];
      }
      values_[name] = *value;
    }
  }
  return positional;
}

const std::string& Options::get(const std::string& name) const {
  const auto it = specs_.find(name);
  PMC_REQUIRE(it != specs_.end(), "undeclared option --" << name);
  const auto vit = values_.find(name);
  return vit != values_.end() ? vit->second : it->second.default_value;
}

namespace {

/// Strict integer parse of `s`, one value of option --name: the whole text
/// must be the number.
std::int64_t parse_int(const std::string& name, std::string_view s) {
  std::int64_t out = 0;
  const std::errc ec = parse_number(s, out);
  PMC_REQUIRE(ec != std::errc::result_out_of_range,
              "option --" << name << " is out of range: '" << s << "'");
  PMC_REQUIRE(ec == std::errc{},
              "option --" << name << " expects an integer, got '" << s << "'");
  return out;
}

/// Strict floating-point parse of `s`, one value of option --name. A
/// magnitude problem ("1e999") and junk ("1.5x", "", "nope") get distinct
/// messages.
double parse_double(const std::string& name, std::string_view s) {
  double out = 0.0;
  const std::errc ec = parse_number(s, out);
  PMC_REQUIRE(ec != std::errc::result_out_of_range,
              "option --" << name << " is out of range: '" << s << "'");
  PMC_REQUIRE(ec == std::errc{},
              "option --" << name << " expects a number, got '" << s << "'");
  return out;
}

/// The comma-separated entries of `s`, the value of option --name, whose
/// entries are `what`: an empty value is an error; an empty entry is kept
/// for the entry parser to reject.
std::vector<std::string_view> split_list(const std::string& name,
                                         std::string_view s,
                                         const char* what) {
  PMC_REQUIRE(!s.empty(), "option --" << name
                              << " expects a comma-separated list of "
                              << what << ", got ''");
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t comma = s.find(',');
    out.push_back(s.substr(0, comma));
    if (comma == std::string_view::npos) return out;
    s.remove_prefix(comma + 1);
  }
}

}  // namespace

std::int64_t Options::get_int64(const std::string& name) const {
  return parse_int(name, get(name));
}

std::vector<int> Options::get_int_list(const std::string& name) const {
  std::vector<int> out;
  for (const std::string_view entry :
       split_list(name, get(name), "positive integers")) {
    const std::int64_t v = parse_int(name, entry);
    PMC_REQUIRE(v >= 1, "option --" << name
                            << " entries must be positive, got '" << entry
                            << "'");
    PMC_REQUIRE(v <= std::numeric_limits<int>::max(),
                "option --" << name << " is out of range: '" << entry << "'");
    out.push_back(static_cast<int>(v));
  }
  return out;
}

double Options::get_double(const std::string& name) const {
  return parse_double(name, get(name));
}

std::vector<double> Options::get_double_list(const std::string& name) const {
  std::vector<double> out;
  for (const std::string_view entry : split_list(name, get(name), "numbers")) {
    out.push_back(parse_double(name, entry));
  }
  return out;
}

bool Options::get_flag(const std::string& name) const {
  return get(name) == "true";
}

int max_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return 4 * static_cast<int>(hw == 0 ? 1U : hw);
}

int parse_thread_count(const std::string& text, const std::string& what) {
  int out = 0;
  const std::errc ec = parse_number(text, out);
  PMC_REQUIRE(ec != std::errc::result_out_of_range,
              what << " is out of range: '" << text << "'");
  PMC_REQUIRE(ec == std::errc{},
              what << " expects an integer, got '" << text << "'");
  PMC_REQUIRE(out >= 1,
              what << " must be at least 1 thread, got '" << text << "'");
  PMC_REQUIRE(out <= max_thread_count(),
              what << " exceeds 4x the hardware concurrency (max "
                   << max_thread_count() << "), got '" << text << "'");
  return out;
}

int Options::get_threads(const std::string& name) const {
  if (supplied(name)) return parse_thread_count(get(name), "option --" + name);
  if (const char* env = std::getenv("PMC_THREADS");
      env != nullptr && *env != '\0') {
    return parse_thread_count(env, "PMC_THREADS");
  }
  const std::string& fallback = get(name);
  if (fallback.empty()) return 1;
  return parse_thread_count(fallback, "option --" + name);
}

bool Options::supplied(const std::string& name) const {
  return values_.contains(name);
}

std::string Options::help(const std::string& program) const {
  std::ostringstream oss;
  oss << "usage: " << program << " [options]\n";
  for (const auto& [name, spec] : specs_) {
    oss << "  --" << name;
    if (!spec.is_flag) oss << "=<" << spec.default_value << ">";
    oss << "  " << spec.help << '\n';
  }
  return oss.str();
}

}  // namespace pmc
