// pmc-lint CLI.
//
//   pmc-lint --compile-commands=build/compile_commands.json
//            [--compile-commands=build-asan/compile_commands.json ...]
//            [--json[=PATH]]
//   pmc-lint [--all-rules] file.cpp [file2.cpp ...]
//
// With --compile-commands the tool lints every src/ translation unit the
// build knows about, plus the headers under src/ (headers never appear in
// compile_commands but hold template code — Bundler::flush lived in one).
// Several databases may be given (build/, build-asan/, build-tsan/); a
// source listed by more than one is linted once. Explicit file arguments
// are linted as given; --all-rules overrides the path-based scoping (the
// fixture suite's mode).
//
// Every run is whole-program: helper propagation and the D10
// stale-suppression audit see all inputs at once (--no-suppression-audit
// turns D10 off).
//
// Exit status: 0 = clean (suppressed findings are fine), 1 = at least one
// failing diagnostic, 2 = usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

int usage() {
  std::cerr << "usage: pmc-lint [--compile-commands=PATH ...] [--root=DIR] "
               "[--json[=PATH]] [--no-suppression-audit] [--all-rules] "
               "[files...]\n";
  return 2;
}

/// Headers under root/src — compile_commands only lists .cpp files, but the
/// determinism rules bind to header code too.
std::vector<std::string> src_headers(const std::string& root) {
  std::vector<std::string> out;
  const std::filesystem::path src = std::filesystem::path(root) / "src";
  if (!std::filesystem::is_directory(src)) return out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && entry.path().extension() == ".hpp") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    std::cerr << "pmc-lint: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> compile_commands;
  std::string root = ".";
  std::string json_path;
  bool json = false;
  bool all_rules = false;
  bool audit = true;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--compile-commands=", 0) == 0) {
      compile_commands.push_back(arg.substr(19));
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else if (arg == "--no-suppression-audit") {
      audit = false;
    } else if (arg == "--all-rules") {
      all_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "pmc-lint: unknown option " << arg << "\n";
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (compile_commands.empty() && files.empty()) return usage();

  try {
    if (!compile_commands.empty()) {
      for (const std::string& f :
           pmc_lint::compile_commands_sources(compile_commands)) {
        // The build also compiles tests/bench/examples and third-party
        // fixtures; the determinism contract binds to the library tree.
        if (f.find("/src/") != std::string::npos ||
            f.rfind("src/", 0) == 0) {
          files.push_back(f);
        }
      }
      for (std::string& h : src_headers(root)) {
        files.push_back(std::move(h));
      }
    }

    pmc_lint::ProgramOptions opts;
    opts.all_rules = all_rules;
    opts.audit_suppressions = audit;
    const pmc_lint::ProgramReport report =
        pmc_lint::analyze_program_paths(files, opts);

    std::size_t suppressed = 0;
    for (const auto& d : report.diagnostics) {
      if (d.suppressed) {
        ++suppressed;
        continue;
      }
      std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
    }
    const std::size_t failing = pmc_lint::failing_count(report);

    if (json) {
      const std::string text =
          pmc_lint::to_json(report.diagnostics, report.files_scanned);
      if (json_path.empty()) {
        std::cout << text;
      } else if (!write_file(json_path, text)) {
        return 2;
      }
    }

    std::cout << "pmc-lint: " << report.files_scanned << " files, "
              << failing << " failing, " << suppressed
              << " suppressed diagnostic(s)\n";
    return failing == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
