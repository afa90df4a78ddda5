// pmc-lint CLI.
//
//   pmc-lint [--root=DIR] [--json[=PATH]]
//   pmc-lint [--all-rules] file.cpp [file2.cpp ...]
//
// Without file arguments the tool lints the library: every .cpp and .hpp
// under the root's src/ directory. Explicit file arguments are linted as
// given. Files are scoped and reported by their path relative to --root
// (default: the working directory), so where the checkout lives does not
// matter; --all-rules overrides the scoping (the fixture suite's mode).
//
// Each file's allow() comments are audited against its diagnostics (D10);
// --no-suppression-audit turns that off.
//
// Exit status: 0 = clean (suppressed findings are fine), 1 = at least one
// failing diagnostic, 2 = usage or I/O error.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

int usage() {
  std::cerr << "usage: pmc-lint [--root=DIR] [--json[=PATH]] "
               "[--no-suppression-audit] [--all-rules] [files...]\n";
  return 2;
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
  std::string root = ".";
  std::string json_path;
  bool json = false;
  bool all_rules = false;
  bool audit = true;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
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
  try {
    if (files.empty()) files = pmc_lint::library_sources(root);

    pmc_lint::ProgramOptions opts;
    opts.all_rules = all_rules;
    opts.audit_suppressions = audit;
    const pmc_lint::ProgramReport report =
        pmc_lint::analyze_program_paths(files, root, opts);

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
