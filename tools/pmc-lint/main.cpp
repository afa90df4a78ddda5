// pmc-lint CLI.
//
//   pmc-lint [--root=DIR]
//   pmc-lint [--all-rules] file.cpp [file2.cpp ...]
//
// Without file arguments the tool lints the library: every .cpp and .hpp
// under the root's src/ directory. Explicit file arguments are linted as
// given. Files are scoped and reported by their path relative to --root
// (default: the working directory), so where the checkout lives does not
// matter; --all-rules overrides the scoping (the fixture suite's mode).
//
// Exit status: 0 = clean, 1 = at least one diagnostic, 2 = usage or I/O
// error.
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

int usage() {
  std::cerr << "usage: pmc-lint [--root=DIR] [--all-rules] [files...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool all_rules = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
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
    const pmc_lint::ProgramReport report =
        pmc_lint::analyze_program_paths(files, root, opts);

    for (const auto& d : report.diagnostics) {
      std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
    }
    std::cout << "pmc-lint: " << report.files_scanned << " files, "
              << report.diagnostics.size() << " diagnostic(s)\n";
    return report.diagnostics.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
