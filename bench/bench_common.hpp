// Shared plumbing for the paper-artifact benchmark binaries.
//
// Every binary prints the reproduced table/figure as an ASCII table, notes
// the paper's expectation next to the measurement, and writes the same
// rows as CSV (--csv=<path>) and, in the service, thread and codec sweeps,
// as a JSON summary (--json=<path>). Each data point is one TextTable row.
#pragma once

#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pmc.hpp"
#include "support/error.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace pmc::bench {

/// Common preamble: prints the artifact banner.
inline void banner(const std::string& artifact, const std::string& claim) {
  std::cout << "\n=== " << artifact << " ===\n"
            << "Paper expectation: " << claim << "\n\n";
}

/// Writes `table` as the JSON summary at `path` (nothing when empty) and
/// says where.
inline void write_summary(const TextTable& table, const std::string& path,
                          const std::vector<Field>& header) {
  if (path.empty()) return;
  table.write_json(path, header);
  std::cout << "summary written to " << path << '\n';
}

/// Prints one curve of a two-curve figure: the rows of `fig` whose
/// "problem" is `problem`, titled `title`, with the "extra" column
/// labelled `extra`.
inline void print_curve(const TextTable& fig, const char* problem,
                        std::string title, std::string extra) {
  TextTable curve = fig.where("problem", problem);
  curve.set_title(std::move(title));
  curve.set_label("extra", std::move(extra));
  curve.print(std::cout);
}

/// A bench's `main`: runs `body`, and reports an exception on stderr as
/// "<binary>: <what>" with exit status 1.
inline int run_main(int argc, const char** argv,
                    int (*body)(int, const char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    const std::string name =
        argc > 0 ? std::filesystem::path(argv[0]).filename().string()
                 : "bench";
    std::cerr << name << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace pmc::bench
