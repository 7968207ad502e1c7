#pragma once
// Run provenance stamped into every BENCH_*.json so a number is never
// divorced from the build that produced it: git SHA (build-time), compiler
// + flags and CPU model.

#include <string>

namespace orp::obs::bench {

struct Provenance {
  std::string git_sha;      ///< short SHA at build time, "unknown" outside git
  std::string compiler;     ///< e.g. "gcc 13.2.0"
  std::string flags;        ///< CMAKE_CXX_FLAGS + build-type flags
  std::string build_type;   ///< CMAKE_BUILD_TYPE
  std::string cpu_model;    ///< /proc/cpuinfo "model name", "unknown" elsewhere
  int hardware_threads = 0;
  /// Always false: the obs layer has one build. Kept because the orp-bench/1
  /// schema (report.cpp, committed baselines) carries the field.
  bool obs_disabled = false;
};

Provenance collect_provenance();

}  // namespace orp::obs::bench
