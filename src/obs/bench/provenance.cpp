#include "obs/bench/provenance.hpp"

#include <fstream>
#include <thread>

// The build stamps ORP_GIT_SHA into this header on every build and passes
// the other two on the command line (src/obs/CMakeLists.txt); their
// fallbacks keep the file compiling standalone.
#include "orp_git_sha.hpp"
#ifndef ORP_CXX_FLAGS
#define ORP_CXX_FLAGS ""
#endif
#ifndef ORP_BUILD_TYPE
#define ORP_BUILD_TYPE ""
#endif

namespace orp::obs::bench {

namespace {

std::string compiler_description() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) +
         "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return "unknown";
}

}  // namespace

Provenance collect_provenance() {
  Provenance p;
  p.git_sha = ORP_GIT_SHA;
  p.compiler = compiler_description();
  p.flags = ORP_CXX_FLAGS;
  p.build_type = ORP_BUILD_TYPE;
  p.cpu_model = cpu_model();
  p.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());
  return p;
}

}  // namespace orp::obs::bench
