// partition_quality — the cut-quality probe for the multilevel partitioner.
//
//   partition_quality
//
// Prints, as a markdown table, the mean `host_switch_cut` over 20 seeds at
// P = 2, 4, 8 and 16 for the four n = 1024 topologies of the paper's
// bandwidth comparison (Figs. 9-11), plus the mean wall time of one seed's
// four cuts. A partitioner change is judged by comparing this table before
// and after it: every mean cut should stay within 1% of the old one.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "partition/partition.hpp"
#include "search/solver.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

int main() try {
  using namespace orp;
  using Clock = std::chrono::steady_clock;
  constexpr std::uint32_t kHosts = 1024;
  constexpr std::uint64_t kSeeds = 20;
  constexpr std::uint32_t kParts[] = {2, 4, 8, 16};

  SolveOptions proposed_options;
  proposed_options.iterations = 5000;
  proposed_options.seed = 7;
  const std::vector<std::pair<std::string, HostSwitchGraph>> topologies = {
      {"proposed, `solve_orp(1024,16)`, 5000 moves, seed 7",
       solve_orp(kHosts, 16, proposed_options).graph},
      {"5-D torus (N=3, r=15)", build_torus(TorusParams{5, 3, 15}, kHosts)},
      {"`smallest_dragonfly(1024)`", build_dragonfly(smallest_dragonfly(kHosts), kHosts)},
      {"`smallest_fattree(1024)`", build_fattree(smallest_fattree(kHosts), kHosts)},
  };

  std::cout << "| topology (n = 1024) | P=2 | P=4 | P=8 | P=16 | ms per 4 cuts |\n"
            << "|---|---|---|---|---|---|\n";
  for (const auto& [name, graph] : topologies) {
    double sum[std::size(kParts)] = {};
    const auto t0 = Clock::now();
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      for (std::size_t i = 0; i < std::size(kParts); ++i) {
        sum[i] += static_cast<double>(host_switch_cut(graph, kParts[i], seed));
      }
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count() / kSeeds;
    std::cout << "| " << name;
    char cell[32];
    for (const double s : sum) {
      std::snprintf(cell, sizeof cell, " | %.1f", s / kSeeds);
      std::cout << cell;
    }
    std::snprintf(cell, sizeof cell, " | %.1f |\n", ms);
    std::cout << cell;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "partition_quality: " << e.what() << '\n';
  return 1;
}
