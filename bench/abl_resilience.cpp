// Ablation — link-failure resilience.
//
// Random-like topologies are known to degrade gracefully under failures
// (one of §2.1's motivations for random shortcut topologies). This bench
// fails each cable independently at several rates and reports disconnect
// probability and h-ASPL inflation for the proposed topology vs the three
// conventional baselines at matched host counts.

#include "bench_util.hpp"
#include "hsg/analysis.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_resilience", "h-ASPL degradation under random link failures");
  cli.option("hosts", "256", "hosts");
  cli.option("trials", "30", "Monte-Carlo trials per rate");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 1500)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const int trials = cli.get_uint<int>("trials");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(1500);

  struct Candidate {
    std::string name;
    HostSwitchGraph graph;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"proposed r=12", build_proposed(n, 12, iterations).graph});
  for (std::uint32_t base = 2;; ++base) {
    const TorusParams params{3, base, 12};
    if (torus_host_capacity(params) >= n) {
      candidates.push_back({"3-D torus", build_torus(params, n)});
      break;
    }
  }
  for (std::uint32_t a = 2;; a += 2) {
    if (dragonfly_host_capacity(DragonflyParams{a}) >= n) {
      candidates.push_back({"dragonfly", build_dragonfly(DragonflyParams{a}, n)});
      break;
    }
  }
  for (std::uint32_t k = 2;; k += 2) {
    if (fattree_host_capacity(FatTreeParams{k}) >= n) {
      candidates.push_back({"fat-tree", build_fattree(FatTreeParams{k}, n)});
      break;
    }
  }

  print_header("Ablation: link failures, n=" + std::to_string(n) + ", " +
               std::to_string(trials) + " trials per rate");
  Table table({"topology", "fail rate%", "disconnect%", "mean h-ASPL infl.%",
               "max h-ASPL infl.%"});
  for (const auto& candidate : candidates) {
    for (const double rate : {0.01, 0.05, 0.10}) {
      Xoshiro256 rng(bench_seed());
      const auto impact = link_failure_impact(candidate.graph, rate, trials, rng);
      table.row()
          .add(candidate.name)
          .add(100.0 * rate, 0)
          .add(100.0 * impact.disconnect_probability, 1)
          .add(100.0 * impact.mean_haspl_inflation, 2)
          .add(100.0 * impact.max_haspl_inflation, 2);
    }
  }
  emit_table(table, "abl_resilience");
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
