// Fig. 9 — 5-D torus (N=3, r=15, m=243, capacity 1215) vs the proposed
// topology (n=1024, r=15, m=m_opt). Paper headline results: proposed wins
// performance by ~22% on average (IS/FT/MG strongest), +31% bisection
// bandwidth, lower power up to 1215 connectable hosts, total cost within
// ~3% (cable cost up ~45%, switch cost down ~5%).

#include "bench_util.hpp"
#include "compare_common.hpp"
#include "topo/torus.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("fig09_vs_torus", "Fig. 9: proposed topology vs 5-D torus");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;

  const TorusParams params{5, 3, 15};
  ComparisonConfig config;
  config.figure = "Fig. 9";
  config.csv_prefix = "fig09";
  config.baseline_name = "5-D torus (N=3, r=15)";
  config.n = 1024;
  config.radix = 15;
  config.build_baseline = [params](std::uint32_t hosts) {
    return build_torus(params, hosts, AttachPolicy::kRoundRobin);
  };
  config.baseline_capacity = [params](std::uint32_t hosts) -> std::uint64_t {
    // The paper fixes the torus at N=3 / r=15 (capacity 1215); it does not
    // scale past that, which is exactly the crossover Fig. 9c shows.
    const std::uint64_t capacity = torus_host_capacity(params);
    return hosts <= capacity ? capacity : 0;
  };
  run_comparison(config);
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
