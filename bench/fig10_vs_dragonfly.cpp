// Fig. 10 — dragonfly (a=8, r=15, m=264, capacity 1056) vs the proposed
// topology (n=1024, r=15, m=m_opt). Paper headline results: proposed wins
// performance by ~12% on average, +24% bisection bandwidth, and lower
// power and cost at every scale (the dragonfly's radix grows with size).

#include "bench_util.hpp"
#include "compare_common.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("fig10_vs_dragonfly", "Fig. 10: proposed topology vs dragonfly");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;

  ComparisonConfig config;
  config.figure = "Fig. 10";
  config.csv_prefix = "fig10";
  config.baseline_name = "dragonfly (a=8, r=15)";
  config.n = 1024;
  config.radix = 15;
  config.build_baseline = [](std::uint32_t hosts) {
    return build_dragonfly(smallest_dragonfly(hosts), hosts,
                           AttachPolicy::kRoundRobin);
  };
  config.baseline_capacity = [](std::uint32_t hosts) {
    return dragonfly_host_capacity(smallest_dragonfly(hosts));
  };
  run_comparison(config);
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
