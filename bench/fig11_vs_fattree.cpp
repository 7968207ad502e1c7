// Fig. 11 — 16-ary fat-tree (r=16, m=320, capacity 1024) vs the proposed
// topology (n=1024, r=16, m=m_opt=183). Paper headline results: proposed
// wins performance by ~84% on average (CG most extreme), but the fat-tree
// keeps ~53% higher bisection bandwidth; the fat-tree is the most
// expensive and power-hungry of the three baselines. IS and FT simulations
// are omitted in the paper's figure (simulation cost) — we mark them the
// same way.

#include "bench_util.hpp"
#include "compare_common.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("fig11_vs_fattree", "Fig. 11: proposed topology vs fat-tree");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;

  ComparisonConfig config;
  config.figure = "Fig. 11";
  config.csv_prefix = "fig11";
  config.baseline_name = "16-ary fat-tree (r=16)";
  config.n = 1024;
  config.radix = 16;
  config.build_baseline = [](std::uint32_t hosts) {
    return build_fattree(smallest_fattree(hosts), hosts, AttachPolicy::kRoundRobin);
  };
  config.baseline_capacity = [](std::uint32_t hosts) {
    return fattree_host_capacity(smallest_fattree(hosts));
  };
  config.skipped_kernels = {NasKernel::kIS, NasKernel::kFT};
  run_comparison(config);
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
