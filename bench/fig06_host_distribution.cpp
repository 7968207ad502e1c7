// Fig. 6 — host distribution (hosts-per-switch histogram) at m = m_opt.
//
// The paper shows three panels: (n, r) = (128, 24), (1024, 12), (1024, 24).
// Reproduction targets:
//   * (128, 24): the solver returns the 8-switch clique construction with
//     switches filled to capacity (r - m + 1 = 17 hosts).
//   * (1024, 12) and (1024, 24): the optimized graph is *neither direct
//     nor indirect* — switches carry different numbers of hosts (the
//     paper's key observation in §5.3).

#include <vector>

#include "bench_util.hpp"
#include "hsg/bounds.hpp"

namespace {

using namespace orp;
using namespace orp::bench;

void run_panel(std::uint32_t n, std::uint32_t r, std::uint64_t iterations) {
  const SolveResult result = build_proposed(n, r, iterations, bench_seed());
  print_header("Fig. 6 panel: n=" + std::to_string(n) + ", r=" + std::to_string(r) +
               "  (m=" + std::to_string(result.switch_count) +
               (result.used_clique ? ", clique construction" : ", SA 2-neighbor swing") +
               ", h-ASPL=" + format_double(result.metrics.h_aspl) + ")");

  const auto dist = result.graph.host_distribution();
  Table table({"hosts/switch", "switches", "share%"});
  std::uint32_t distinct = 0;
  for (std::size_t k = 0; k < dist.size(); ++k) {
    if (dist[k] == 0) continue;
    ++distinct;
    table.row()
        .add(k)
        .add(static_cast<std::size_t>(dist[k]))
        .add(100.0 * dist[k] / result.graph.num_switches(), 1);
  }
  emit_table(table, "fig06_n" + std::to_string(n) + "_r" + std::to_string(r));
  std::cout << "distinct host counts: " << distinct
            << (distinct > 1 ? "  (neither direct nor indirect network)" : "")
            << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("fig06_host_distribution", "Fig. 6: host distribution at m_opt");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 2500)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(2500);

  run_panel(128, 24, iterations);
  run_panel(1024, 12, iterations);
  run_panel(1024, 24, iterations);
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
