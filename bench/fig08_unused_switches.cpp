// Fig. 8 — host distribution of a host-switch graph with unused switches
// ((n, m, r) = (1024, 1024, 24)).
//
// With m far above m_opt, the optimized non-regular graph parks most
// switches with zero hosts ("otiose switches"); the paper reports over 70%
// of switches carrying no hosts. A regular graph at the same m is forced
// to put one host on every switch and pays for it in h-ASPL (§5.3 case 1).

#include "bench_util.hpp"
#include "hsg/bounds.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("fig08_unused_switches",
                "Fig. 8: host distribution with unused switches (n=m=1024, r=24)");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 20000)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(20000);

  const std::uint32_t n = 1024, m = 1024, r = 24;
  SolveOptions options;
  options.iterations = iterations;
  options.seed = bench_seed();
  options.mode = MoveMode::kTwoNeighborSwing;
  options.force_switch_count = m;
  apply_cli_search_options(options);
  const SolveResult result = solve_orp(n, r, options);

  print_header("Fig. 8: (n, m, r) = (1024, 1024, 24), SA 2-neighbor swing");
  std::cout << "h-ASPL = " << format_double(result.metrics.h_aspl)
            << "   (m_opt would be " << result.predicted_m_opt
            << ", Theorem-2 bound " << format_double(result.haspl_lower_bound)
            << ")\n";

  const auto dist = result.graph.host_distribution();
  Table table({"hosts/switch", "switches", "share%"});
  for (std::size_t k = 0; k < dist.size(); ++k) {
    if (dist[k] == 0) continue;
    table.row()
        .add(k)
        .add(static_cast<std::size_t>(dist[k]))
        .add(100.0 * dist[k] / m, 1);
  }
  emit_table(table, "fig08_host_distribution");
  std::cout << "switches with no hosts: " << dist[0] << " ("
            << format_double(100.0 * dist[0] / m, 1)
            << "% — paper reports over 70%)\n";
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
