// Ablation — the price of deadlock-free routing.
//
// The h-ASPL the paper optimizes assumes shortest-path routing, but
// shortest paths on irregular topologies form cyclic channel dependencies
// (deadlock under wormhole/credit flow control). Up*/down* routing — the
// standard topology-agnostic fix ([14] in the paper) — restricts routes
// and inflates path lengths. This bench reports, per topology: whether
// shortest-path routing deadlocks, and the routed h-ASPL inflation of
// up*/down* (best root out of a small sample).

#include "bench_util.hpp"
#include "sim/updown.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_deadlock_free", "shortest-path deadlock hazard and up*/down* inflation");
  cli.option("hosts", "256", "hosts");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 1500)");
  cli.option("roots", "8", "spanning-tree roots sampled for up*/down*");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const auto roots = cli.get_uint<std::uint32_t>("roots");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(1500);

  const std::vector<Candidate> candidates = conventional_lineup(n, iterations);

  print_header("Ablation: deadlock freedom, n=" + std::to_string(n));
  Table table({"topology", "shortest h-ASPL", "SP deadlocks?", "up*/down* h-ASPL",
               "inflation%", "routed diameter"});
  for (const auto& candidate : candidates) {
    const auto& g = candidate.graph;
    const auto metrics = compute_host_metrics(g);
    const bool deadlocks = shortest_path_routing_has_cycle(g, RoutingTable(g));
    double best_haspl = std::numeric_limits<double>::infinity();
    std::uint32_t best_diameter = 0;
    const std::uint32_t step = std::max(1u, g.num_switches() / std::max(roots, 1u));
    for (SwitchId root = 0; root < g.num_switches(); root += step) {
      const UpDownRouting routing(g, root);
      const double haspl = routing.routed_haspl(g);
      if (haspl < best_haspl) {
        best_haspl = haspl;
        best_diameter = routing.routed_diameter(g);
      }
    }
    table.row()
        .add(candidate.name)
        .add(metrics.h_aspl, 3)
        .add(deadlocks ? "yes" : "no")
        .add(best_haspl, 3)
        .add(100.0 * (best_haspl / metrics.h_aspl - 1.0), 1)
        .add(static_cast<std::size_t>(best_diameter));
  }
  emit_table(table, "abl_deadlock_free");
  std::cout << "up*/down* is deadlock-free by construction; inflation is the\n"
               "latency price irregular topologies pay without virtual channels\n";
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
