// Ablation — cable-aware switch placement (§6.3.1's "cable complexity").
//
// The paper attributes the proposed topology's cable-cost penalty to its
// random-like wiring. Placement is a free variable: this bench optimizes
// the switch -> cabinet assignment by simulated annealing and reports how
// much of the cable cost it recovers for the proposed topology vs how
// little structured topologies gain (their identity layout is already
// near-optimal along low dimensions).

#include "bench_util.hpp"
#include "cost/placement.hpp"
#include "topo/dragonfly.hpp"
#include "topo/torus.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_placement", "cable-aware cabinet placement optimization");
  cli.option("hosts", "1024", "hosts");
  cli.option("sa-iters", "0", "topology SA iterations (0 = ORP_SA_ITERS or 2000)");
  cli.option("placement-iters", "30000", "placement SA iterations");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("hosts");
  std::uint64_t sa_iterations = cli.get_uint<std::uint64_t>("sa-iters");
  if (sa_iterations == 0) sa_iterations = sa_iters(2000);
  const auto placement_iters =
      cli.get_uint<std::uint64_t>("placement-iters");

  std::vector<Candidate> candidates;
  candidates.push_back({"proposed r=15", build_proposed(n, 15, sa_iterations).graph});
  candidates.push_back({"5-D torus", build_torus(TorusParams{5, 3, 15}, n)});
  candidates.push_back({"dragonfly a=8", build_dragonfly(DragonflyParams{8}, n)});

  print_header("Ablation: cabinet placement, n=" + std::to_string(n));
  Table table({"topology", "identity cable $", "optimized cable $", "saved%",
               "optical before", "optical after"});
  for (const auto& candidate : candidates) {
    const auto& g = candidate.graph;
    std::vector<std::uint32_t> identity(g.num_switches());
    for (std::uint32_t i = 0; i < g.num_switches(); ++i) identity[i] = i;
    const auto before = evaluate_network_cost_placed(g, identity);
    const auto placement = optimize_placement(g, placement_iters, bench_seed());
    const auto after = evaluate_network_cost_placed(g, placement);
    table.row()
        .add(candidate.name)
        .add(before.cable_cost_usd(), 0)
        .add(after.cable_cost_usd(), 0)
        .add(100.0 * (1.0 - after.cable_cost_usd() / before.cable_cost_usd()), 1)
        .add(before.optical_cables)
        .add(after.optical_cables);
  }
  table.print(std::cout);
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
