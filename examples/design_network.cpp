// design_network — design an interconnect for a cluster and compare it
// against the conventional alternatives at the same scale.
//
//   $ ./design_network --hosts 1024 --radix 16
//
// This is the §6 workflow as a tool: build the proposed topology (m_opt +
// SA with 2-neighbor swing) and the smallest torus / dragonfly / fat-tree
// that can carry the same hosts, then report graph quality (h-ASPL,
// diameter), bisection cut, switch counts, power, and cost side by side.

#include <iostream>
#include <optional>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "cost/evaluate.hpp"
#include "obs/sink.hpp"
#include "hsg/bounds.hpp"
#include "hsg/io.hpp"
#include "hsg/metrics.hpp"
#include "partition/partition.hpp"
#include "search/solver.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace {

using namespace orp;

struct Candidate {
  std::string name;
  HostSwitchGraph graph;
};

void add_row(Table& table, const Candidate& candidate, std::uint64_t seed) {
  const auto metrics = compute_host_metrics(candidate.graph);
  const auto cost = evaluate_network_cost(candidate.graph);
  const auto cut = host_switch_cut(candidate.graph, 2, seed);
  table.row()
      .add(candidate.name)
      .add(static_cast<std::size_t>(candidate.graph.num_switches()))
      .add(metrics.h_aspl, 3)
      .add(static_cast<std::size_t>(metrics.diameter))
      .add(cut)
      .add(cost.total_power_w(), 0)
      .add(cost.total_cost_usd(), 0);
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("design_network",
                "design a low h-ASPL interconnect and compare with torus/dragonfly/fat-tree");
  cli.option("hosts", "1024", "number of hosts to connect");
  cli.option("radix", "16", "switch radix for the proposed topology");
  cli.option("iters", "3000", "simulated-annealing iterations");
  cli.option("seed", "1", "random seed");
  cli.option("out", "", "write the proposed topology to this .hsg file");
  obs::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  obs::apply_cli(cli);

  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const auto r = cli.get_uint<std::uint32_t>("radix");
  const auto seed = cli.get_uint<std::uint64_t>("seed");

  SolveOptions options;
  options.iterations = cli.get_uint<std::uint64_t>("iters");
  options.seed = seed;
  std::cout << "Designing the proposed topology for n=" << n << ", r=" << r
            << " (m_opt=" << optimal_switch_count(n, r) << ") ...\n";
  const SolveResult proposed = solve_orp(n, r, options);

  std::vector<Candidate> candidates;
  candidates.push_back({"proposed (ORP)", proposed.graph});

  // Smallest conventional fabrics that can carry n hosts. The torus keeps
  // the requested radix; dragonfly and fat-tree dictate their own.
  for (std::uint32_t base = 2;; ++base) {
    const TorusParams params{3, base, r};
    if (r > torus_link_degree(params) && torus_host_capacity(params) >= n) {
      candidates.push_back(
          {"3-D torus (N=" + std::to_string(base) + ", r=" + std::to_string(r) + ")",
           build_torus(params, n)});
      break;
    }
  }
  for (std::uint32_t a = 2;; a += 2) {
    const DragonflyParams params{a};
    if (dragonfly_host_capacity(params) >= n) {
      candidates.push_back(
          {"dragonfly (a=" + std::to_string(a) + ", r=" + std::to_string(params.radix()) + ")",
           build_dragonfly(params, n)});
      break;
    }
  }
  for (std::uint32_t k = 2;; k += 2) {
    const FatTreeParams params{k};
    if (fattree_host_capacity(params) >= n) {
      candidates.push_back(
          {std::to_string(k) + "-ary fat-tree (r=" + std::to_string(k) + ")",
           build_fattree(params, n)});
      break;
    }
  }

  Table table({"topology", "switches", "h-ASPL", "diameter", "bisection cut",
               "power W", "cost $"});
  for (const auto& candidate : candidates) add_row(table, candidate, seed);
  table.print(std::cout);
  std::cout << "\nh-ASPL lower bound (Theorem 2) at r=" << r << ": "
            << format_double(haspl_lower_bound(n, r), 3) << "\n";

  if (const std::string path = cli.get("out"); !path.empty()) {
    if (!write_hsg_file(path, proposed.graph)) {
      std::cerr << "could not write " << path << "\n";
      return 1;
    }
    std::cout << "wrote " << path << "\n";
  }
  if (obs::cli_wants_summary(cli)) obs::print_summary(std::cout);
  obs::flush();
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
