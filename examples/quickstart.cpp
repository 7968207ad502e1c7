// Quickstart — solve a small Order/Radix Problem end to end.
//
//   $ ./quickstart --hosts 64 --radix 8
//
// Builds the proposed topology for (n, r): predicts the optimal switch
// count from the continuous Moore bound, runs simulated annealing with the
// 2-neighbor swing operation, and reports the result against the paper's
// lower bounds. Optionally writes the graph (.hsg) and a Graphviz DOT file.

#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "hsg/bounds.hpp"
#include "hsg/io.hpp"
#include "obs/sink.hpp"
#include "search/solver.hpp"

int main(int argc, char** argv) try {
  using namespace orp;

  CliParser cli("quickstart", "solve ORP(n, r) and print the solution quality");
  cli.option("hosts", "64", "order n: number of hosts");
  cli.option("radix", "8", "radix r: ports per switch");
  cli.option("iters", "4000", "simulated-annealing iterations");
  cli.option("seed", "1", "random seed");
  cli.option("out", "", "write the solution graph to this .hsg file");
  cli.option("dot", "", "write a Graphviz rendering to this .dot file");
  obs::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  obs::apply_cli(cli);

  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const auto r = cli.get_uint<std::uint32_t>("radix");

  SolveOptions options;
  options.iterations = cli.get_uint<std::uint64_t>("iters");
  options.seed = cli.get_uint<std::uint64_t>("seed");

  std::cout << "Solving ORP(n=" << n << ", r=" << r << ") ...\n";
  const SolveResult result = solve_orp(n, r, options);

  Table table({"quantity", "value"});
  table.row().add("switches m").add(static_cast<std::size_t>(result.switch_count));
  table.row().add("predicted m_opt").add(static_cast<std::size_t>(result.predicted_m_opt));
  table.row().add("method").add(result.used_clique ? "clique construction (provably optimal)"
                                                   : "SA with 2-neighbor swing");
  table.row().add("h-ASPL").add(result.metrics.h_aspl);
  table.row().add("h-ASPL lower bound (Thm 2)").add(result.haspl_lower_bound);
  table.row().add("continuous Moore bound").add(result.continuous_moore_bound);
  table.row().add("diameter").add(static_cast<std::size_t>(result.metrics.diameter));
  table.row().add("diameter lower bound (Thm 1)")
      .add(static_cast<std::size_t>(diameter_lower_bound(n, r)));
  table.row().add("switch-switch links").add(result.graph.num_switch_edges());
  table.print(std::cout);

  const double gap =
      100.0 * (result.metrics.h_aspl / result.haspl_lower_bound - 1.0);
  std::cout << "gap to the Theorem-2 lower bound: " << format_double(gap, 2)
            << "%\n";

  if (const std::string path = cli.get("out"); !path.empty()) {
    if (write_hsg_file(path, result.graph)) {
      std::cout << "wrote " << path << "\n";
    } else {
      std::cerr << "could not write " << path << "\n";
      return 1;
    }
  }
  if (const std::string path = cli.get("dot"); !path.empty()) {
    std::ofstream file(path);
    if (file) {
      write_dot(file, result.graph);
      std::cout << "wrote " << path << "\n";
    } else {
      std::cerr << "could not write " << path << "\n";
      return 1;
    }
  }
  if (obs::cli_wants_summary(cli)) obs::print_summary(std::cout);
  return obs::flush() ? 0 : 1;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
