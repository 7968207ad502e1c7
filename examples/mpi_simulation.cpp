// mpi_simulation — run NAS communication skeletons on any topology.
//
//   $ ./mpi_simulation --topology proposed --hosts 256 --radix 12
//   $ ./mpi_simulation --topology fattree --hosts 1024
//   $ ./mpi_simulation --load mygraph.hsg --kernels MG,CG
//
// Demonstrates the simulator API: build or load a host-switch graph, wrap
// it in a Machine (flow-level fluid network + MPI collectives), and run
// the NAS kernels, reporting simulated time, Mop/s, and the communication
// share of the runtime.

#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "hsg/io.hpp"
#include "obs/sink.hpp"
#include "search/solver.hpp"
#include "sim/nas.hpp"
#include "topo/attach.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace {

using namespace orp;

HostSwitchGraph build_topology(const std::string& name, std::uint32_t n,
                               std::uint32_t r, std::uint64_t iters,
                               std::uint64_t seed) {
  if (name == "proposed") {
    SolveOptions options;
    options.iterations = iters;
    options.seed = seed;
    return solve_orp(n, r, options).graph;
  }
  if (name == "torus") return build_torus(smallest_torus(3, r, n), n);
  if (name == "dragonfly") return build_dragonfly(smallest_dragonfly(n), n);
  if (name == "fattree") return build_fattree(smallest_fattree(n), n);
  throw std::invalid_argument("unknown topology '" + name +
                              "' (use proposed|torus|dragonfly|fattree)");
}

std::vector<NasKernel> parse_kernels(const std::string& spec) {
  if (spec == "all") return all_nas_kernels();
  std::vector<NasKernel> kernels;
  std::istringstream stream(spec);
  std::string token;
  while (std::getline(stream, token, ',')) {
    bool found = false;
    for (const NasKernel kernel : all_nas_kernels()) {
      if (token == nas_kernel_name(kernel)) {
        kernels.push_back(kernel);
        found = true;
      }
    }
    if (!found) throw std::invalid_argument("unknown NAS kernel '" + token + "'");
  }
  return kernels;
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("mpi_simulation", "simulate NAS kernels on a host-switch graph");
  cli.option("topology", "proposed", "proposed|torus|dragonfly|fattree (ignored with --load)");
  cli.option("load", "", "load a host-switch graph from this .hsg file instead");
  cli.option("hosts", "256", "number of hosts (square power of two for grid kernels)");
  cli.option("radix", "12", "switch radix (proposed/torus)");
  cli.option("kernels", "all", "comma list, e.g. MG,CG,FT (default: all eight)");
  cli.option("fraction", "0.1", "fraction of the class iteration counts to simulate");
  cli.option("iters", "2000", "SA iterations when building the proposed topology");
  cli.option("seed", "1", "random seed");
  cli.flag("dfs-ranks", "map MPI ranks in depth-first host order (paper's mapping)");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint<std::uint32_t>("hosts");
  HostSwitchGraph graph =
      !cli.get("load").empty()
          ? read_hsg_file(cli.get("load"))
          : build_topology(cli.get("topology"), n,
                           cli.get_uint<std::uint32_t>("radix"),
                           cli.get_uint<std::uint64_t>("iters"),
                           cli.get_uint<std::uint64_t>("seed"));
  graph.check_invariants();

  std::vector<HostId> rank_map;
  if (cli.has("dfs-ranks")) rank_map = dfs_host_order(graph);
  Machine machine(graph, SimParams{}, std::move(rank_map));

  NasOptions options;
  options.iteration_fraction = cli.get_double("fraction");

  std::cout << "topology: " << (cli.get("load").empty() ? cli.get("topology") : cli.get("load"))
            << "  hosts=" << graph.num_hosts() << "  switches=" << graph.num_switches()
            << "  radix=" << graph.radix() << "\n";
  Table table({"kernel", "sim time s", "Mop/s", "comm %"});
  for (const NasKernel kernel : parse_kernels(cli.get("kernels"))) {
    const NasResult result = run_nas_kernel(machine, kernel, options);
    table.row()
        .add(result.name)
        .add(result.seconds, 5)
        .add(result.mops_per_second, 1)
        .add(100.0 * result.comm_seconds / result.seconds, 1);
  }
  table.print(std::cout);
  // The sink (ORP_OBS_OUT) would flush at exit too, but could not fail the run.
  return obs::flush() ? 0 : 1;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
