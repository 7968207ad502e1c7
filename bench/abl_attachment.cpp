// Ablation — host-attachment / rank-mapping policies (§1's claim that the
// vertex <-> physical-node mapping strongly affects performance, and
// §6.2.1's use of depth-first rank ordering for the proposed topology).
//
// Runs two communication-bound NAS kernels on the proposed topology with
// three rank mappings: DFS host order (the paper's), identity, and a
// random permutation. Nearest-neighbor kernels (MG) should care; pure
// all-to-all kernels (FT) should not.

#include <numeric>

#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_attachment", "ablation: rank mapping policies");
  cli.option("n", "256", "hosts (square power of two)");
  cli.option("radix", "12", "ports per switch");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 1500)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("n");
  const auto r = cli.get_uint<std::uint32_t>("radix");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(1500);

  const SolveResult proposed = build_proposed(n, r, iterations);
  print_header("Ablation: rank mapping on the proposed topology (n=" +
               std::to_string(n) + ", r=" + std::to_string(r) + ")");

  std::vector<HostId> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<HostId> random_map = identity;
  Xoshiro256 rng(bench_seed());
  shuffle(random_map, rng);

  struct Mapping {
    const char* name;
    std::vector<HostId> map;
  };
  std::vector<Mapping> mappings;
  mappings.push_back({"dfs (paper)", dfs_host_order(proposed.graph)});
  mappings.push_back({"identity", identity});
  mappings.push_back({"random", random_map});

  NasOptions options;
  options.iteration_fraction = sim_fraction();
  Table table({"mapping", "MG Mop/s", "CG Mop/s", "FT Mop/s"});
  for (const auto& mapping : mappings) {
    Machine machine(proposed.graph, SimParams{}, mapping.map);
    table.row().add(mapping.name);
    for (const NasKernel kernel : {NasKernel::kMG, NasKernel::kCG, NasKernel::kFT}) {
      table.add(run_nas_kernel(machine, kernel, options).mops_per_second, 1);
    }
  }
  table.print(std::cout);
  std::cout << "expected: mapping shifts neighbor-heavy kernels (MG/CG); "
               "all-to-all (FT) is mapping-insensitive\n";
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
