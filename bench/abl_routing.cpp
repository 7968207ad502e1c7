// Ablation — deterministic shortest-path routing vs per-flow ECMP.
//
// The paper's simulation (like most topology studies) assumes shortest
// paths; real deployments of irregular topologies use multipath to avoid
// hotspots. This bench measures how much per-flow ECMP buys each topology
// under contended traffic — high-diversity fabrics (fat-tree) gain the
// most, and the proposed topology's gain indicates how much headroom its
// path diversity leaves.

#include "bench_util.hpp"
#include "sim/traffic.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_routing", "deterministic vs ECMP routing under contention");
  cli.option("hosts", "256", "hosts (square power of two)");
  cli.option("bytes", "4000000", "message size per rank");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 1500)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const auto bytes = cli.get_uint<std::uint64_t>("bytes");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(1500);

  struct Candidate {
    std::string name;
    HostSwitchGraph graph;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"proposed r=12", build_proposed(n, 12, iterations).graph});
  for (std::uint32_t k = 2;; k += 2) {
    if (fattree_host_capacity(FatTreeParams{k}) >= n) {
      candidates.push_back({"fat-tree", build_fattree(FatTreeParams{k}, n)});
      break;
    }
  }
  for (std::uint32_t base = 2;; ++base) {
    const TorusParams params{3, base, 12};
    if (torus_host_capacity(params) >= n) {
      candidates.push_back({"3-D torus", build_torus(params, n)});
      break;
    }
  }

  print_header("Ablation: routing policy, n=" + std::to_string(n) + ", " +
               std::to_string(bytes) + " B per rank");
  Table table({"topology", "pattern", "deterministic GB/s", "ECMP GB/s", "ECMP gain%"});
  for (const auto& candidate : candidates) {
    SimParams ecmp_params;
    ecmp_params.routing = RoutingPolicy::kEcmp;
    Machine det(candidate.graph);
    Machine ecmp(candidate.graph, ecmp_params);
    for (const TrafficPattern pattern :
         {TrafficPattern::kPermutation, TrafficPattern::kTranspose,
          TrafficPattern::kBitComplement}) {
      Xoshiro256 rng_a(bench_seed()), rng_b(bench_seed());
      const auto det_result = run_traffic(det, pattern, bytes, rng_a);
      const auto ecmp_result = run_traffic(ecmp, pattern, bytes, rng_b);
      table.row()
          .add(candidate.name)
          .add(traffic_pattern_name(pattern))
          .add(det_result.aggregate_bandwidth / 1e9, 2)
          .add(ecmp_result.aggregate_bandwidth / 1e9, 2)
          .add(100.0 * (ecmp_result.aggregate_bandwidth /
                            det_result.aggregate_bandwidth -
                        1.0), 1);
    }
  }
  table.print(std::cout);
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
