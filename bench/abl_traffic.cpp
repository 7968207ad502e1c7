// Ablation — synthetic traffic patterns across topologies.
//
// Classic Dally-style evaluation isolating what the NAS results blend:
// delivered aggregate bandwidth and mean route length per pattern on the
// proposed topology vs torus / dragonfly / fat-tree at matched host
// counts. Expectation: the proposed topology's uniformly low h-ASPL keeps
// adversarial patterns (bit-complement, transpose) close to its best
// case, while the torus collapses on them and the fat-tree rides its
// bisection.

#include "bench_util.hpp"
#include "sim/traffic.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_traffic", "synthetic traffic patterns across topologies");
  cli.option("hosts", "256", "hosts (square power of two)");
  cli.option("bytes", "1000000", "message size per rank");
  cli.option("iters", "0", "SA iterations for the proposed topology (0 = ORP_SA_ITERS or 1500)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const auto bytes = cli.get_uint<std::uint64_t>("bytes");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(1500);

  const std::vector<Candidate> candidates = conventional_lineup(n, iterations);

  print_header("Ablation: synthetic traffic, n=" + std::to_string(n) + ", " +
               std::to_string(bytes) + " B per rank (aggregate GB/s | mean hops)");
  std::vector<std::string> header{"pattern"};
  for (const auto& c : candidates) header.push_back(c.name);
  Table table(header);
  for (const TrafficPattern pattern : all_traffic_patterns()) {
    table.row().add(traffic_pattern_name(pattern));
    for (const auto& candidate : candidates) {
      Machine machine(candidate.graph);
      Xoshiro256 rng(bench_seed());
      const auto result = run_traffic(machine, pattern, bytes, rng);
      table.add(format_double(result.aggregate_bandwidth / 1e9, 1) + " | " +
                format_double(result.mean_hops, 2));
    }
  }
  table.print(std::cout);
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
