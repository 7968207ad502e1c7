// traffic_study — synthetic traffic and routing-policy exploration.
//
//   $ ./traffic_study --hosts 256 --radix 12 --bytes 1000000
//
// Builds the proposed topology and reports, per traffic pattern, the
// delivered aggregate bandwidth, mean route length, and hottest-link
// utilization under deterministic and ECMP routing — the view a network
// architect wants before committing to a wiring plan. Also cross-checks
// the fluid numbers against the packet-level engine.

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/sink.hpp"
#include "search/solver.hpp"
#include "sim/packet.hpp"
#include "sim/traffic.hpp"

int main(int argc, char** argv) try {
  using namespace orp;

  CliParser cli("traffic_study", "synthetic traffic on a designed topology");
  cli.option("hosts", "256", "number of hosts (square power of two)");
  cli.option("radix", "12", "switch radix");
  cli.option("bytes", "1000000", "message size per rank");
  cli.option("iters", "2000", "SA iterations");
  cli.option("seed", "1", "random seed");
  cli.flag("packet-check", "also run the packet-level engine for each pattern");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const auto r = cli.get_uint<std::uint32_t>("radix");
  const auto bytes = cli.get_uint<std::uint64_t>("bytes");
  const auto seed = cli.get_uint<std::uint64_t>("seed");

  SolveOptions options;
  options.iterations = cli.get_uint<std::uint64_t>("iters");
  options.seed = seed;
  std::cout << "Designing proposed topology for n=" << n << ", r=" << r << " ...\n";
  const SolveResult design = solve_orp(n, r, options);
  std::cout << "m=" << design.switch_count << "  h-ASPL="
            << format_double(design.metrics.h_aspl, 3) << "  diameter="
            << design.metrics.diameter << "\n\n";

  SimParams det_params;
  SimParams ecmp_params;
  ecmp_params.routing = RoutingPolicy::kEcmp;
  Machine det(design.graph, det_params);
  Machine ecmp(design.graph, ecmp_params);
  PacketSimParams pkt_params;
  PacketMachine packets(design.graph, pkt_params);

  std::vector<std::string> header{"pattern", "det GB/s", "ECMP GB/s",
                                  "mean hops", "max link util"};
  if (cli.has("packet-check")) header.push_back("packet/fluid");
  Table table(header);
  for (const TrafficPattern pattern : all_traffic_patterns()) {
    Xoshiro256 rng_a(seed), rng_b(seed), rng_c(seed);
    const auto det_result = run_traffic(det, pattern, bytes, rng_a);
    const auto ecmp_result = run_traffic(ecmp, pattern, bytes, rng_b);
    table.row()
        .add(det_result.pattern)
        .add(det_result.aggregate_bandwidth / 1e9, 2)
        .add(ecmp_result.aggregate_bandwidth / 1e9, 2)
        .add(det_result.mean_hops, 2)
        .add(det_result.max_link_utilization, 2);
    if (cli.has("packet-check")) {
      const auto messages = make_traffic(pattern, n, bytes, rng_c);
      const auto pkt = packets.phase(messages);
      table.add(pkt.elapsed / det_result.elapsed, 3);
    }
  }
  table.print(std::cout);
  // The sink (ORP_OBS_OUT) would flush at exit too, but could not fail the run.
  return obs::flush() ? 0 : 1;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
