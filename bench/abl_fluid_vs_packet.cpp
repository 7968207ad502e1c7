// Ablation — fluid (max-min fair) engine vs packet-level simulation.
//
// The §6.2.1 evaluation rides on a SimGrid-style fluid model; this bench
// quantifies how far that abstraction sits from a store-and-forward
// packet simulation on the same topologies and message sets. Large
// messages should agree within a few percent; tiny messages expose the
// serialization effects the fluid model does not represent.

#include "bench_util.hpp"
#include "sim/packet.hpp"
#include "sim/traffic.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_fluid_vs_packet", "fluid engine vs packet-level simulation");
  cli.option("hosts", "64", "hosts (square power of two)");
  cli.option("iters", "0", "SA iterations for the proposed topology (0 = ORP_SA_ITERS or 1000)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("hosts");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(1000);

  struct Candidate {
    std::string name;
    HostSwitchGraph graph;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"proposed", build_proposed(n, 8, iterations).graph});
  for (std::uint32_t k = 2;; k += 2) {
    if (fattree_host_capacity(FatTreeParams{k}) >= n) {
      candidates.push_back({"fat-tree", build_fattree(FatTreeParams{k}, n)});
      break;
    }
  }

  print_header("Ablation: fluid vs packet engine, n=" + std::to_string(n));
  Table table({"topology", "pattern", "bytes", "fluid s", "packet s", "packet/fluid"});
  for (const auto& candidate : candidates) {
    Machine fluid(candidate.graph);
    PacketSimParams pkt;
    PacketMachine packets(candidate.graph, pkt);
    for (const TrafficPattern pattern :
         {TrafficPattern::kPermutation, TrafficPattern::kTranspose,
          TrafficPattern::kBitComplement, TrafficPattern::kNeighborRing}) {
      for (const std::uint64_t bytes : {4096ull, 4000000ull}) {
        Xoshiro256 rng(bench_seed());
        const auto messages = make_traffic(pattern, n, bytes, rng);
        fluid.reset();
        const double fluid_time = fluid.phase(messages);
        const auto packet_result = packets.phase(messages);
        table.row()
            .add(candidate.name)
            .add(traffic_pattern_name(pattern))
            .add(bytes)
            .add(fluid_time, 6)
            .add(packet_result.elapsed, 6)
            .add(packet_result.elapsed / fluid_time, 3);
      }
    }
  }
  table.print(std::cout);
  std::cout << "expected: ratios near 1.0 for 4 MB messages (validates the fluid\n"
               "model); small-message ratios drift as serialization bites\n";
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
