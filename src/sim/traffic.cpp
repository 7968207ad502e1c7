#include "sim/traffic.hpp"

#include <bit>
#include <cmath>
#include <numeric>

#include "common/require.hpp"

namespace orp {

const char* traffic_pattern_name(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kUniformRandom: return "uniform-random";
    case TrafficPattern::kPermutation: return "permutation";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kBitComplement: return "bit-complement";
    case TrafficPattern::kBitReverse: return "bit-reverse";
    case TrafficPattern::kNeighborRing: return "neighbor-ring";
    case TrafficPattern::kShuffle: return "shuffle";
  }
  return "?";
}

std::vector<TrafficPattern> all_traffic_patterns() {
  return {TrafficPattern::kUniformRandom, TrafficPattern::kPermutation,
          TrafficPattern::kTranspose,     TrafficPattern::kBitComplement,
          TrafficPattern::kBitReverse,    TrafficPattern::kNeighborRing,
          TrafficPattern::kShuffle};
}

std::vector<Message> make_traffic(TrafficPattern pattern, std::uint32_t ranks,
                                  std::uint64_t bytes, Xoshiro256& rng) {
  ORP_REQUIRE(ranks >= 2, "need at least two ranks");
  std::vector<Message> messages;
  messages.reserve(ranks);
  const std::uint32_t log2n =
      std::has_single_bit(ranks) ? std::bit_width(ranks) - 1 : 0;

  switch (pattern) {
    case TrafficPattern::kUniformRandom:
      for (Rank r = 0; r < ranks; ++r) {
        messages.push_back({r, static_cast<Rank>(rng.below(ranks)), bytes});
      }
      break;
    case TrafficPattern::kPermutation: {
      std::vector<Rank> target(ranks);
      std::iota(target.begin(), target.end(), 0);
      shuffle(target, rng);
      for (Rank r = 0; r < ranks; ++r) messages.push_back({r, target[r], bytes});
      break;
    }
    case TrafficPattern::kTranspose: {
      const auto side = static_cast<std::uint32_t>(std::lround(std::sqrt(ranks)));
      ORP_REQUIRE(side * side == ranks, "transpose needs a square rank count");
      for (Rank r = 0; r < ranks; ++r) {
        const std::uint32_t row = r / side, col = r % side;
        messages.push_back({r, col * side + row, bytes});
      }
      break;
    }
    case TrafficPattern::kBitComplement:
      ORP_REQUIRE(std::has_single_bit(ranks), "bit patterns need power-of-two ranks");
      for (Rank r = 0; r < ranks; ++r) {
        messages.push_back({r, static_cast<Rank>(~r & (ranks - 1)), bytes});
      }
      break;
    case TrafficPattern::kBitReverse:
      ORP_REQUIRE(std::has_single_bit(ranks), "bit patterns need power-of-two ranks");
      for (Rank r = 0; r < ranks; ++r) {
        Rank reversed = 0;
        for (std::uint32_t b = 0; b < log2n; ++b) {
          reversed |= ((r >> b) & 1u) << (log2n - 1 - b);
        }
        messages.push_back({r, reversed, bytes});
      }
      break;
    case TrafficPattern::kNeighborRing:
      for (Rank r = 0; r < ranks; ++r) {
        messages.push_back({r, (r + 1) % ranks, bytes});
      }
      break;
    case TrafficPattern::kShuffle:
      ORP_REQUIRE(std::has_single_bit(ranks), "shuffle needs power-of-two ranks");
      for (Rank r = 0; r < ranks; ++r) {
        const Rank rotated = static_cast<Rank>(
            ((r << 1) | (r >> (log2n - 1))) & (ranks - 1));
        messages.push_back({r, rotated, bytes});
      }
      break;
  }
  return messages;
}

TrafficResult run_traffic(Machine& machine, TrafficPattern pattern,
                          std::uint64_t bytes, Xoshiro256& rng) {
  const auto messages = make_traffic(pattern, machine.num_ranks(), bytes, rng);
  TrafficResult result;
  result.pattern = traffic_pattern_name(pattern);
  result.elapsed = machine.phase(messages);
  std::uint64_t delivered = 0;
  for (const Message& m : messages) {
    if (m.src != m.dst) delivered += m.bytes;
  }
  result.aggregate_bandwidth =
      result.elapsed > 0 ? static_cast<double>(delivered) / result.elapsed : 0.0;
  result.mean_hops = machine.last_phase_stats().mean_hops;
  result.max_link_utilization = machine.link_loads().max_utilization;
  return result;
}

}  // namespace orp
