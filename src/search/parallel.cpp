#include "search/parallel.hpp"

#include <cmath>

#include "common/require.hpp"

namespace orp {

std::vector<double> temperature_ladder(std::uint32_t replicas) {
  ORP_REQUIRE(replicas >= 1, "need at least one replica");
  // Hottest rung at 4x the base temperature regardless of K: wide enough
  // to hop basins the cold rung cannot, close enough that adjacent-rung
  // energy distributions overlap and exchanges actually land.
  const double ratio =
      replicas > 1 ? std::pow(4.0, 1.0 / static_cast<double>(replicas - 1)) : 1.0;
  std::vector<double> scales(replicas);
  double scale = 1.0;
  for (std::uint32_t k = 0; k < replicas; ++k, scale *= ratio) scales[k] = scale;
  return scales;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> swap_pairs_for_round(
    std::uint64_t round, std::uint32_t replicas) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  if (replicas < 2) return pairs;
  pairs.reserve(replicas / 2);
  for (std::uint32_t i = round % 2 == 0 ? 0 : 1; i + 1 < replicas; i += 2) {
    pairs.emplace_back(i, i + 1);
  }
  return pairs;
}

double exchange_exponent(double energy_cold, double energy_hot,
                         double temp_cold, double temp_hot) noexcept {
  return (energy_cold - energy_hot) * (1.0 / temp_cold - 1.0 / temp_hot);
}

bool accept_exchange(double exponent, Xoshiro256& rng) {
  if (exponent >= 0.0) return true;
  return rng.bernoulli(std::exp(exponent));
}

std::uint64_t replica_seed(std::uint64_t seed, std::uint32_t k) noexcept {
  if (k == 0) return seed;  // rung 0 == the serial annealer's stream
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * k);
  return splitmix64_next(state);
}

}  // namespace orp
