#include "hsg/distance.hpp"

namespace orp {

std::vector<std::uint16_t> switch_distance_matrix(const HostSwitchGraph& g) {
  const std::uint32_t m = g.num_switches();
  std::vector<std::uint16_t> dist(std::size_t{m} * m);
  DistanceScratch scratch;
  all_pairs_switch_distances(
      m, [&g](SwitchId v) { return g.neighbors(v); }, dist.data(), scratch);
  return dist;
}

}  // namespace orp
