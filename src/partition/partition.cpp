#include "partition/partition.hpp"

#include <numeric>

#include "common/require.hpp"

namespace orp {

std::uint64_t compute_edge_cut(const CsrGraph& g,
                               const std::vector<std::uint32_t>& assignment) {
  ORP_REQUIRE(assignment.size() == g.num_vertices(), "assignment size mismatch");
  std::uint64_t cut = 0;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.neighbors(v);
    const auto weights = g.edge_weights(v);
    for (std::size_t e = 0; e < neighbors.size(); ++e) {
      if (assignment[v] != assignment[neighbors[e]]) cut += weights[e];
    }
  }
  return cut / 2;
}

namespace {

// Recursive bisection: assigns parts [part_lo, part_lo + parts) to the
// vertices listed in `vertices` (ids of the original graph).
void partition_recursive(const CsrGraph& g, const std::vector<std::uint32_t>& vertices,
                         std::uint32_t part_lo, std::uint32_t parts,
                         Xoshiro256& rng, std::vector<std::uint32_t>& assignment) {
  if (parts == 1) {
    for (std::uint32_t v : vertices) assignment[v] = part_lo;
    return;
  }
  std::vector<std::uint32_t> old_to_new;
  const CsrGraph sub = csr_subgraph(g, vertices, old_to_new);
  const std::uint32_t parts0 = parts / 2;
  const double fraction0 = static_cast<double>(parts0) / static_cast<double>(parts);
  const std::vector<std::uint8_t> side = bisect(sub, fraction0, rng);

  std::vector<std::uint32_t> left, right;
  for (std::uint32_t i = 0; i < vertices.size(); ++i) {
    (side[i] == 0 ? left : right).push_back(vertices[i]);
  }
  // Every part needs a vertex: an uneven bisection of a set barely larger
  // than its part count hands the short side some of the other's vertices.
  // vertices.size() >= parts, so the giving side keeps enough.
  while (left.size() < parts0) {
    left.push_back(right.back());
    right.pop_back();
  }
  while (right.size() < parts - parts0) {
    right.push_back(left.back());
    left.pop_back();
  }
  partition_recursive(g, left, part_lo, parts0, rng, assignment);
  partition_recursive(g, right, part_lo + parts0, parts - parts0, rng, assignment);
}

}  // namespace

PartitionResult partition_graph(const CsrGraph& g, std::uint32_t parts,
                                std::uint64_t seed) {
  ORP_REQUIRE(parts >= 1, "need at least one part");
  ORP_REQUIRE(g.num_vertices() >= parts, "more parts than vertices");
  Xoshiro256 rng(seed);
  PartitionResult result;
  result.assignment.assign(g.num_vertices(), 0);
  std::vector<std::uint32_t> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  partition_recursive(g, all, 0, parts, rng, result.assignment);
  result.edge_cut = compute_edge_cut(g, result.assignment);
  result.part_weights.assign(parts, 0);
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    result.part_weights[result.assignment[v]] += g.vwgt[v];
  }
  return result;
}

std::uint64_t host_switch_cut(const HostSwitchGraph& g, std::uint32_t parts,
                              std::uint64_t seed) {
  const CsrGraph csr = csr_from_host_switch_graph(g);
  return partition_graph(csr, parts, seed).edge_cut;
}

}  // namespace orp
