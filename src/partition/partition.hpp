#pragma once
// Public k-way partitioning facade (the METIS replacement used by the
// paper's bandwidth evaluation, §6.2.2).
//
// k-way partitions come from recursive bisection; non-power-of-two part
// counts split proportionally (e.g. 6 parts -> 3 + 3 via a 1/2 bisection,
// 5 parts -> 2 + 3 via a 2/5 bisection), so every P in the paper's 2..16
// sweep is supported.

#include <cstdint>
#include <vector>

#include "partition/bisect.hpp"
#include "partition/csr.hpp"

namespace orp {

struct PartitionResult {
  std::vector<std::uint32_t> assignment;  ///< vertex -> part in [0, parts)
  std::uint64_t edge_cut = 0;             ///< total weight of cut edges
  std::vector<std::uint64_t> part_weights;
};

/// Edge cut of an arbitrary assignment.
std::uint64_t compute_edge_cut(const CsrGraph& g,
                               const std::vector<std::uint32_t>& assignment);

/// Partitions `g` into `parts` pieces of (near-)equal vertex weight.
PartitionResult partition_graph(const CsrGraph& g, std::uint32_t parts,
                                std::uint64_t seed);

/// The paper's bandwidth metric: partition hosts+switches of a host-switch
/// graph into `parts` equal subsets and report the number of cut links
/// (parts == 2 gives the bisection bandwidth in links).
std::uint64_t host_switch_cut(const HostSwitchGraph& g, std::uint32_t parts,
                              std::uint64_t seed);

}  // namespace orp
