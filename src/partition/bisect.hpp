#pragma once
// Multilevel 2-way partitioning: coarsen -> initial partition -> project
// back with FM refinement at every level (the Karypis–Kumar scheme).

#include <cstdint>
#include <vector>

#include "common/prng.hpp"
#include "partition/csr.hpp"

namespace orp {

/// 2-way partition with side 0 targeting `fraction0` of total vertex
/// weight. Returns side assignment in {0,1}; minimizes edge cut under the
/// balance constraint.
std::vector<std::uint8_t> bisect(const CsrGraph& g, double fraction0,
                                 Xoshiro256& rng);

}  // namespace orp
