#pragma once
// Serialization of host-switch graphs.
//
// Text format (one graph per stream):
//   hsg <n> <m> <r>
//   H <host> <switch>          (n lines, any order; detached hosts omitted)
//   S <switch_a> <switch_b>    (one line per switch-switch edge, a < b)
// '#' starts a comment. The reader validates structure and radix budgets.
// Format limits: n <= kMaxHsgHosts and m <= kMaxHsgSwitches (the header
// sizes the graph before any host line is read, so a larger header is
// rejected instead of allocated). The host limit is far above any graph the
// toolkit builds; the switch limit is the distance kernel's (m < 0xffff).
//
// A Graphviz DOT exporter is provided for small graphs (documentation and
// examples; hosts drawn as circles, switches as boxes, matching Fig. 1).

#include <cstdint>
#include <iosfwd>
#include <string>

#include "hsg/host_switch_graph.hpp"

namespace orp {

void write_hsg(std::ostream& os, const HostSwitchGraph& g);
bool write_hsg_file(const std::string& path, const HostSwitchGraph& g);

inline constexpr std::uint32_t kMaxHsgHosts = 1u << 20;
inline constexpr std::uint32_t kMaxHsgSwitches = 65534;

/// Parses the format above; throws std::invalid_argument with a line number
/// on malformed input, including a header beyond the format limits.
HostSwitchGraph read_hsg(std::istream& is);
HostSwitchGraph read_hsg_file(const std::string& path);

/// DOT rendering (undirected). Hosts are ellipses, switches are boxes.
void write_dot(std::ostream& os, const HostSwitchGraph& g);

/// Graph Golf (Order/Degree Problem competition) edge-list interop: one
/// "u v" line per switch-switch edge. Hosts are not part of the format.
void write_edgelist(std::ostream& os, const HostSwitchGraph& g);

/// Reads a Graph Golf edge list into the ODP embedding: `order` switches,
/// one pendant host each, radix `degree + 1`. Vertices mentioned in the
/// file must be < order; degree violations throw.
HostSwitchGraph read_edgelist(std::istream& is, std::uint32_t order,
                              std::uint32_t degree);

}  // namespace orp
