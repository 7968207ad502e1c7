#include "topo/torus.hpp"

#include <stdexcept>
#include <string>

#include "common/require.hpp"

namespace orp {

std::uint64_t torus_switch_count(const TorusParams& params) {
  ORP_REQUIRE(params.dims >= 1 && params.base >= 2, "need dims >= 1, base >= 2");
  std::uint64_t m = 1;
  for (std::uint32_t i = 0; i < params.dims; ++i) m *= params.base;
  return m;
}

std::uint32_t torus_link_degree(const TorusParams& params) {
  return params.base >= 3 ? 2 * params.dims : params.dims;
}

std::uint64_t torus_host_capacity(const TorusParams& params) {
  const std::uint32_t degree = torus_link_degree(params);
  ORP_REQUIRE(params.radix > degree, "radix must exceed the torus link degree");
  return (params.radix - degree) * torus_switch_count(params);
}

TorusParams smallest_torus(std::uint32_t dims, std::uint32_t radix, std::uint32_t hosts) {
  ORP_REQUIRE(dims >= 1, "a torus needs dims >= 1");
  const TorusParams pair{dims, 2, radix};  // base 2: dims links per switch
  if (radix > dims && torus_host_capacity(pair) >= hosts) return pair;
  // Base >= 3: 2*dims links per switch; capacity grows with the base.
  if (radix > 2 * dims) {
    for (std::uint32_t base = 3;; ++base) {
      const TorusParams params{dims, base, radix};
      if (torus_host_capacity(params) >= hosts) return params;
    }
  }
  throw std::invalid_argument("no " + std::to_string(dims) + "-D torus of radix " +
                              std::to_string(radix) + " carries " + std::to_string(hosts) +
                              " hosts (base 2 has " + std::to_string(dims) +
                              " links per switch, larger bases " + std::to_string(2 * dims) +
                              ")");
}

HostSwitchGraph build_torus(const TorusParams& params, std::uint32_t n,
                            AttachPolicy policy) {
  const std::uint64_t m = torus_switch_count(params);
  ORP_REQUIRE(m <= 0xffffffffu, "torus too large");
  ORP_REQUIRE(n <= torus_host_capacity(params), "too many hosts for this torus");

  HostSwitchGraph g(n, static_cast<std::uint32_t>(m), params.radix);
  // Switch id <-> mixed-radix address a_{dims-1} ... a_0, all base `base`.
  std::uint64_t stride = 1;
  for (std::uint32_t dim = 0; dim < params.dims; ++dim) {
    for (std::uint64_t s = 0; s < m; ++s) {
      const std::uint64_t digit = (s / stride) % params.base;
      const std::uint64_t up = s - digit * stride + ((digit + 1) % params.base) * stride;
      // The "+1" scan emits every ring edge exactly once for base >= 3
      // (including the wraparound edge, where up < s). For base == 2 the +1
      // and -1 neighbors coincide, so emit only from digit 0.
      if (params.base >= 3 || digit == 0) {
        g.add_switch_edge(static_cast<SwitchId>(s), static_cast<SwitchId>(up));
      }
    }
    stride *= params.base;
  }
  attach_hosts(g, policy);
  return g;
}

}  // namespace orp
