#include "search/odp.hpp"

#include "hsg/bounds.hpp"
#include "search/random_init.hpp"

namespace orp {

OdpResult solve_odp(std::uint32_t order, std::uint32_t degree,
                    const OdpOptions& options) {
  ORP_REQUIRE(order >= 2, "ODP needs at least two vertices");
  ORP_REQUIRE(degree >= 2 && degree < order,
              "ODP degree must be in [2, order)");

  // Embed: vertex = switch with one pendant host; radix D+1 leaves exactly
  // D ports for graph edges.
  const std::uint32_t radix = degree + 1;
  Xoshiro256 rng = Xoshiro256(options.seed).split();
  const HostSwitchGraph initial =
      random_regular_host_switch_graph(order, order, radix, rng);
  AnnealOptions anneal_options;
  anneal_options.iterations = options.iterations;
  anneal_options.seed = rng();
  anneal_options.mode = MoveMode::kSwap;  // degree-preserving neighborhood
  anneal_options.objective = options.objective;
  // With one host per switch, h-ASPL = ASPL + 2 (Eq. 1 with m = n), so the
  // h-ASPL objective ranks solutions exactly like plain ASPL.
  AnnealResult result = anneal(initial, anneal_options);

  const SwitchMetrics metrics = compute_switch_metrics(result.best);
  return {.graph = std::move(result.best),
          .metrics = metrics,
          .moore_aspl_bound = moore_aspl_bound(order, degree),
          .order = order,
          .degree = degree};
}

}  // namespace orp
