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
  Xoshiro256 seeder(options.seed);

  OdpResult best{HostSwitchGraph(order, order, radix), {}, 0, order, degree};
  auto better = [&](const HostMetrics& a, const HostMetrics& b) {
    if (options.objective == AnnealObjective::kDiameterThenHaspl &&
        a.diameter != b.diameter) {
      return a.diameter < b.diameter;
    }
    return a.total_length < b.total_length;
  };
  bool have_best = false;
  HostMetrics best_metrics;
  for (int run = 0; run < std::max(options.restarts, 1); ++run) {
    Xoshiro256 rng = seeder.split();
    const HostSwitchGraph initial =
        random_regular_host_switch_graph(order, order, radix, rng);
    AnnealOptions anneal_options;
    anneal_options.iterations = options.iterations;
    anneal_options.seed = rng();
    anneal_options.mode = MoveMode::kSwap;  // degree-preserving neighborhood
    anneal_options.objective = options.objective;
    anneal_options.pool = options.pool;
    AnnealResult result = anneal(initial, anneal_options);
    // With one host per switch, h-ASPL = ASPL + 2 (Eq. 1 with m = n), so
    // the h-ASPL objective ranks solutions exactly like plain ASPL.
    if (!have_best || better(result.best_metrics, best_metrics)) {
      have_best = true;
      best_metrics = result.best_metrics;
      best.graph = std::move(result.best);
    }
  }

  best.metrics = compute_switch_metrics(best.graph, options.pool);
  best.moore_aspl_bound = moore_aspl_bound(order, degree);
  return best;
}

}  // namespace orp
