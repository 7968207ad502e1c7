#include "search/solver.hpp"

#include "common/shutdown.hpp"
#include "hsg/bounds.hpp"
#include "obs/trace.hpp"
#include "search/clique.hpp"
#include "common/thread_pool.hpp"
#include "search/random_init.hpp"

namespace orp {
namespace {

// Theorems 1 and 2 bound every host-switch graph of order n and radix r,
// so a result below either one is a solver or evaluator bug.
void check_paper_bounds(const SolveResult& result, std::uint32_t n, std::uint32_t r) {
  ORP_REQUIRE(result.metrics.h_aspl >= result.haspl_lower_bound * (1.0 - 1e-12),
              "solve_orp result is below the Theorem 2 h-ASPL bound");
  ORP_REQUIRE(result.metrics.diameter >= diameter_lower_bound(n, r),
              "solve_orp result is below the Theorem 1 diameter bound");
}

}  // namespace

SolveResult solve_orp(std::uint32_t n, std::uint32_t r, const SolveOptions& options) {
  ORP_REQUIRE(n >= 2, "need at least two hosts");
  ORP_REQUIRE(r >= 3, "radix must be at least 3");
  ORP_REQUIRE(options.iterations >= 1, "need at least one SA iteration");
  ORP_REQUIRE(options.replicas >= 1, "need at least one replica");
  ORP_REQUIRE(options.swap_interval >= 1, "swap interval must be positive");

  obs::Span solve_span("solver.solve_orp", "search");
  solve_span.arg("n", static_cast<std::uint64_t>(n));
  solve_span.arg("r", static_cast<std::uint64_t>(r));

  // Clique shortcut: provably optimal, no search needed (Appendix Thm. 3).
  {
    obs::Span phase_span("solver.clique_check", "search");
    if (!options.force_switch_count && clique_feasible(n, r)) {
      HostSwitchGraph graph = build_clique_graph(n, r);
      HostMetrics metrics = compute_host_metrics(graph, options.pool);
      const std::uint32_t m_clique = graph.num_switches();
      SolveResult result{.graph = std::move(graph),
                         .metrics = std::move(metrics),
                         .switch_count = m_clique,
                         .predicted_m_opt = optimal_switch_count(n, r),
                         .haspl_lower_bound = haspl_lower_bound(n, r),
                         .continuous_moore_bound =
                             continuous_haspl_moore_bound(n, m_clique, r),
                         .used_clique = true,
                         .sa_trace = {}};
      solve_span.arg("method", "clique");
      check_paper_bounds(result, n, r);
      return result;
    }
  }

  std::uint32_t m_opt = 0;
  {
    obs::Span phase_span("solver.predict_m_opt", "search");
    m_opt = optimal_switch_count(n, r);
    phase_span.arg("m_opt", static_cast<std::uint64_t>(m_opt));
  }

  const std::uint32_t m = options.force_switch_count.value_or(m_opt);
  ORP_REQUIRE(random_init_feasible(n, m, r),
              "no connected host-switch graph with the requested (n, m, r)");

  Xoshiro256 seeder(options.seed);
  const int restarts = std::max(options.restarts, 1);
  // With K = 1 and a pool the restarts run concurrently, and each annealer
  // then keeps its metric kernel serial to avoid nested oversubscription.
  // With K > 1 the rungs are the parallelism, so the restarts run serially
  // and each ladder gets the whole pool.
  const bool concurrent_restarts =
      options.pool && restarts > 1 && options.replicas == 1;

  // Each restart gets a deterministic sub-stream so results do not depend
  // on scheduling.
  std::vector<Xoshiro256> streams;
  streams.reserve(static_cast<std::size_t>(restarts));
  for (int run = 0; run < restarts; ++run) streams.push_back(seeder.split());

  std::vector<std::optional<AnnealResult>> results(
      static_cast<std::size_t>(restarts));
  auto run_one = [&](std::size_t run) {
    // Graceful shutdown: skip restarts that have not started yet. Restart 0
    // always runs (the annealer inside winds down immediately when the flag
    // is set) so the solver can still return a valid solution.
    if (run != 0 && shutdown_requested()) return;
    obs::Span restart_span("solver.sa_restart", "search");
    restart_span.arg("restart", static_cast<std::uint64_t>(run));
    Xoshiro256 rng = streams[run];
    const HostSwitchGraph initial =
        options.regular_start
            ? random_regular_host_switch_graph(n, m, r, rng)
            : random_host_switch_graph(n, m, r, rng);
    // The rungs split the restart's move budget, so runs at the same
    // --iters spend the same total number of moves whatever K is.
    AnnealOptions anneal_options;
    anneal_options.iterations =
        std::max<std::uint64_t>(1, options.iterations / options.replicas);
    anneal_options.seed = rng();
    anneal_options.mode = options.mode;
    anneal_options.pool = concurrent_restarts ? nullptr : options.pool;
    anneal_options.trace_every = options.trace_every;
    anneal_options.replicas = options.replicas;
    anneal_options.swap_interval = options.swap_interval;
    results[run] = anneal(initial, anneal_options);
    restart_span.arg("haspl", results[run]->best_metrics.h_aspl);
  };
  {
    obs::Span phase_span("solver.sa_restarts", "search");
    phase_span.arg("restarts", static_cast<std::int64_t>(restarts));
    phase_span.arg("iterations", options.iterations);
    phase_span.arg("replicas", static_cast<std::uint64_t>(options.replicas));
    if (concurrent_restarts) {
      options.pool->parallel_for(static_cast<std::size_t>(restarts), run_one);
    } else {
      for (int run = 0; run < restarts; ++run) run_one(static_cast<std::size_t>(run));
    }
  }

  std::optional<AnnealResult> best;
  bool interrupted = false;
  for (auto& result : results) {
    if (!result) {  // restart skipped by a shutdown request
      interrupted = true;
      continue;
    }
    interrupted = interrupted || result->interrupted;
    if (!best ||
        result->best_metrics.total_length < best->best_metrics.total_length) {
      best = std::move(result);
    }
  }
  ORP_ASSERT(best.has_value());  // restart 0 always runs

  SolveResult result{.graph = std::move(best->best),
                     .metrics = best->best_metrics,
                     .switch_count = m,
                     .predicted_m_opt = m_opt,
                     .haspl_lower_bound = haspl_lower_bound(n, r),
                     .continuous_moore_bound = continuous_haspl_moore_bound(n, m, r),
                     .used_clique = false,
                     .interrupted = interrupted,
                     .sa_trace = std::move(best->trace)};
  solve_span.arg("method", "sa");
  solve_span.arg("haspl", result.metrics.h_aspl);
  check_paper_bounds(result, n, r);
  return result;
}

}  // namespace orp
