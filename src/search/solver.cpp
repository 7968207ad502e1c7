#include "search/solver.hpp"

#include <algorithm>

#include "hsg/bounds.hpp"
#include "obs/trace.hpp"
#include "search/clique.hpp"
#include "search/random_init.hpp"

namespace orp {
namespace {

// True when every switch of `g` carries exactly n/m hosts.
bool is_regular(const HostSwitchGraph& g) {
  const std::uint32_t m = g.num_switches();
  for (SwitchId s = 0; s < m; ++s) {
    if (std::uint64_t{g.hosts_on(s)} * m != g.num_hosts()) return false;
  }
  return true;
}

// Theorems 1 and 2 bound every host-switch graph of order n and radix r,
// and Eq. (2) every regular one, so a result below any of them is a solver
// or evaluator bug.
void check_paper_bounds(const SolveResult& result, std::uint32_t n, std::uint32_t r) {
  constexpr double kSlack = 1.0 - 1e-12;
  ORP_REQUIRE(result.metrics.h_aspl >= result.haspl_lower_bound * kSlack,
              "solve_orp result is below the Theorem 2 h-ASPL bound");
  ORP_REQUIRE(result.metrics.diameter >= diameter_lower_bound(n, r),
              "solve_orp result is below the Theorem 1 diameter bound");
  if (is_regular(result.graph)) {
    ORP_REQUIRE(result.metrics.h_aspl >=
                    regular_haspl_moore_bound(n, result.graph.num_switches(), r) * kSlack,
                "solve_orp result is below the Eq. (2) regular h-ASPL bound");
  }
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
      HostMetrics metrics = compute_host_metrics(graph);
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

  // The seed walk solve_by_steps (perfbench/) reproduces: split once, draw
  // the initial graph, then rung 0's seed.
  Xoshiro256 rng = Xoshiro256(options.seed).split();
  const HostSwitchGraph initial = options.regular_start
                                      ? random_regular_host_switch_graph(n, m, r, rng)
                                      : random_host_switch_graph(n, m, r, rng);
  // The rungs split the move budget, so runs at the same --iters spend the
  // same total number of moves whatever K is.
  AnnealOptions anneal_options;
  anneal_options.iterations =
      std::max<std::uint64_t>(1, options.iterations / options.replicas);
  anneal_options.seed = rng();
  anneal_options.mode = options.mode;
  anneal_options.pool = options.pool;
  anneal_options.trace_every = options.trace_every;
  anneal_options.replicas = options.replicas;
  anneal_options.swap_interval = options.swap_interval;
  AnnealResult annealed = anneal(initial, anneal_options);

  SolveResult result{.graph = std::move(annealed.best),
                     .metrics = annealed.best_metrics,
                     .switch_count = m,
                     .predicted_m_opt = m_opt,
                     .haspl_lower_bound = haspl_lower_bound(n, r),
                     .continuous_moore_bound = continuous_haspl_moore_bound(n, m, r),
                     .used_clique = false,
                     .interrupted = annealed.interrupted,
                     .sa_trace = std::move(annealed.trace)};
  solve_span.arg("method", "sa");
  solve_span.arg("haspl", result.metrics.h_aspl);
  check_paper_bounds(result, n, r);
  return result;
}

}  // namespace orp
