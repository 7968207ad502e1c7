#include "search/annealer.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/annealer_core.hpp"

namespace orp {
namespace {

// Metric handles for the ladder machinery, resolved once per process
// (docs/search.md documents the schema).
struct ReplicaInstruments {
  obs::Counter& moves;
  obs::Counter& accepted;
  obs::Counter& swaps_attempted;
  obs::Counter& swaps_accepted;
  obs::Counter& restarts;
  obs::Gauge& best_ladder_pos;

  static ReplicaInstruments& get() {
    auto& registry = obs::Registry::global();
    static ReplicaInstruments instance{
        registry.counter("search.replica.moves"),
        registry.counter("search.replica.accepted"),
        registry.counter("search.replica.swaps.attempted"),
        registry.counter("search.replica.swaps.accepted"),
        registry.counter("search.replica.restarts"),
        registry.gauge("search.replica.best_ladder_pos")};
    return instance;
  }
};

}  // namespace

// K SaChains on a temperature ladder, run in swap_interval chunks with an
// exchange barrier after each chunk. The chains own the whole §5 move
// machinery (search/annealer_core.cpp); the engine contributes the span,
// the initial evaluation and the schedule calibration (once, shared by
// every rung), the exchanges, and the global-best broadcast.
AnnealResult anneal(const HostSwitchGraph& initial, const AnnealOptions& options) {
  ORP_REQUIRE(initial.fully_attached(), "anneal needs every host attached");
  ORP_REQUIRE(options.iterations > 0, "need at least one iteration");
  ORP_REQUIRE(options.initial_temperature >= 0 && options.final_temperature >= 0,
              "temperatures must be non-negative (0 = auto-calibrate)");
  ORP_REQUIRE(options.replicas >= 1, "need at least one replica");
  ORP_REQUIRE(options.swap_interval >= 1, "swap interval must be positive");

  const std::uint32_t replica_count = options.replicas;

  obs::Span span("search.anneal", "search");
  span.arg("iterations", options.iterations);
  span.arg("hosts", static_cast<std::uint64_t>(initial.num_hosts()));
  span.arg("switches", static_cast<std::uint64_t>(initial.num_switches()));
  span.arg("replicas", static_cast<std::uint64_t>(replica_count));
  span.arg("swap_interval", options.swap_interval);

  HostMetrics initial_metrics;
  {
    obs::ScopedTimer timer(obs::Registry::global().histogram("annealer.eval_ns"));
    initial_metrics = compute_host_metrics(initial);
  }
  ORP_REQUIRE(initial_metrics.connected,
              "anneal needs a connected initial solution");

  // One calibration, shared by every rung (rung k scales it by ladder[k]).
  SaChain::Config config;
  config.schedule = calibrate_schedule(initial, initial_metrics, options);
  const std::vector<double> ladder =
      temperature_ladder(replica_count, options.ladder_ratio);

  std::vector<SaChain> chains;
  chains.reserve(replica_count);
  for (std::uint32_t k = 0; k < replica_count; ++k) {
    AnnealOptions chain_options = options;
    chain_options.seed = replica_seed(options.seed, k);
    SaChain::Config chain_config = config;
    chain_config.temperature_scale = ladder[k];
    chain_config.emit_obs_window = (k == 0);
    chains.emplace_back(initial, initial_metrics, chain_options, chain_config);
  }

  // Dedicated exchange stream: swap decisions never perturb (or depend on)
  // any replica's own walk.
  Xoshiro256 exchange_rng(options.seed ^ 0x6a09e667f3bcc909ULL);

  std::vector<ReplicaStats> replica_stats(replica_count);
  std::vector<double> round_best;
  for (std::uint32_t k = 0; k < replica_count; ++k) {
    replica_stats[k].temperature_scale = ladder[k];
  }

  // The rung holding the global best, refreshed at every barrier in rung
  // order. Every state a replica ever visits is visited while held by some
  // rung, so the minimum over rung bests covers the whole population, and
  // the owner's own best IS the global best.
  std::uint64_t global_best_key = chains[0].best_key();
  std::uint32_t best_owner = 0;

  std::vector<std::uint64_t> prev_best_key(replica_count, global_best_key);
  std::vector<std::uint32_t> stalled_rounds(replica_count, 0);

  ThreadPool* pool = options.pool;
  const std::uint64_t per_replica = options.iterations;
  std::uint64_t done = 0;
  std::uint64_t round = 0;
  bool interrupted = false;

  while (done < per_replica && !interrupted) {
    const std::uint64_t chunk = std::min(options.swap_interval, per_replica - done);
    if (pool && replica_count > 1) {
      pool->parallel_for(replica_count,
                         [&](std::size_t k) { chains[k].run(chunk); });
    } else {
      for (SaChain& chain : chains) chain.run(chunk);
    }
    done += chunk;
    for (const SaChain& chain : chains) interrupted |= chain.interrupted();

    // ---- exchange barrier (single-threaded, rung order — deterministic).
    const bool more_rounds = done < per_replica && !interrupted;
    if (more_rounds) {
      for (const auto& [cold, hot] : swap_pairs_for_round(round, replica_count)) {
        ++replica_stats[cold].swaps_attempted;
        ++replica_stats[hot].swaps_attempted;
        const double exponent = exchange_exponent(
            chains[cold].energy(), chains[hot].energy(),
            chains[cold].temperature(), chains[hot].temperature());
        if (accept_exchange(exponent, exchange_rng)) {
          SaChain::swap_configuration(chains[cold], chains[hot]);
          ++replica_stats[cold].swaps_accepted;
          ++replica_stats[hot].swaps_accepted;
        }
      }
    }

    // Global-best reduction in rung order; strict < keeps the earliest
    // owner on ties so the reduction never depends on scheduling.
    for (std::uint32_t k = 0; k < replica_count; ++k) {
      if (chains[k].best_key() < global_best_key) {
        global_best_key = chains[k].best_key();
        best_owner = k;
      }
    }
    const SaChain& owner = chains[best_owner];
    round_best.push_back(owner.best_metrics().h_aspl);
    {
      obs::Tracer& tracer = obs::Tracer::global();
      if (tracer.enabled()) {
        tracer.counter("parallel.best_haspl", owner.best_metrics().h_aspl,
                       "search");
      }
    }

    // Stall bookkeeping + broadcast: a rung that has not improved its own
    // best in `stall_rounds` barriers and whose walk trails the global
    // best restarts from the owner's best (fresh evaluator, own PRNG
    // stream and temperature). k != best_owner, so the source is never
    // the chain being reset.
    for (std::uint32_t k = 0; k < replica_count; ++k) {
      if (chains[k].best_key() < prev_best_key[k]) {
        stalled_rounds[k] = 0;
      } else {
        ++stalled_rounds[k];
      }
      prev_best_key[k] = chains[k].best_key();
    }
    if (more_rounds && options.stall_rounds > 0) {
      for (std::uint32_t k = 0; k < replica_count; ++k) {
        if (k == best_owner || stalled_rounds[k] < options.stall_rounds ||
            chains[k].current_key() <= global_best_key) {
          continue;
        }
        chains[k].adopt(owner.best(), owner.best_metrics());
        stalled_rounds[k] = 0;
        ++replica_stats[k].restarts;
      }
    }
    ++round;
  }
  chains[0].finish_telemetry();

  // ---- result assembly (rung order; the tracked owner IS the final best).
  std::uint64_t total_evaluations = 0;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t total_swaps_attempted = 0;
  std::uint64_t total_swaps_accepted = 0;
  std::uint64_t total_restarts = 0;
  for (std::uint32_t k = 0; k < replica_count; ++k) {
    ReplicaStats& stats = replica_stats[k];
    stats.moves = chains[k].iteration();
    stats.accepted = chains[k].accepted();
    stats.best_haspl = chains[k].best_metrics().h_aspl;
    total_evaluations += chains[k].evaluations();
    total_accepted += stats.accepted;
    total_moves += stats.moves;
    total_swaps_attempted += stats.swaps_attempted;
    total_swaps_accepted += stats.swaps_accepted;
    total_restarts += stats.restarts;
  }

  AnnealResult result = chains[best_owner].take_result();
  result.evaluations = total_evaluations;
  result.accepted = total_accepted;
  result.interrupted = interrupted;
  result.replicas = std::move(replica_stats);
  result.round_best_haspl = std::move(round_best);
  result.best_replica = best_owner;

  ReplicaInstruments& instruments = ReplicaInstruments::get();
  instruments.moves.add(total_moves);
  instruments.accepted.add(total_accepted);
  instruments.swaps_attempted.add(total_swaps_attempted / 2);
  instruments.swaps_accepted.add(total_swaps_accepted / 2);
  instruments.restarts.add(total_restarts);
  instruments.best_ladder_pos.set(static_cast<std::int64_t>(best_owner));

  span.arg("evaluations", result.evaluations);
  span.arg("accepted", result.accepted);
  span.arg("rounds", round);
  span.arg("swaps_accepted", total_swaps_accepted / 2);
  span.arg("best_ladder_pos", static_cast<std::uint64_t>(best_owner));
  if (result.interrupted) span.arg("interrupted", std::uint64_t{1});
  span.arg("best_haspl", result.best_metrics.h_aspl);
  return result;
}

}  // namespace orp
