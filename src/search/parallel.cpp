#include "search/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/shutdown.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/annealer_core.hpp"

namespace orp {
namespace {

// Metric handles for the replica-exchange machinery, resolved once per
// process (docs/search.md documents the schema).
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

SearchBackend parse_search_backend(std::string_view name) {
  if (name == "serial") return SearchBackend::kSerial;
  if (name == "pool") return SearchBackend::kPool;
  throw std::invalid_argument("unknown search backend '" + std::string(name) +
                              "' (expected serial or pool)");
}

const char* search_backend_name(SearchBackend backend) noexcept {
  return backend == SearchBackend::kPool ? "pool" : "serial";
}

std::vector<double> temperature_ladder(std::uint32_t replicas, double ratio) {
  ORP_REQUIRE(replicas >= 1, "need at least one replica");
  ORP_REQUIRE(ratio == 0.0 || ratio >= 1.0,
              "ladder ratio must be >= 1 (or 0 = auto)");
  if (ratio <= 0.0) {
    // Hottest rung at 4x the base temperature regardless of K: wide enough
    // to hop basins the cold rung cannot, close enough that adjacent-rung
    // energy distributions overlap and exchanges actually land.
    ratio = replicas > 1
                ? std::pow(4.0, 1.0 / static_cast<double>(replicas - 1))
                : 1.0;
  }
  std::vector<double> scales(replicas);
  double scale = 1.0;
  for (std::uint32_t k = 0; k < replicas; ++k, scale *= ratio) scales[k] = scale;
  return scales;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> swap_pairs_for_round(
    std::uint64_t round, std::uint32_t replicas) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  if (replicas < 2) return pairs;
  pairs.reserve(replicas / 2);
  for (std::uint32_t i = round % 2 == 0 ? 0 : 1; i + 1 < replicas; i += 2) {
    pairs.emplace_back(i, i + 1);
  }
  return pairs;
}

double exchange_exponent(double energy_cold, double energy_hot,
                         double temp_cold, double temp_hot) noexcept {
  return (energy_cold - energy_hot) * (1.0 / temp_cold - 1.0 / temp_hot);
}

bool accept_exchange(double exponent, Xoshiro256& rng) {
  if (exponent >= 0.0) return true;
  return rng.bernoulli(std::exp(exponent));
}

std::uint64_t replica_seed(std::uint64_t seed, std::uint32_t k) noexcept {
  if (k == 0) return seed;  // rung 0 == the serial annealer's stream
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * k);
  return splitmix64_next(state);
}

ParallelAnnealResult parallel_anneal(const HostSwitchGraph& initial,
                                     const ParallelAnnealOptions& options) {
  const AnnealOptions& base = options.base;
  ORP_REQUIRE(initial.fully_attached(), "anneal needs every host attached");
  ORP_REQUIRE(base.iterations > 0, "need at least one iteration per replica");
  ORP_REQUIRE(base.initial_temperature >= 0 && base.final_temperature >= 0,
              "temperatures must be non-negative (0 = auto-calibrate)");
  ORP_REQUIRE(options.replicas >= 1, "need at least one replica");
  ORP_REQUIRE(options.swap_interval >= 1, "swap interval must be positive");

  const std::uint32_t replica_count = options.replicas;

  obs::Span span("search.parallel_anneal", "search");
  span.arg("replicas", static_cast<std::uint64_t>(replica_count));
  span.arg("swap_interval", options.swap_interval);
  span.arg("iterations_per_replica", base.iterations);
  span.arg("hosts", static_cast<std::uint64_t>(initial.num_hosts()));

  HostMetrics initial_metrics;
  {
    obs::ScopedTimer timer(obs::Registry::global().histogram("annealer.eval_ns"));
    initial_metrics = compute_host_metrics(initial, base.pool);
  }
  ORP_REQUIRE(initial_metrics.connected,
              "anneal needs a connected initial solution");

  // One calibration, shared by every rung (rung k scales it by ladder[k]).
  SaChain::Config config;
  config.schedule = calibrate_schedule(initial, initial_metrics, base);
  const std::vector<double> ladder =
      temperature_ladder(replica_count, options.ladder_ratio);

  std::vector<SaChain> chains;
  chains.reserve(replica_count);
  for (std::uint32_t k = 0; k < replica_count; ++k) {
    AnnealOptions chain_options = base;
    chain_options.seed = replica_seed(base.seed, k);
    // Replicas are the parallelism; their kernels stay serial so the
    // trajectory cannot depend on the pool size.
    chain_options.pool = nullptr;
    SaChain::Config chain_config = config;
    chain_config.temperature_scale = ladder[k];
    chain_config.emit_obs_window = (k == 0);
    chains.emplace_back(initial, initial_metrics, chain_options, chain_config);
  }

  // Dedicated exchange stream: swap decisions never perturb (or depend on)
  // any replica's own walk.
  Xoshiro256 exchange_rng(base.seed ^ 0x6a09e667f3bcc909ULL);

  std::vector<ReplicaStats> replica_stats(replica_count);
  std::vector<double> round_best;
  for (std::uint32_t k = 0; k < replica_count; ++k) {
    replica_stats[k].temperature_scale = ladder[k];
  }

  // Global best across the population, refreshed at every barrier in rung
  // order. Every state a replica ever visits is visited while held by some
  // rung, so the minimum over rung bests covers the whole population.
  HostSwitchGraph global_best = initial;
  HostMetrics global_best_metrics = initial_metrics;
  std::uint64_t global_best_key = chains[0].best_key();
  std::uint32_t best_owner = 0;

  std::vector<std::uint64_t> prev_best_key(replica_count, global_best_key);
  std::vector<std::uint32_t> stalled_rounds(replica_count, 0);

  ThreadPool* pool = base.pool;
  const std::uint64_t per_replica = base.iterations;
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
        global_best = chains[k].best();
        global_best_metrics = chains[k].best_metrics();
        best_owner = k;
      }
    }
    round_best.push_back(global_best_metrics.h_aspl);
    {
      obs::Tracer& tracer = obs::Tracer::global();
      if (tracer.enabled()) {
        tracer.counter("parallel.round", static_cast<double>(round), "search");
        tracer.counter("parallel.best_haspl", global_best_metrics.h_aspl,
                       "search");
      }
    }

    // Stall bookkeeping + broadcast: a rung that has not improved its own
    // best in `stall_rounds` barriers and whose walk trails the global
    // best restarts from the broadcast candidate (fresh evaluator, own
    // PRNG stream and temperature).
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
        chains[k].adopt(global_best, global_best_metrics);
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
  ParallelAnnealResult out{std::move(result), std::move(replica_stats),
                           std::move(round_best), best_owner};

  ReplicaInstruments& instruments = ReplicaInstruments::get();
  instruments.moves.add(total_moves);
  instruments.accepted.add(total_accepted);
  instruments.swaps_attempted.add(total_swaps_attempted / 2);
  instruments.swaps_accepted.add(total_swaps_accepted / 2);
  instruments.restarts.add(total_restarts);
  instruments.best_ladder_pos.set(static_cast<std::int64_t>(best_owner));

  span.arg("rounds", round);
  span.arg("swaps_accepted", total_swaps_accepted / 2);
  span.arg("best_ladder_pos", static_cast<std::uint64_t>(best_owner));
  if (out.result.interrupted) span.arg("interrupted", std::uint64_t{1});
  span.arg("best_haspl", out.result.best_metrics.h_aspl);
  return out;
}

}  // namespace orp
