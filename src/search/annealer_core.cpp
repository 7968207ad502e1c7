#include "search/annealer_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/shutdown.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/operations.hpp"

namespace orp {
namespace {

// Metric handles for the SA hot loop, resolved once per process. Counter
// names record the §5.2 move machinery: a swing either lands, or its
// completing swing lands (net effect: swap), or the solution is restored.
struct AnnealerInstruments {
  obs::Counter& swap_accepted;
  obs::Counter& swing_accepted;
  obs::Counter& completion_accepted;
  obs::Counter& restored;
  obs::Counter& rejected_disconnected;
  obs::Counter& audit_checks;
  obs::Histogram& eval_ns;

  static AnnealerInstruments& get() {
    auto& registry = obs::Registry::global();
    static AnnealerInstruments instance{
        registry.counter("annealer.swap.accepted"),
        registry.counter("annealer.swing.accepted"),
        registry.counter("annealer.completion.accepted"),
        registry.counter("annealer.restored"),
        registry.counter("annealer.rejected.disconnected"),
        registry.counter("annealer.audit.checks"),
        registry.histogram("annealer.eval_ns")};
    return instance;
  }
};

// Every kAuditInterval-th evaluation is checked against a from-scratch
// recompute; at the paper's size that costs ~0.1 % of a solve.
constexpr std::uint64_t kAuditInterval = 4096;

// Relative slack of the early Metropolis test. libm's exp is not promised
// monotone to the last ulp, so a bound's acceptance probability could read
// a few ulps below the final key's; rejecting early only above p * (1 +
// 2^-40) keeps every early rejection one that accepts() would make.
constexpr double kEarlyRejectSlack = 1.0 + 0x1p-40;

using EdgeList = std::vector<std::pair<SwitchId, SwitchId>>;

EdgeList collect_edges(const HostSwitchGraph& g) {
  EdgeList edges;
  edges.reserve(g.num_switch_edges());
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (SwitchId t : g.neighbors(s)) {
      if (s < t) edges.emplace_back(s, t);
    }
  }
  return edges;
}

void edge_list_remove(EdgeList& edges, SwitchId a, SwitchId b) {
  if (a > b) std::swap(a, b);
  const auto it = std::find(edges.begin(), edges.end(), std::make_pair(a, b));
  ORP_ASSERT(it != edges.end());
  *it = edges.back();
  edges.pop_back();
}

void edge_list_add(EdgeList& edges, SwitchId a, SwitchId b) {
  if (a > b) std::swap(a, b);
  edges.emplace_back(a, b);
}

void sync_swap(EdgeList& edges, const SwapMove& m) {
  edge_list_remove(edges, m.a, m.b);
  edge_list_remove(edges, m.c, m.d);
  edge_list_add(edges, m.a, m.c);
  edge_list_add(edges, m.b, m.d);
}

void sync_swing(EdgeList& edges, const SwingMove& m) {
  edge_list_remove(edges, m.a, m.b);
  edge_list_add(edges, m.a, m.c);
}

}  // namespace

TemperatureSchedule calibrate_schedule(const HostSwitchGraph& initial,
                                       const HostMetrics& initial_metrics,
                                       const AnnealOptions& options) {
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(initial.num_hosts()) * (initial.num_hosts() - 1) / 2;

  // Auto-calibrate the schedule: sample random moves from the start state
  // and scale T0 to the typical |delta| so the walk starts permissive and
  // ends effectively greedy. Without this, a fixed T0 is either a pure
  // random walk (T >> |delta|, e.g. large m) or pure descent (T << |delta|).
  TemperatureSchedule schedule;
  schedule.t_initial = options.initial_temperature;
  schedule.t_final = options.final_temperature;
  if (schedule.t_initial <= 0.0) {
    HostSwitchGraph probe_graph = initial;
    EdgeList edges = collect_edges(probe_graph);
    Xoshiro256 probe_rng(options.seed ^ 0xa5a5a5a5ULL);
    double abs_delta_sum = 0.0;
    int samples = 0;
    for (int i = 0; i < 24; ++i) {
      // Probe with the mode's own move type so the delta scale matches.
      HostMetrics probe;
      if (options.mode == MoveMode::kSwap) {
        const auto move = propose_swap(probe_graph, edges, probe_rng);
        if (!move) break;
        apply_swap(probe_graph, *move);
        probe = compute_host_metrics(probe_graph);
        apply_swap(probe_graph, move->inverse());
      } else {
        const auto move = propose_swing(probe_graph, edges, probe_rng);
        if (!move) break;
        apply_swing(probe_graph, *move);
        probe = compute_host_metrics(probe_graph);
        apply_swing(probe_graph, move->inverse());
      }
      if (probe.connected) {
        abs_delta_sum += std::abs(static_cast<double>(probe.total_length) -
                                  static_cast<double>(initial_metrics.total_length)) /
                         static_cast<double>(pairs);
        ++samples;
      }
    }
    const double mean_delta = samples ? abs_delta_sum / samples : 0.0;
    schedule.t_initial = std::max(2.0 * mean_delta, 1e-9);
  }
  if (schedule.t_final <= 0.0) schedule.t_final = schedule.t_initial / 1000.0;

  schedule.cooling =
      options.iterations > 1
          ? std::pow(schedule.t_final / schedule.t_initial,
                     1.0 / static_cast<double>(options.iterations - 1))
          : 1.0;
  return schedule;
}

SaChain::SaChain(const HostSwitchGraph& initial, const HostMetrics& initial_metrics,
                 const AnnealOptions& options, const Config& config)
    : options_(options),
      config_(config),
      current_(initial),
      edges_(collect_edges(initial)),
      current_metrics_(initial_metrics),
      delta_eval_(initial),
      rng_(options.seed),
      best_(initial),
      best_metrics_(initial_metrics) {
  ORP_REQUIRE(initial.fully_attached(), "anneal needs every host attached");
  ORP_REQUIRE(options.iterations > 0, "need at least one iteration");
  ORP_REQUIRE(initial_metrics.connected,
              "anneal needs a connected initial solution");

  pairs_ = static_cast<std::uint64_t>(current_.num_hosts()) *
           (current_.num_hosts() - 1) / 2;
  // Scalar optimization key. For the ORP objective it is the summed pair
  // length; for the Graph Golf ranking the diameter dominates via a weight
  // larger than any possible length sum (pairs * (diameter levels + 3)).
  diameter_weight_ =
      pairs_ * (static_cast<std::uint64_t>(current_.num_switches()) + 3);

  temperature_ = config_.schedule.t_initial;
  evaluations_ = 1;  // the initial evaluation the caller performed

  // Windowed telemetry cadence: one acceptance/temperature/h-ASPL sample
  // per `window_` iterations (only when a JSONL sink is active).
  window_ = options_.trace_every
                ? options_.trace_every
                : std::max<std::uint64_t>(1, options_.iterations / 64);
}

std::uint64_t SaChain::key_of(const HostMetrics& metrics) const noexcept {
  if (options_.objective == AnnealObjective::kDiameterThenHaspl) {
    return metrics.diameter * diameter_weight_ + metrics.total_length;
  }
  return static_cast<std::uint64_t>(metrics.total_length);
}

// Metropolis test on the objective delta. Disconnected candidates have
// infinite h-ASPL and are always rejected, without a draw.
bool SaChain::accepts(const HostMetrics& cand) {
  if (!cand.connected) {
    ORP_ASSERT(!drawn_);  // the evaluator only tests connected candidates
    AnnealerInstruments::get().rejected_disconnected.inc();
    return false;
  }
  const std::uint64_t cand_key = key_of(cand);
  const std::uint64_t current_key = key_of(current_metrics_);
  if (cand_key <= current_key) return true;
  const double delta =
      static_cast<double>(cand_key - current_key) / static_cast<double>(pairs_);
  return metropolis_draw() < std::exp(-delta / temperature());
}

double SaChain::metropolis_draw() {
  if (!drawn_) {
    draw_ = rng_.uniform();
    drawn_ = true;
  }
  return draw_;
}

// Early rejection (docs/search.md): the evaluator reports a lower bound on
// the candidate's total_length that only rises, for a candidate certain to
// stay connected. Once it exceeds the current key, accepts() would draw u
// for this candidate too, so u is drawn now; and a candidate whose bound
// already fails the test fails it at its final key, which is no smaller.
// The PRNG stream and every decision are those of a complete evaluation.
class SaChain::EarlyReject final : public DeltaHasplEvaluator::RejectTest {
 public:
  explicit EarlyReject(SaChain& chain)
      : chain_(chain), current_key_(chain.current_key()) {}

  bool rejects(std::uint64_t total_length_bound) override {
    if (total_length_bound <= current_key_) return false;
    const double delta = static_cast<double>(total_length_bound - current_key_) /
                         static_cast<double>(chain_.pairs_);
    return chain_.metropolis_draw() >=
           std::exp(-delta / chain_.temperature()) * kEarlyRejectSlack;
  }

 private:
  SaChain& chain_;
  std::uint64_t current_key_;
};

void SaChain::commit(const HostMetrics& cand) {
  current_metrics_ = cand;
  ++accepted_;
  if (key_of(cand) < key_of(best_metrics_)) {
    best_ = current_;
    best_metrics_ = cand;
  }
}

// Incremental h-ASPL evaluation: the evaluator mirrors `current_` and
// repairs its distance state per move. It is exact — every candidate's
// metrics equal a from-scratch compute_host_metrics (pinned by
// tests/hsg_delta_metrics_test.cpp), and every kAuditInterval-th evaluation
// is audited against a serial recompute outside the eval_ns timer.
std::optional<HostMetrics> SaChain::evaluate_move(const GraphDelta& delta,
                                                  bool may_stop_early) {
  drawn_ = false;
  std::optional<HostMetrics> cand;
  {
    obs::ScopedTimer timer(AnnealerInstruments::get().eval_ns);
    if (may_stop_early) {
      EarlyReject test(*this);
      cand = delta_eval_.apply_or_reject(delta, test);
    } else {
      cand = delta_eval_.apply(delta);
    }
  }
  if (++evaluations_ % kAuditInterval == 0) audit_due_ = true;
  if (audit_due_ && cand) {
    audit_evaluator();
    audit_due_ = false;
  }
  return cand;
}

void SaChain::audit_evaluator() const {
  AnnealerInstruments::get().audit_checks.inc();
  const HostMetrics got = delta_eval_.metrics();
  const HostMetrics want = compute_host_metrics(current_);
  ORP_REQUIRE(got.connected == want.connected &&
                  got.total_length == want.total_length &&
                  got.diameter == want.diameter &&
                  got.connected_pairs == want.connected_pairs &&
                  got.unreachable_pairs == want.unreachable_pairs &&
                  got.h_aspl == want.h_aspl,
              "delta evaluator disagrees with a from-scratch recompute");
}

// Called after `current_` has been restored: rejecting a move replays the
// evaluator's undo log (revert_last), which is much cheaper than an
// inverse repair. Frames nest, covering the 2-neighbor completion chain.
void SaChain::revert_move() { delta_eval_.revert_last(current_); }

void SaChain::emit_window(std::uint64_t at_iter) {
  if (!config_.emit_obs_window) return;
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  const double rate = window_moves_
                          ? static_cast<double>(window_accepted_) /
                                static_cast<double>(window_moves_)
                          : 0.0;
  // The iteration series lets orp_report map wall-clock positions (e.g.
  // "progress flat-lined at t") back to an iteration number.
  tracer.counter("annealer.iteration", static_cast<double>(at_iter), "search");
  tracer.counter("annealer.acceptance_rate", rate, "search");
  tracer.counter("annealer.temperature", temperature(), "search");
  tracer.counter("annealer.current_haspl", current_metrics_.h_aspl, "search");
  tracer.counter("annealer.best_haspl", best_metrics_.h_aspl, "search");
}

void SaChain::run_one_iteration() {
  AnnealerInstruments& instruments = AnnealerInstruments::get();
  if (options_.trace_every && iteration_ % options_.trace_every == 0) {
    trace_.push_back({iteration_, current_metrics_.h_aspl,
                      best_metrics_.h_aspl, temperature()});
  }
  if (iteration_ % window_ == 0) {
    emit_window(iteration_);
    window_moves_ = 0;
    window_accepted_ = 0;
  }
  ++window_moves_;

  // Any evaluation may stop early except under the diameter objective,
  // whose key has no cheap bound, and the 2-neighbor move's first swing,
  // whose complete state the completion swing builds on.
  const bool may_stop_early = options_.objective == AnnealObjective::kHaspl;

  if (options_.mode == MoveMode::kSwap) {
    const auto move = propose_swap(current_, edges_, rng_);
    if (!move) return;
    const GraphDelta delta = delta_of(*move);
    apply_swap(current_, *move);
    const std::optional<HostMetrics> cand = evaluate_move(delta, may_stop_early);
    if (cand && accepts(*cand)) {
      sync_swap(edges_, *move);
      commit(*cand);
      instruments.swap_accepted.inc();
      ++window_accepted_;
    } else {
      apply_swap(current_, move->inverse());
      revert_move();
      instruments.restored.inc();
    }
    return;
  }

  // kSwing and kTwoNeighborSwing both start with a swing proposal.
  const auto first = propose_swing(current_, edges_, rng_);
  if (!first) return;
  const GraphDelta first_delta = delta_of(*first);
  apply_swing(current_, *first);
  const std::optional<HostMetrics> one_neighbor =
      evaluate_move(first_delta, may_stop_early && options_.mode == MoveMode::kSwing);
  if (one_neighbor && accepts(*one_neighbor)) {
    sync_swing(edges_, *first);
    commit(*one_neighbor);
    instruments.swing_accepted.inc();
    ++window_accepted_;
    return;
  }
  if (options_.mode == MoveMode::kSwing) {
    apply_swing(current_, first->inverse());
    revert_move();
    instruments.restored.inc();
    return;
  }

  // 2-neighbor completion: try the swing that turns the pair into a swap.
  const auto completion = propose_completion_swing(current_, *first, rng_);
  if (completion) {
    const GraphDelta completion_delta = delta_of(*completion);
    apply_swing(current_, *completion);
    const std::optional<HostMetrics> two_neighbor =
        evaluate_move(completion_delta, may_stop_early);
    if (two_neighbor && accepts(*two_neighbor)) {
      sync_swing(edges_, *first);
      sync_swing(edges_, *completion);
      commit(*two_neighbor);
      instruments.completion_accepted.inc();
      ++window_accepted_;
      return;
    }
    apply_swing(current_, completion->inverse());
    revert_move();
  }
  apply_swing(current_, first->inverse());
  revert_move();
  instruments.restored.inc();
}

std::uint64_t SaChain::run(std::uint64_t count) {
  std::uint64_t ran = 0;
  while (ran < count && iteration_ < options_.iterations && !interrupted_) {
    if (shutdown_requested()) {
      // SIGINT/SIGTERM: wind down and hand back the best-so-far.
      interrupted_ = true;
      break;
    }
    run_one_iteration();
    ++iteration_;
    temperature_ *= config_.schedule.cooling;
    ++ran;
  }
  return ran;
}

void SaChain::swap_configuration(SaChain& a, SaChain& b) noexcept {
  std::swap(a.current_, b.current_);
  std::swap(a.edges_, b.edges_);
  std::swap(a.current_metrics_, b.current_metrics_);
  std::swap(a.delta_eval_, b.delta_eval_);
}

void SaChain::adopt(const HostSwitchGraph& g, const HostMetrics& metrics) {
  ORP_ASSERT(g.num_hosts() == current_.num_hosts() &&
             g.num_switches() == current_.num_switches());
  current_ = g;
  current_metrics_ = metrics;
  edges_ = collect_edges(current_);
  delta_eval_.rebuild(current_);
}

void SaChain::finish_telemetry() { emit_window(iteration_); }

AnnealResult SaChain::take_result() {
  return {.best = std::move(best_),
          .best_metrics = best_metrics_,
          .evaluations = evaluations_,
          .accepted = accepted_,
          .trace = std::move(trace_),
          .interrupted = interrupted_,
          .replicas = {},
          .round_best_haspl = {}};
}

}  // namespace orp
