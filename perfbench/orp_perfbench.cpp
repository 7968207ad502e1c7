// End-to-end benchmark of the ORP toolkit at the paper's instance: order
// n = 1024, radix r = 16, m = m_opt = 183 switches (§5.3, §6.2).
//
//   orp_perfbench --workload design|replica|evaluate|faults --seed N
//                 --seconds S --trace 0|1 --out-dir DIR
//
// One process runs one workload as a closed loop with one client: the next
// operation starts when the previous one returns. Every input derives from
// --seed; the library receives generated graphs and seeds only. Every
// operation's output is checked, and a failed check is printed by name on
// stderr. The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0), whose timings are scaled to
// reference speed (SpeedReference), or the per-layer metrics (--trace 1);
// the line before it carries the workload's named metrics in unscaled wall
// time and the run's provenance. perfbench/README.md defines every metric.
//
// A --trace 1 run alternates untraced and traced rounds of the same work.
// In a traced round the JSONL tracer runs and every call into a library
// layer is bracketed by its own obs::Span (LayerCall below), which also
// charges the call's wall time to the layer. Counts come from the counters
// src/ already exports (obs::Registry). Nothing inside src/ is changed.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "cost/evaluate.hpp"
#include "fault/degraded.hpp"
#include "fault/events.hpp"
#include "fault/model.hpp"
#include "hsg/bounds.hpp"
#include "hsg/metrics.hpp"
#include "obs/bench/provenance.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partition.hpp"
#include "search/annealer_core.hpp"
#include "search/random_init.hpp"
#include "search/solver.hpp"
#include "sim/machine.hpp"
#include "sim/nas.hpp"
#include "topo/attach.hpp"

namespace {

using namespace orp;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kHosts = 1024;
constexpr std::uint32_t kRadix = 16;
constexpr std::uint64_t kHostPairs = std::uint64_t{kHosts} * (kHosts - 1) / 2;
// SA move budget of one design/replica solve. For the pool backend it is
// the total over the K replicas, so both workloads do equal work.
constexpr std::uint64_t kSolveMoves = 20000;
constexpr std::uint32_t kReplicas = 4;
// Moves per SaChain::run call when a traced round drives solve_orp's steps.
constexpr std::uint64_t kChainChunk = 2000;
// Move budget of the topology that evaluate and faults solve in set-up.
constexpr std::uint64_t kTopologyMoves = 5000;
constexpr int kSetupReps = 3;
// haspl_gap_pct of design/replica averages the first kQualitySolves
// solves, so it is fixed for a seed however many solves fit in the run.
constexpr std::size_t kQualitySolves = 8;
// Every run makes at least this many rounds, however slow the machine.
constexpr std::size_t kMinRounds = 8;
constexpr std::size_t kTailBeyond = 10;
// Each design/replica solution is re-evaluated from scratch this many
// times: the check, and the aux series (the hsg full kernel on solved
// paper-size graphs) with enough samples for its tail.
constexpr int kChecksPerSolve = 10;
constexpr double kNasFraction = 0.1;
constexpr std::size_t kTrialsPerBlock = 200;
constexpr std::uint64_t kAlltoallBytes = 4096;
// Faulted collective: ~2% of links fail spread over the first 80% of the
// healthy collective's simulated duration; each comes back 10% later.
constexpr double kFaultedLinkRate = 0.02;
constexpr double kFaultWindow = 0.8;
constexpr double kRepairDelay = 0.1;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The highest percentile with at least kTailBeyond samples beyond it: the
/// sorted sample at index n - 11. Shorter series report their minimum.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t index = n > kTailBeyond ? n - kTailBeyond - 1 : 0;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

// ---- output --------------------------------------------------------------

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += obs::json_escape(text);
  out += '"';
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- output checks -------------------------------------------------------

/// Counts operations and the ones with a failed check. Failed checks are
/// kept by name and printed at the end of the run.
class Checks {
 public:
  void expect(bool ok, const std::string& name) {
    if (ok) return;
    ++failures_[name];
    op_failed_ = true;
  }
  /// Closes one operation.
  void end_op() {
    ++attempted_;
    if (op_failed_) ++failed_;
    op_failed_ = false;
  }
  /// Runs one operation; an exception fails it under `op`'s name.
  template <class Body>
  void op(const char* name, Body&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      expect(false, std::string(name) + " threw: " + e.what());
    }
    end_op();
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::uint64_t>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool op_failed_ = false;
  std::map<std::string, std::uint64_t> failures_;
};

// ---- layer account -------------------------------------------------------

/// Nanoseconds the hsg metric kernels have spent so far, from the
/// histograms src/ records: annealer.eval_ns times each incremental
/// evaluation, aspl.kernel.*.ns each from-scratch compute_host_metrics. On
/// the paths LayerCall splits (serial, and never through anneal(), which
/// also times its initial full evaluation as eval_ns) the two never overlap.
std::uint64_t hsg_kernel_ns() {
  auto& registry = obs::Registry::global();
  static obs::Histogram& delta = registry.histogram("annealer.eval_ns");
  static obs::Histogram& bits = registry.histogram("aspl.kernel.bitparallel.ns");
  static obs::Histogram& scalar = registry.histogram("aspl.kernel.scalar.ns");
  return delta.sample().sum + bits.sample().sum + scalar.sample().sum;
}

/// Where the wall time of a run's traced rounds went, by layer. Calls do
/// not nest, so the layers' times plus the residual (the benchmark's own
/// work between calls) partition the traced wall time exactly.
struct Account {
  /// Moves the hsg kernel time measured inside a call to hsg. Only valid
  /// when every call runs its kernels on the calling thread.
  bool split_hsg = true;
  std::map<std::string, double> layer_ns;
  std::map<std::string, std::vector<double>> call_ms;  ///< by span name
  double wall_ns = 0.0;
  std::vector<double> traced_round_ms, untraced_round_ms;
  bool in_call = false;

  std::vector<double> calls(const std::string& name) const {
    const auto it = call_ms.find(name);
    return it == call_ms.end() ? std::vector<double>{} : it->second;
  }
  double total_ms(const std::string& name) const {
    double sum = 0.0;
    for (const double v : calls(name)) sum += v;
    return sum;
  }
};

/// One call into a library layer: an obs::Span named `name` in category
/// `layer`, and, when `account` is set, its wall time charged to `layer`.
/// `layer` and `name` must be string literals (obs::Span keeps them).
class LayerCall {
 public:
  LayerCall(Account* account, const char* layer, const char* name)
      : span_(name, layer), account_(account), layer_(layer), name_(name) {
    if (!account_) return;
    if (account_->in_call) throw std::logic_error("layer calls must not nest");
    account_->in_call = true;
    split_ = account_->split_hsg && layer_ != "hsg";
    if (split_) hsg_before_ = hsg_kernel_ns();
    start_ = Clock::now();
  }
  ~LayerCall() {
    if (!account_) return;
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start_).count();
    const double hsg =
        split_ ? std::min(ns, static_cast<double>(hsg_kernel_ns() - hsg_before_)) : 0.0;
    account_->layer_ns[layer_] += ns - hsg;
    account_->layer_ns["hsg"] += hsg;
    account_->call_ms[name_].push_back(ns / 1e6);
    account_->in_call = false;
  }
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  obs::Span span_;  // first member: the span encloses the timed interval
  Account* account_;
  std::string layer_;
  const char* name_;
  bool split_ = false;
  std::uint64_t hsg_before_ = 0;
  Clock::time_point start_;
};

// ---- machine speed -------------------------------------------------------

/// A fixed reference computation timed before every round and set-up. On a
/// shared host the vCPU's speed drifts by up to a third over minutes as
/// other tenants load it, and every timing drifts with it. The gated
/// metrics are therefore wall times scaled to a machine on which the
/// reference takes kNominalMs: time x kNominalMs / (median reference time
/// of the run). The named metrics stay unscaled wall time. The reference is
/// the geometric mean of two kernels that slow with the contention the
/// workloads feel: a dependent walk around a 64 KiB random cycle (cache
/// latency) and bitset sweeps shaped like the metric kernels' BFS (ALU and
/// L1). Of the kernels tried, this pair tracked the solves' drift best.
class SpeedReference {
 public:
  static constexpr double kNominalMs = 3.0;

  SpeedReference() : next_(std::size_t{1} << 14), rows_(kRows * kWords, kBitsSeed) {
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
    Xoshiro256 rng(kBitsSeed);
    for (std::size_t i = next_.size() - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.below(i)]);
    }
  }
  /// Times the reference three times.
  void sample() {
    for (int rep = 0; rep < 3; ++rep) samples_ms_.push_back(std::sqrt(walk_ms() * sweep_ms()));
  }
  double median_ms() const { return median(samples_ms_); }
  /// Factor that turns this run's wall times into reference-speed times.
  double scale() const { return kNominalMs / median_ms(); }

 private:
  static constexpr std::size_t kRows = 192;
  static constexpr std::size_t kWords = 4;
  static constexpr std::uint64_t kBitsSeed = 0x0123456789abcdefULL;

  double walk_ms() {
    const auto t0 = Clock::now();
    std::uint32_t at = position_;
    for (std::size_t step = 0; step < (std::size_t{1} << 19); ++step) at = next_[at];
    position_ = at;
    sink_ = at;  // a volatile store: the walk cannot be optimized away
    return ms_since(t0);
  }
  double sweep_ms() {
    const auto t0 = Clock::now();
    std::uint64_t count = 0;
    for (std::size_t pass = 0; pass < 1000; ++pass) {
      for (std::size_t r = 0; r < kRows; ++r) {
        const std::size_t other = (r * 7 + pass) % kRows;
        for (std::size_t w = 0; w < kWords; ++w) {
          const std::uint64_t v = rows_[r * kWords + w] | rows_[other * kWords + w];
          rows_[r * kWords + w] = v ^ (v >> 3);
          count += static_cast<std::uint64_t>(std::popcount(v));
        }
      }
    }
    sink_ = count;
    return ms_since(t0);
  }

  std::vector<std::uint32_t> next_;
  std::uint32_t position_ = 0;
  std::vector<std::uint64_t> rows_;
  volatile std::uint64_t sink_ = 0;
  std::vector<double> samples_ms_;
};

// ---- the run -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

/// Everything a workload reports.
struct Report {
  Checks checks;
  std::vector<Metric> end_to_end;  ///< the gated set, in BENCHMARK.json order
  std::vector<Metric> named;       ///< the workload's own metric names
  std::vector<std::string> notes;  ///< extra JSON members for the named line
  Account account;
  std::map<std::string, double> layer;  ///< per-layer metrics measured
  std::size_t pool_threads = 0;
  SpeedReference reference;
  obs::MetricsSnapshot snapshot;  ///< the registry when the rounds ended
};

/// Runs rounds until `seconds` have passed and at least `min_rounds` ran,
/// sampling the speed reference before each. Without an account every
/// round is untraced. With one, odd rounds run with the tracer on and pass
/// the account to `round`; even rounds are the untraced reference for
/// obs.trace_overhead_pct.
void run_rounds(const Args& args, std::size_t min_rounds, Report& report,
                const std::function<void(Account*)>& round) {
  Account* account = args.trace ? &report.account : nullptr;
  const auto start = Clock::now();
  const std::string trace_path =
      (std::filesystem::path(args.out_dir) / ("trace-" + args.workload + ".jsonl")).string();
  for (std::size_t i = 0; i < min_rounds || ms_since(start) < args.seconds * 1e3; ++i) {
    report.reference.sample();
    const bool traced = account && i % 2 == 1;
    if (traced && !obs::Tracer::global().start(trace_path)) {
      throw std::runtime_error("cannot open trace file " + trace_path);
    }
    const auto t0 = Clock::now();
    round(traced ? account : nullptr);
    const double ms = ms_since(t0);
    if (traced) {
      obs::Tracer::global().stop();
      account->wall_ns += ms * 1e6;
      account->traced_round_ms.push_back(ms);
    } else if (account) {
      account->untraced_round_ms.push_back(ms);
    }
  }
}

/// Median of kSetupReps timed repetitions of a workload's set-up, in seconds.
double timed_setup(Report& report, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    report.reference.sample();
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(ms_since(t0) / 1e3);
  }
  return median(seconds);
}

std::uint32_t paper_m() { return optimal_switch_count(kHosts, kRadix); }

double haspl_gap_pct(double haspl) {
  const double bound = haspl_lower_bound(kHosts, kRadix);
  return 100.0 * (haspl - bound) / bound;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

double snapshot_counter(const obs::MetricsSnapshot& snapshot, std::string_view name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

obs::HistogramSample snapshot_histogram(const obs::MetricsSnapshot& snapshot,
                                        std::string_view name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return h;
  }
  return {};
}

/// Checks of a design/replica solve: the graph's invariants, the paper's
/// Theorem 1 and 2 bounds, and the reported metrics against `evals`
/// from-scratch evaluations, whose wall times (ms) it appends to `eval_ms`.
void check_solution(const HostSwitchGraph& graph, const HostMetrics& reported,
                    Checks& checks, Account* account, int evals,
                    std::vector<double>& eval_ms) {
  try {
    graph.check_invariants();
  } catch (const std::logic_error& e) {
    checks.expect(false, std::string("graph invariants: ") + e.what());
  }
  checks.expect(graph.num_hosts() == kHosts && graph.num_switches() == paper_m() &&
                    graph.fully_attached(),
                "solution has n=1024 hosts, all attached, on m_opt switches");
  checks.expect(reported.connected, "solution is connected");
  checks.expect(reported.h_aspl >= haspl_lower_bound(kHosts, kRadix),
                "h-ASPL >= Theorem 2 bound");
  checks.expect(reported.diameter >= diameter_lower_bound(kHosts, kRadix),
                "diameter >= Theorem 1 bound");
  for (int i = 0; i < evals; ++i) {
    const auto t0 = Clock::now();
    HostMetrics full;
    {
      LayerCall call(account, "hsg", "perfbench.hsg.check");
      full = compute_host_metrics(graph);
    }
    eval_ms.push_back(ms_since(t0));
    checks.expect(full.total_length == reported.total_length &&
                      full.h_aspl == reported.h_aspl &&
                      full.diameter == reported.diameter &&
                      full.connected_pairs == reported.connected_pairs &&
                      full.unreachable_pairs == reported.unreachable_pairs,
                  "reported metrics equal a from-scratch compute_host_metrics");
  }
}

struct SolveOutcome {
  HostSwitchGraph graph;
  HostMetrics metrics;
  std::uint64_t evaluations = 0;
  std::uint64_t accepted = 0;
};

/// solve_orp(1024, 16) with the serial backend, driven step by step through
/// the public functions it calls, each step in its own LayerCall. The walk
/// is identical to solve_orp's for the same seed (checked by the caller).
SolveOutcome solve_by_steps(std::uint64_t seed, Account* account) {
  AnnealOptions options;
  options.iterations = kSolveMoves;
  std::optional<HostSwitchGraph> initial;
  {
    LayerCall call(account, "search", "perfbench.search.init");
    const std::uint32_t m = optimal_switch_count(kHosts, kRadix);
    Xoshiro256 rng = Xoshiro256(seed).split();
    initial.emplace(random_host_switch_graph(kHosts, m, kRadix, rng));
    options.seed = rng();
  }
  HostMetrics initial_metrics;
  {
    LayerCall call(account, "hsg", "perfbench.hsg.full_eval");
    initial_metrics = compute_host_metrics(*initial);
  }
  SaChain::Config config;
  {
    LayerCall call(account, "search", "perfbench.search.calibrate");
    config.schedule = calibrate_schedule(*initial, initial_metrics, options);
  }
  std::optional<SaChain> chain;
  {
    LayerCall call(account, "search", "perfbench.search.chain");
    chain.emplace(*initial, initial_metrics, options, config);
  }
  while (!chain->finished()) {
    LayerCall call(account, "search", "perfbench.search.chain");
    chain->run(kChainChunk);
  }
  chain->finish_telemetry();
  const std::uint64_t evaluations = chain->evaluations();
  const std::uint64_t accepted = chain->accepted();
  AnnealResult result = chain->take_result();
  return {std::move(result.best), result.best_metrics, evaluations, accepted};
}

SolveOptions solve_options(std::uint64_t seed, ThreadPool* pool) {
  SolveOptions options;
  options.iterations = kSolveMoves;
  options.seed = seed;
  if (pool) {
    options.backend = SearchBackend::kPool;
    options.replicas = kReplicas;
    options.pool = pool;
  }
  return options;
}

// ---- design / replica ----------------------------------------------------

void run_solves(const Args& args, bool replica, Report& report) {
  Checks& checks = report.checks;
  const std::size_t threads =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  std::unique_ptr<ThreadPool> pool;
  // Set-up: the pool (replica) and one short warm-up solve from the
  // workload seed (lazy allocations, page faults).
  const double setup_s = timed_setup(report, [&] {
    pool.reset();
    if (replica) pool = std::make_unique<ThreadPool>(threads - 1);  // + caller
    SolveOptions warm = solve_options(args.seed, pool.get());
    warm.iterations = 1000;
    const SolveResult result = solve_orp(kHosts, kRadix, warm);
    checks.expect(result.switch_count == paper_m() && !result.used_clique,
                  "solve_orp(1024, 16) anneals at m_opt = 183");
  });
  checks.end_op();  // the set-up's checks count as one operation
  report.pool_threads = replica ? threads : 1;

  Xoshiro256 seeds(args.seed);
  std::vector<double> solve_ms, check_ms, gaps;
  double accepted = 0.0, evaluations = 0.0;
  report.account.split_hsg = !replica;  // replica kernels run on pool threads
  obs::Registry::global().reset();

  // In a traced design run every round drives solve_orp's steps itself;
  // the first round's seed is then solved by solve_orp too, and the two
  // must agree bit for bit, so the breakdown describes the real path.
  std::uint64_t first_seed = 0;
  double first_haspl = 0.0;
  const bool by_steps = args.trace && !replica;
  run_rounds(args, kMinRounds, report, [&](Account* acc) {
    const std::uint64_t seed = seeds();
    checks.op(replica ? "replica solve" : "design solve", [&] {
      const auto t0 = Clock::now();
      std::optional<HostSwitchGraph> graph;
      HostMetrics metrics;
      if (by_steps) {
        SolveOutcome outcome = solve_by_steps(seed, acc);
        accepted += static_cast<double>(outcome.accepted);
        evaluations += static_cast<double>(outcome.evaluations);
        graph.emplace(std::move(outcome.graph));
        metrics = outcome.metrics;
      } else {
        LayerCall call(acc, "search", "perfbench.search.solve");
        SolveResult result = solve_orp(kHosts, kRadix, solve_options(seed, pool.get()));
        graph.emplace(std::move(result.graph));
        metrics = result.metrics;
      }
      solve_ms.push_back(ms_since(t0));
      if (gaps.size() < kQualitySolves) gaps.push_back(haspl_gap_pct(metrics.h_aspl));
      if (solve_ms.size() == 1) {
        first_seed = seed;
        first_haspl = metrics.h_aspl;
      }
      check_solution(*graph, metrics, checks, acc, kChecksPerSolve, check_ms);
    });
  });
  report.snapshot = obs::Registry::global().snapshot();
  const obs::MetricsSnapshot& snapshot = report.snapshot;

  const double solve_p50 = median(solve_ms);
  std::vector<double> rates;
  for (const double ms : solve_ms) rates.push_back(static_cast<double>(kSolveMoves) / (ms / 1e3));
  const double moves_per_s = median(rates);
  const double gap = mean(gaps);
  report.end_to_end = {{"op_p50_ms", solve_p50, "ms"},
                       {"aux_p50_ms", median(check_ms), "ms"},
                       {"work_per_s", moves_per_s, "1/s"},
                       {"haspl_gap_pct", gap, "%"},
                       {"setup_s", setup_s, "s"}};
  report.named = {{"solve_p50_s", solve_p50 / 1e3, "s"},
                  {"moves_per_s", moves_per_s, "1/s"},
                  {"haspl_gap_pct", gap, "%"},
                  {"setup_s", setup_s, "s"}};
  report.notes.push_back("\"haspl_gap_solves\": " + std::to_string(gaps.size()));
  if (!args.trace) return;

  auto counter = [&](std::string_view name) { return snapshot_counter(snapshot, name); };
  const obs::HistogramSample eval = snapshot_histogram(snapshot, "annealer.eval_ns");
  auto& layer = report.layer;
  layer["hsg.delta_us_per_move"] =
      ratio(static_cast<double>(eval.sum), static_cast<double>(eval.count)) / 1e3;
  if (!replica) {
    const Account& acc = report.account;
    const double traced_moves =
        static_cast<double>(acc.calls("perfbench.search.init").size() * kSolveMoves);
    // Every round drove the steps itself, so eval_ns holds only the
    // chains' incremental evaluations (anneal() would add its initial one).
    const double chain_ms = acc.total_ms("perfbench.search.chain");
    layer["search.init_ms"] = median(acc.calls("perfbench.search.init"));
    layer["search.calibrate_ms"] = median(acc.calls("perfbench.search.calibrate"));
    layer["search.chain_us_per_move"] = ratio(chain_ms * 1e3, traced_moves);
    const double all_moves = static_cast<double>(solve_ms.size() * kSolveMoves);
    layer["search.move_us_per_move"] =
        layer["search.chain_us_per_move"] - ratio(static_cast<double>(eval.sum) / 1e3, all_moves);
    layer["search.accept_rate"] = ratio(accepted, evaluations);
    const double applies = counter("delta_eval.applies");
    layer["hsg.delta.fallback_share"] = ratio(counter("delta_eval.fallback"), applies);
    layer["hsg.delta.dirty_sources_per_apply"] = ratio(counter("delta_eval.dirty_sources"), applies);
    const SolveResult reference =
        solve_orp(kHosts, kRadix, solve_options(first_seed, nullptr));
    checks.expect(reference.metrics.h_aspl == first_haspl,
                  "step-driven solve matches solve_orp bit for bit");
    return;
  }
  // Replica: acceptance over the ladder's evaluations (one initial full
  // evaluation per solve is timed as eval_ns too), the exchange rate, the
  // pool's busy share, and the speedup over serial solves of the same seeds
  // (run after the snapshot, outside the account).
  const double solves = static_cast<double>(solve_ms.size());
  layer["search.accept_rate"] =
      ratio(counter("search.replica.accepted"), static_cast<double>(eval.count) - solves);
  layer["search.replica.swap_accept_rate"] =
      ratio(counter("search.replica.swaps.accepted"), counter("search.replica.swaps.attempted"));
  const obs::HistogramSample task = snapshot_histogram(snapshot, "threadpool.task_ns");
  double solve_total_ms = 0.0;
  for (const double ms : solve_ms) solve_total_ms += ms;
  layer["common.pool.busy_share"] =
      ratio(static_cast<double>(task.sum) / 1e6,
            static_cast<double>(pool->size()) * solve_total_ms);
  for (const auto& g : snapshot.gauges) {
    if (g.name == "threadpool.queue_depth") {
      layer["common.pool.queue_depth_max"] = static_cast<double>(g.max);
    }
  }
  Xoshiro256 again(args.seed);
  double pool_ms = 0.0, serial_ms = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::uint64_t seed = again();
    pool_ms += solve_ms[i];
    const auto t0 = Clock::now();
    const SolveResult serial = solve_orp(kHosts, kRadix, solve_options(seed, nullptr));
    serial_ms += ms_since(t0);
    checks.expect(serial.metrics.connected, "serial reference solve is connected");
  }
  layer["search.replica.speedup"] = ratio(serial_ms, pool_ms);
}

// ---- evaluate --------------------------------------------------------------

struct KernelCase {
  NasKernel kernel;
  const char* span;
  const char* metric;
  bool alltoall;  ///< FT/IS: one alltoall phase of ~1024 concurrent flows
};

constexpr KernelCase kKernels[] = {
    {NasKernel::kFT, "perfbench.sim.kernel.ft", "sim.kernel.ft_ms", true},
    {NasKernel::kIS, "perfbench.sim.kernel.is", "sim.kernel.is_ms", true},
    {NasKernel::kCG, "perfbench.sim.kernel.cg", "sim.kernel.cg_ms", false},
    {NasKernel::kMG, "perfbench.sim.kernel.mg", "sim.kernel.mg_ms", false},
    {NasKernel::kLU, "perfbench.sim.kernel.lu", "sim.kernel.lu_ms", false},
};

struct CutCase {
  std::uint32_t parts;
  const char* span;
  const char* metric;
};

constexpr CutCase kCuts[] = {
    {2, "perfbench.partition.cut.p2", "partition.cut_ms.p2"},
    {4, "perfbench.partition.cut.p4", "partition.cut_ms.p4"},
    {8, "perfbench.partition.cut.p8", "partition.cut_ms.p8"},
    {16, "perfbench.partition.cut.p16", "partition.cut_ms.p16"},
};

/// The topology evaluate and faults work on: solve_orp(1024, 16) at a
/// short budget from the workload seed, with DFS rank order.
struct Topology {
  HostSwitchGraph graph{kHosts, 1, kRadix};
  HostMetrics metrics;
  std::vector<HostId> rank_order;
  std::uint64_t cut_seed = 0;
};

Topology solve_topology(std::uint64_t seed, Checks& checks) {
  Xoshiro256 rng(seed ^ 0x70b0106e5eedULL);
  SolveOptions options = solve_options(rng(), nullptr);
  options.iterations = kTopologyMoves;
  SolveResult result = solve_orp(kHosts, kRadix, options);
  std::vector<double> unused_ms;
  check_solution(result.graph, result.metrics, checks, nullptr, 1, unused_ms);
  Topology topo;
  topo.rank_order = dfs_host_order(result.graph);
  topo.graph = std::move(result.graph);
  topo.metrics = result.metrics;
  topo.cut_seed = rng();
  return topo;
}

void run_evaluate(const Args& args, Report& report) {
  Checks& checks = report.checks;
  Topology topo;
  std::unique_ptr<Machine> machine;
  std::vector<double> build_ms;
  const double setup_s = timed_setup(report, [&] {
    topo = solve_topology(args.seed, checks);
    const auto t0 = Clock::now();
    machine = std::make_unique<Machine>(topo.graph, SimParams{}, topo.rank_order);
    build_ms.push_back(ms_since(t0));
  });
  checks.end_op();  // the set-up's checks count as one operation

  // Reference outputs of the first pass; later passes must match exactly.
  std::vector<double> ref_seconds;
  std::vector<std::uint64_t> ref_cuts;
  double ref_cost = 0.0;
  std::vector<double> pass_ms, alltoall_ms, halo_ms, flow_rates, kernel_wall_ms;
  std::map<std::string, std::vector<double>> kernel_ms;
  obs::Registry::global().reset();
  run_rounds(args, kMinRounds, report, [&](Account* acc) {
    checks.op("evaluation pass", [&] {
      // A pass is ~3 s, so the speed reference is also sampled before each
      // kernel; the pass time is the sum of the timed calls, without it.
      auto t0 = Clock::now();
      HostMetrics metrics;
      {
        LayerCall call(acc, "hsg", "perfbench.hsg.full_eval");
        metrics = compute_host_metrics(topo.graph);
      }
      double pass = ms_since(t0);
      checks.expect(metrics.total_length == topo.metrics.total_length &&
                        metrics.diameter == topo.metrics.diameter,
                    "topology metrics are identical across passes");
      const std::uint64_t flows_before = counter_value("sim.flows");
      std::vector<double> seconds, alltoall, halo;
      double wall = 0.0;
      for (const KernelCase& k : kKernels) {
        report.reference.sample();
        const auto k0 = Clock::now();
        NasResult result;
        {
          LayerCall call(acc, "sim", k.span);
          result = run_nas_kernel(*machine, k.kernel, NasOptions{kNasFraction});
        }
        const double ms = ms_since(k0);
        wall += ms;
        kernel_ms[k.metric].push_back(ms);
        (k.alltoall ? alltoall : halo).push_back(ms);
        checks.expect(std::isfinite(result.seconds) && result.seconds > 0.0,
                      std::string(k.metric) + ": simulated seconds finite and positive");
        seconds.push_back(result.seconds);
      }
      pass += wall;
      const std::uint64_t flows = counter_value("sim.flows") - flows_before;
      checks.expect(flows > 0, "sim.flows counter advances during the kernels");
      t0 = Clock::now();
      std::vector<std::uint64_t> cuts;
      for (const CutCase& c : kCuts) {
        LayerCall call(acc, "partition", c.span);
        cuts.push_back(host_switch_cut(topo.graph, c.parts, topo.cut_seed));
      }
      for (const std::uint64_t cut : cuts) checks.expect(cut > 0, "every cut is positive");
      NetworkCostReport cost;
      {
        LayerCall call(acc, "cost", "perfbench.cost.eval");
        cost = evaluate_network_cost(topo.graph);
      }
      checks.expect(std::isfinite(cost.total_cost_usd()) && cost.total_cost_usd() > 0.0,
                    "network cost finite and positive");
      pass_ms.push_back(pass + ms_since(t0));
      if (ref_seconds.empty()) {
        ref_seconds = seconds;
        ref_cuts = cuts;
        ref_cost = cost.total_cost_usd();
      }
      checks.expect(seconds == ref_seconds, "kernel simulated seconds identical across passes");
      checks.expect(cuts == ref_cuts, "cuts identical across passes");
      checks.expect(cost.total_cost_usd() == ref_cost, "cost identical across passes");
      alltoall_ms.push_back(mean(alltoall));
      halo_ms.insert(halo_ms.end(), halo.begin(), halo.end());
      kernel_wall_ms.push_back(wall);
      flow_rates.push_back(static_cast<double>(flows) / (wall / 1e3));
    });
  });
  report.snapshot = obs::Registry::global().snapshot();
  const obs::MetricsSnapshot& snapshot = report.snapshot;

  const double pass_p50 = median(pass_ms);
  const double halo_p50 = median(halo_ms);
  const Tail halo_tail = tail_of(halo_ms);
  const double flows_per_s = median(flow_rates);
  const double gap = haspl_gap_pct(topo.metrics.h_aspl);
  report.end_to_end = {{"op_p50_ms", pass_p50, "ms"},
                       {"aux_p50_ms", halo_p50, "ms"},
                       {"work_per_s", flows_per_s, "1/s"},
                       {"haspl_gap_pct", gap, "%"},
                       {"setup_s", setup_s, "s"}};
  report.named = {{"eval_pass_s", pass_p50 / 1e3, "s"},
                  {"alltoall_kernel_p50_ms", median(alltoall_ms), "ms"},
                  {"halo_kernel_p50_ms", halo_p50, "ms"},
                  {"halo_kernel_tail_ms", halo_tail.value, "ms"},
                  {"flows_per_s", flows_per_s, "1/s"},
                  {"setup_s", setup_s, "s"}};
  report.notes.push_back("\"halo_kernel_tail\": {\"percentile\": " +
                         json_number(halo_tail.percentile) + ", \"samples\": " +
                         std::to_string(halo_tail.samples) + "}");
  if (!args.trace) return;

  auto& layer = report.layer;
  const Account& acc = report.account;
  const double phase_ns = static_cast<double>(snapshot_histogram(snapshot, "sim.phase.solve_ns").sum);
  const double phases = snapshot_counter(snapshot, "sim.phases");
  const double flows = snapshot_counter(snapshot, "sim.flows");
  double all_kernel_ms = 0.0;
  for (const double ms : kernel_wall_ms) all_kernel_ms += ms;
  layer["sim.machine_build_ms"] = median(build_ms);
  layer["sim.phase_us"] = ratio(phase_ns, phases) / 1e3;
  layer["sim.flows_per_phase"] = ratio(flows, phases);
  layer["sim.outside_phase_share"] = 1.0 - ratio(phase_ns / 1e6, all_kernel_ms);
  for (const KernelCase& k : kKernels) layer[k.metric] = median(acc.calls(k.span));
  for (const CutCase& c : kCuts) layer[c.metric] = median(acc.calls(c.span));
  layer["cost.eval_us"] = median(acc.calls("perfbench.cost.eval")) * 1e3;
}

// ---- faults ----------------------------------------------------------------

FaultSpec trial_spec(std::uint64_t seed) {
  // The fault.* microbench mix: links 5%, switches 2%, cabinets of 4
  // switches 2%.
  FaultSpec spec;
  spec.link_failure_rate = 0.05;
  spec.switch_failure_rate = 0.02;
  spec.cabinet_outage_rate = 0.02;
  spec.switches_per_cabinet = 4;
  spec.seed = seed;
  return spec;
}

void run_faults(const Args& args, Report& report) {
  Checks& checks = report.checks;
  Topology topo;
  std::unique_ptr<Machine> pristine;
  double healthy_s = 0.0;
  std::vector<double> build_ms;
  // Set-up: the topology, its machine, and one healthy alltoall that sets
  // the fault schedule's time scale.
  const double setup_s = timed_setup(report, [&] {
    topo = solve_topology(args.seed, checks);
    const auto t0 = Clock::now();
    pristine = std::make_unique<Machine>(topo.graph, SimParams{}, topo.rank_order);
    build_ms.push_back(ms_since(t0));
    Machine probe = *pristine;
    healthy_s = probe.alltoall(kAlltoallBytes);
  });
  checks.expect(std::isfinite(healthy_s) && healthy_s > 0.0,
                "healthy alltoall takes finite positive time");
  checks.end_op();  // the set-up's checks count as one operation

  Xoshiro256 seeds(args.seed ^ 0xfa017ULL);
  std::vector<double> collective_ms, trial_ms, block_rates;
  std::vector<double> draw_us, apply_us, degraded_us;
  double faulted_ops = 0.0;
  obs::Registry::global().reset();
  std::uint64_t collective_flows = 0;
  run_rounds(args, kMinRounds, report, [&](Account* acc) {
    // A block of Monte-Carlo trials: draw -> apply -> evaluate_degraded.
    const auto b0 = Clock::now();
    for (std::size_t i = 0; i < kTrialsPerBlock; ++i) {
      const FaultSpec spec = trial_spec(seeds());
      checks.op("fault trial", [&] {
        const auto t0 = Clock::now();
        FaultSet faults;
        {
          LayerCall call(acc, "fault", "perfbench.fault.draw");
          faults = draw_faults(topo.graph, spec);
        }
        std::optional<DegradedGraph> degraded;
        {
          LayerCall call(acc, "fault", "perfbench.fault.apply");
          degraded.emplace(apply_faults(topo.graph, faults));
        }
        ResilienceReport rep;
        {
          LayerCall call(acc, "fault", "perfbench.fault.degraded_eval");
          rep = evaluate_degraded(topo.graph, faults);
        }
        trial_ms.push_back(ms_since(t0));
        checks.expect(rep.connected_pairs + rep.unreachable_pairs + rep.dead_pairs == kHostPairs,
                      "connected + unreachable + dead pairs = C(n,2)");
        checks.expect(rep.live_hosts == degraded->live_hosts &&
                          rep.dead_hosts == degraded->dead_hosts &&
                          rep.fault_fingerprint == faults.fingerprint(),
                      "degraded report agrees with apply_faults and the draw");
      });
    }
    block_rates.push_back(static_cast<double>(kTrialsPerBlock) / (ms_since(b0) / 1e3));

    // One alltoall with ~2% of links failing mid-collective and coming back.
    checks.op("faulted alltoall", [&] {
      std::optional<Machine> machine;
      {
        LayerCall call(acc, "sim", "perfbench.sim.machine_copy");
        machine.emplace(*pristine);
      }
      std::vector<FaultEvent> events;
      {
        LayerCall call(acc, "fault", "perfbench.fault.schedule");
        FaultSpec spec;
        spec.link_failure_rate = kFaultedLinkRate;
        spec.seed = seeds();
        const FaultSet faults = draw_faults(topo.graph, spec);
        events = schedule_fault_events(faults, 0.0, kFaultWindow * healthy_s, seeds());
        const std::size_t downs = events.size();
        for (std::size_t e = 0; e < downs; ++e) {
          events.push_back({events[e].time + kRepairDelay * healthy_s,
                            FaultEvent::Kind::kLinkUp, events[e].a, events[e].b});
        }
      }
      const std::uint64_t flows_before = counter_value("sim.flows");
      const auto t0 = Clock::now();
      double elapsed = 0.0;
      {
        LayerCall call(acc, "sim", "perfbench.sim.alltoall");
        machine->inject_faults(events);
        elapsed = machine->alltoall(kAlltoallBytes);
      }
      collective_ms.push_back(ms_since(t0));
      ++faulted_ops;
      const std::uint64_t flows = counter_value("sim.flows") - flows_before;
      collective_flows += flows;
      const Machine::PhaseStats& last = machine->last_phase_stats();
      checks.expect(std::isfinite(elapsed) && elapsed > 0.0,
                    "faulted alltoall takes finite positive time");
      checks.expect(last.completed + last.failed == last.flows,
                    "completed + failed = flows in the faulted phase");
      checks.expect(flows == std::uint64_t{kHosts} * (kHosts - 1),
                    "faulted alltoall moves n(n-1) flows");
      checks.expect(machine->fault_stats().events_applied == events.size(),
                    "every fault and repair event applied");
    });
  });
  report.snapshot = obs::Registry::global().snapshot();
  const obs::MetricsSnapshot& snapshot = report.snapshot;

  const double collective_p50 = median(collective_ms);
  const Tail collective_tail = tail_of(collective_ms);
  const double trials_per_s = median(block_rates);
  const double gap = haspl_gap_pct(topo.metrics.h_aspl);
  report.end_to_end = {{"op_p50_ms", collective_p50, "ms"},
                       {"aux_p50_ms", median(trial_ms), "ms"},
                       {"work_per_s", trials_per_s, "1/s"},
                       {"haspl_gap_pct", gap, "%"},
                       {"setup_s", setup_s, "s"}};
  report.named = {{"trials_per_s", trials_per_s, "1/s"},
                  {"faulted_collective_p50_ms", collective_p50, "ms"},
                  {"faulted_collective_tail_ms", collective_tail.value, "ms"},
                  {"setup_s", setup_s, "s"}};
  report.notes.push_back("\"faulted_collective_tail\": {\"percentile\": " +
                         json_number(collective_tail.percentile) + ", \"samples\": " +
                         std::to_string(collective_tail.samples) + "}");
  if (!args.trace) return;

  auto& layer = report.layer;
  const Account& acc = report.account;
  auto counter = [&](std::string_view name) { return snapshot_counter(snapshot, name); };
  layer["sim.machine_build_ms"] = median(build_ms);
  layer["sim.fault.rebuilds_per_op"] = ratio(counter("sim.fault.rebuilds"), faulted_ops);
  layer["sim.fault.retried_share"] =
      ratio(counter("sim.fault.retried_flows"), static_cast<double>(collective_flows));
  layer["sim.fault.failed_share"] =
      ratio(counter("sim.fault.failed_flows"), static_cast<double>(collective_flows));
  layer["fault.draw_us"] = median(acc.calls("perfbench.fault.draw")) * 1e3;
  layer["fault.apply_us"] = median(acc.calls("perfbench.fault.apply")) * 1e3;
  layer["fault.degraded_eval_us"] = median(acc.calls("perfbench.fault.degraded_eval")) * 1e3;
}

// ---- per-layer metrics -----------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports
/// all of them; a metric whose layer the workload never calls reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"search.init_ms", "ms"},
    {"search.calibrate_ms", "ms"},
    {"search.chain_us_per_move", "us"},
    {"search.move_us_per_move", "us"},
    {"search.accept_rate", "ratio"},
    {"search.replica.swap_accept_rate", "ratio"},
    {"search.replica.speedup", "ratio"},
    {"common.pool.busy_share", "ratio"},
    {"common.pool.queue_depth_max", "count"},
    {"hsg.delta_us_per_move", "us"},
    {"hsg.delta.fallback_share", "ratio"},
    {"hsg.delta.dirty_sources_per_apply", "count"},
    {"hsg.full_eval_ms", "ms"},
    {"sim.machine_build_ms", "ms"},
    {"sim.phase_us", "us"},
    {"sim.flows_per_phase", "count"},
    {"sim.outside_phase_share", "ratio"},
    {"sim.kernel.ft_ms", "ms"},
    {"sim.kernel.is_ms", "ms"},
    {"sim.kernel.cg_ms", "ms"},
    {"sim.kernel.mg_ms", "ms"},
    {"sim.kernel.lu_ms", "ms"},
    {"sim.fault.rebuilds_per_op", "count"},
    {"sim.fault.retried_share", "ratio"},
    {"sim.fault.failed_share", "ratio"},
    {"partition.cut_ms.p2", "ms"},
    {"partition.cut_ms.p4", "ms"},
    {"partition.cut_ms.p8", "ms"},
    {"partition.cut_ms.p16", "ms"},
    {"cost.eval_us", "us"},
    {"fault.draw_us", "us"},
    {"fault.apply_us", "us"},
    {"fault.degraded_eval_us", "us"},
    {"account.search_share", "ratio"},
    {"account.hsg_share", "ratio"},
    {"account.sim_share", "ratio"},
    {"account.partition_share", "ratio"},
    {"account.cost_share", "ratio"},
    {"account.fault_share", "ratio"},
    {"residual_share", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

/// Turns the account into layer shares plus the residual, checking that
/// they partition the traced wall time, and adds the metrics every traced
/// run shares: the trace overhead and the hsg full kernel's mean time.
void close_account(Report& report) {
  const Account& acc = report.account;
  auto& layer = report.layer;
  double charged = 0.0;
  bool nonnegative = true;
  for (const auto& [name, ns] : acc.layer_ns) {
    charged += ns;
    nonnegative = nonnegative && ns >= 0.0;
    layer["account." + name + "_share"] = ratio(ns, acc.wall_ns);
  }
  const double residual = acc.wall_ns - charged;
  layer["residual_share"] = ratio(residual, acc.wall_ns);
  report.checks.expect(acc.wall_ns > 0.0 && nonnegative && residual >= 0.0,
                       "layer times plus residual partition the traced wall time");
  double shares = layer["residual_share"];
  for (const auto& [name, ns] : acc.layer_ns) shares += ratio(ns, acc.wall_ns);
  report.checks.expect(std::abs(shares - 1.0) < 1e-9, "layer shares sum to 1");
  layer["obs.trace_overhead_pct"] =
      100.0 * (ratio(median(acc.traced_round_ms), median(acc.untraced_round_ms)) - 1.0);
  const obs::HistogramSample kernel =
      snapshot_histogram(report.snapshot, "aspl.kernel.bitparallel.ns");
  layer["hsg.full_eval_ms"] =
      ratio(static_cast<double>(kernel.sum), static_cast<double>(kernel.count)) / 1e6;
}

std::string provenance_json(const Report& report) {
  const obs::bench::Provenance p = obs::bench::collect_provenance();
  return "{\"nproc\": " + std::to_string(p.hardware_threads) +
         ", \"pool_threads\": " + std::to_string(report.pool_threads) +
         ", \"cpu_model\": " + json_string(p.cpu_model) +
         ", \"compiler\": " + json_string(p.compiler) +
         ", \"flags\": " + json_string(p.flags) +
         ", \"build_type\": " + json_string(p.build_type) +
         ", \"git_sha\": " + json_string(p.git_sha) +
         ", \"obs_disabled\": " + (p.obs_disabled ? "true" : "false") + "}";
}

int run(const Args& args) {
  Report report;
  if (args.workload == "design") {
    run_solves(args, false, report);
  } else if (args.workload == "replica") {
    run_solves(args, true, report);
  } else if (args.workload == "evaluate") {
    run_evaluate(args, report);
  } else if (args.workload == "faults") {
    run_faults(args, report);
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (args.trace) close_account(report);

  const Checks& checks = report.checks;
  const double rss = peak_rss_mb();
  const double error_rate =
      ratio(static_cast<double>(checks.failed()), static_cast<double>(checks.attempted()));
  report.end_to_end.push_back({"peak_rss_mb", rss, "MB"});
  report.named.push_back({"error_rate", error_rate, "ratio"});
  report.named.push_back({"peak_rss_mb", rss, "MB"});
  for (const auto& [name, count] : checks.failures()) {
    std::cerr << "perfbench: check failed " << count << "x: " << name << "\n";
  }

  // Gated timings at reference speed (see SpeedReference); rates scale
  // inversely. The named metrics above keep the unscaled wall times.
  const double scale = report.reference.scale();
  for (Metric& m : report.end_to_end) {
    if (m.unit == "ms" || m.unit == "s") m.value *= scale;
    if (m.unit == "1/s") m.value /= scale;
  }
  report.notes.push_back("\"reference_ms\": " + json_number(report.reference.median_ms()));

  std::vector<Metric> metrics;
  if (args.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = report.layer.find(m.name);
      metrics.push_back({m.name, it == report.layer.end() ? 0.0 : it->second, m.unit});
    }
  } else {
    metrics = report.end_to_end;
  }
  const bool correct = checks.failed() == 0 && checks.failures().empty();

  obs::ledger_note("workload", args.workload);
  obs::ledger_note("seed", static_cast<std::int64_t>(args.seed));
  obs::ledger_note("trace", static_cast<std::int64_t>(args.trace));
  for (const Metric& m : metrics) obs::ledger_note(m.name, m.value);
  obs::append_run_ledger();

  std::string named = "{\"workload\": " + json_string(args.workload) +
                      ", \"seed\": " + std::to_string(args.seed) +
                      ", \"trace\": " + (args.trace ? "1" : "0") +
                      ", \"provenance\": " + provenance_json(report) +
                      ", \"named\": " + metrics_json(report.named);
  for (const std::string& note : report.notes) named += ", " + note;
  std::cout << named << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed()
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("orp_perfbench",
                "end-to-end benchmark at the paper's n=1024, r=16 instance");
  cli.option("workload", "", "design | replica | evaluate | faults");
  cli.option("seed", "", "workload seed; every input derives from it");
  cli.option("seconds", "", "how long to measure");
  cli.option("trace", "0", "1 = traced run reporting the per-layer metrics");
  cli.option("out-dir", "perfbench/out", "directory for the trace file");
  try {
    if (!cli.parse(argc, argv)) return 0;
    obs::ledger_capture_argv(argc, argv);
    Args args;
    args.workload = cli.get("workload");
    const std::int64_t seed = cli.get_int("seed");
    const double seconds = cli.get_double("seconds");
    const std::int64_t trace = cli.get_int("trace");
    if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
      throw std::invalid_argument("need --seed >= 0, --seconds > 0, --trace 0|1");
    }
    args.seed = static_cast<std::uint64_t>(seed);
    args.seconds = seconds;
    args.trace = trace == 1;
    args.out_dir = cli.get("out-dir");
    std::filesystem::create_directories(args.out_dir);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "orp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
