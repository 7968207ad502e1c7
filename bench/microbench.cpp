// Microbenchmarks over the repo's hot paths, emitting the canonical
// BENCH_microbench.json perf trajectory (schema: docs/bench.md).
//
// Families:
//   aspl       — h-ASPL kernels, scalar BFS vs bit-parallel 64-source,
//                plus the paper-size bit-parallel kernel on 4 threads
//   annealer   — full SA move + evaluate + accept/rollback cycles per
//                neighborhood mode (ns/op covers a fixed 64-iteration run)
//   search     — the annealer with its delta (incremental) h-ASPL evaluator
//                at the headline n=256/r=12 config, plus the raw
//                evaluator apply+revert cycle (n=256/r=12 and the paper's
//                n=1024/r=16), plus replica-exchange
//                scaling (search.parallel.anneal_k{1,4,8}, fixed total
//                move budget split across the ladder)
//   sim        — Machine fluid-engine communication phases (collectives),
//                serial, plus the paper-size alltoall at 1 and 4 threads,
//                healthy and with links failing and coming back through
//                it, and the paper-size LU and FT kernels (replayed repeats)
//   partition  — multilevel partitioner stages: coarsening, FM refinement,
//                and the end-to-end k-way host+switch cut
//   fault      — resilience subsystem: seeded fault draws, degraded-graph
//                construction, and the full degraded h-ASPL evaluation
//
// `--quick` runs the CI-gated subset (small sizes, fewer repetitions);
// the full suite adds larger instances for local optimization work.
// Compare two runs with tools/bench_diff.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string_view>

#include "bench_util.hpp"
#include "fault/degraded.hpp"
#include "fault/events.hpp"
#include "fault/model.hpp"
#include "hsg/bounds.hpp"
#include "obs/bench/microbench.hpp"
#include "oracle/metrics_scalar.hpp"
#include "partition/coarsen.hpp"
#include "partition/fm.hpp"
#include "partition/partition.hpp"
#include "search/annealer.hpp"
#include "search/operations.hpp"
#include "search/random_init.hpp"

namespace {

using namespace orp;
using namespace orp::obs::bench;

constexpr std::uint64_t kSetupSeed = 42;

/// Deterministic graph shared by setups: random connected host-switch
/// graph at the paper's m_opt for (n, r).
HostSwitchGraph setup_graph(std::uint32_t n, std::uint32_t r) {
  Xoshiro256 rng(kSetupSeed);
  return random_host_switch_graph(n, optimal_switch_count(n, r), r, rng);
}

/// The feasible divisor of n closest to m_opt — regular graphs (the swap
/// benchmark's search space) need every switch to carry exactly n/m hosts.
std::uint32_t regular_switch_count(std::uint32_t n, std::uint32_t r) {
  const std::uint32_t m_opt = optimal_switch_count(n, r);
  std::uint32_t best = 0;
  for (std::uint32_t m = 1; m <= n; ++m) {
    if (n % m != 0 || !random_init_feasible(n, m, r)) continue;
    if (best == 0 || std::abs(static_cast<std::int64_t>(m) - m_opt) <
                         std::abs(static_cast<std::int64_t>(best) - m_opt)) {
      best = m;
    }
  }
  return best;
}

void register_aspl(BenchRegistry& registry) {
  // scalar_bfs measures the one-BFS-per-source test oracle (orp_oracle) so
  // the bit-parallel speedup stays quantified.
  struct Config {
    std::uint32_t n, r;
    bool scalar;
    const char* variant;
    bool quick;
  };
  for (const Config& c : {
           Config{256, 12, true, "scalar_bfs", true},
           Config{256, 12, false, "bit_parallel", true},
           Config{1024, 24, true, "scalar_bfs", false},
           Config{1024, 24, false, "bit_parallel", false},
       }) {
    registry.add({
        "aspl." + std::string(c.variant) + ".n" + std::to_string(c.n) + "_r" +
            std::to_string(c.r),
        "aspl",
        [c]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          return [graph, scalar = c.scalar] {
            const HostMetrics m = scalar ? compute_host_metrics_scalar(*graph)
                                         : compute_host_metrics(*graph);
            do_not_optimize(m.total_length);
          };
        },
        c.quick,
    });
  }
}

void register_annealer(BenchRegistry& registry) {
  // Each op is one anneal() call with a fixed 64-iteration budget and
  // pinned temperatures (auto-calibration off), i.e. 64 move + incremental
  // evaluation + accept/rollback cycles plus one initial evaluation.
  constexpr std::uint64_t kIters = 64;
  struct Config {
    std::uint32_t n, r;
    MoveMode mode;
    const char* variant;
    bool quick;
  };
  for (const Config& c : {
           Config{128, 12, MoveMode::kSwap, "swap", true},
           Config{128, 12, MoveMode::kSwing, "swing", true},
           Config{128, 12, MoveMode::kTwoNeighborSwing, "two_neighbor_swing", true},
           Config{512, 12, MoveMode::kTwoNeighborSwing, "two_neighbor_swing", false},
       }) {
    registry.add({
        "annealer." + std::string(c.variant) + ".n" + std::to_string(c.n) +
            "_r" + std::to_string(c.r) + "_it" + std::to_string(kIters),
        "annealer",
        [c]() -> BenchOp {
          // Swap explores regular graphs only; start it from one.
          Xoshiro256 rng(kSetupSeed);
          auto graph = std::make_shared<HostSwitchGraph>(
              c.mode == MoveMode::kSwap
                  ? random_regular_host_switch_graph(
                        c.n, regular_switch_count(c.n, c.r), c.r, rng)
                  : random_host_switch_graph(
                        c.n, optimal_switch_count(c.n, c.r), c.r, rng));
          return [graph, mode = c.mode] {
            AnnealOptions options;
            options.iterations = kIters;
            options.mode = mode;
            options.seed = kSetupSeed;
            options.initial_temperature = 0.05;
            options.final_temperature = 0.005;
            const AnnealResult result = anneal(*graph, options);
            do_not_optimize(result.evaluations);
          };
        },
        c.quick,
    });
  }
}

void register_search_delta(BenchRegistry& registry) {
  // Annealer move-eval throughput at n=256/r=12: one op is a 64-iteration
  // anneal() whose moves go through the delta evaluator (the pre-delta
  // per-move cost is a from-scratch evaluation, aspl.bit_parallel.*).
  // swap_cycle below is the evaluator's own per-move cost.
  constexpr std::uint64_t kIters = 64;
  struct Config {
    std::uint32_t n, r;
    bool quick;
  };
  for (const Config& c : {Config{256, 12, true}, Config{512, 12, false}}) {
    registry.add({
        "search.delta_eval.anneal_delta.n" + std::to_string(c.n) + "_r" +
            std::to_string(c.r) + "_it" + std::to_string(kIters),
        "search",
        [c]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          return [graph] {
            AnnealOptions options;
            options.iterations = kIters;
            options.mode = MoveMode::kTwoNeighborSwing;
            options.seed = kSetupSeed;
            options.initial_temperature = 0.05;
            options.final_temperature = 0.005;
            const AnnealResult result = anneal(*graph, options);
            do_not_optimize(result.evaluations);
          };
        },
        c.quick,
    });
  }

  // Raw evaluator cost without the annealer around it: one op = apply a
  // swap delta (incremental repair) and reject it via revert_last (undo-log
  // replay) — exactly the annealer's rejected-move path. Ops rotate through
  // a few hundred distinct pre-proposed deltas so branch predictors and
  // caches see the annealer's mix, not one memorized move. n1024_r16 is the
  // paper's headline size (m_opt = 183).
  struct Size {
    std::uint32_t n, r;
  };
  for (const Size& c : {Size{256, 12}, Size{1024, 16}}) {
    registry.add({
        "search.delta_eval.swap_cycle.n" + std::to_string(c.n) + "_r" +
            std::to_string(c.r),
        "search",
        [c]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          std::vector<std::pair<SwitchId, SwitchId>> edges;
          for (SwitchId s = 0; s < graph->num_switches(); ++s) {
            for (SwitchId t : graph->neighbors(s)) {
              if (s < t) edges.emplace_back(s, t);
            }
          }
          Xoshiro256 rng(kSetupSeed);
          auto deltas = std::make_shared<std::vector<GraphDelta>>();
          for (int i = 0; i < 512; ++i) {
            if (const auto move = propose_swap(*graph, edges, rng)) {
              deltas->push_back(delta_of(*move));
            }
          }
          auto eval = std::make_shared<DeltaHasplEvaluator>(*graph);
          auto next = std::make_shared<std::size_t>(0);
          return [graph, eval, deltas, next] {
            const GraphDelta& delta = (*deltas)[*next];
            *next = (*next + 1) % deltas->size();
            do_not_optimize(eval->apply(delta).total_length);
            eval->revert_last(*graph);
          };
        },
        true,
    });
  }
}

void register_search_parallel(BenchRegistry& registry) {
  // Replica-exchange scaling: one op = a full anneal() with a FIXED TOTAL
  // budget of 2048 moves split evenly across K rungs, fanned out over the
  // global thread pool. On a k-core runner anneal_k8 should approach
  // k-fold less wall time than anneal_k1 (equal total moves); single-core
  // runners still record the exchange-protocol overhead.
  constexpr std::uint64_t kTotalMoves = 2048;
  struct Config {
    std::uint32_t n, r, replicas;
    bool quick;
  };
  for (const Config& c : {
           Config{256, 12, 1, true},
           Config{256, 12, 4, true},
           Config{256, 12, 8, true},
           Config{512, 12, 1, false},
           Config{512, 12, 4, false},
           Config{512, 12, 8, false},
       }) {
    registry.add({
        "search.parallel.anneal_k" + std::to_string(c.replicas) + ".n" +
            std::to_string(c.n) + "_r" + std::to_string(c.r),
        "search",
        [c]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          return [graph, replicas = c.replicas] {
            AnnealOptions options;
            options.iterations = kTotalMoves / replicas;
            options.mode = MoveMode::kTwoNeighborSwing;
            options.seed = kSetupSeed;
            options.initial_temperature = 0.05;
            options.final_temperature = 0.005;
            options.pool = &ThreadPool::global();
            options.replicas = replicas;
            options.swap_interval = 64;
            const AnnealResult result = anneal(*graph, options);
            do_not_optimize(result.evaluations);
          };
        },
        c.quick,
    });
  }
}

void register_sim(BenchRegistry& registry) {
  // Series without a thread suffix run every round on the calling thread
  // (pool = nullptr), so their history keeps meaning one thread. The .tK
  // series run the paper's alltoall on K threads: the caller plus a pool
  // of K - 1 workers of their own.
  struct Config {
    std::uint32_t n, r;
    const char* collective;
    std::uint32_t threads;  ///< 0: no thread suffix, serial
    bool quick;
  };
  for (const Config& c : {
           Config{64, 12, "alltoall", 0, true},
           Config{64, 12, "allreduce", 0, true},
           Config{256, 12, "allreduce", 0, false},
           Config{256, 12, "alltoall", 0, true},
           Config{1024, 16, "alltoall", 1, true},
           Config{1024, 16, "alltoall", 4, true},
       }) {
    registry.add({
        std::string("sim.") + c.collective + ".n" + std::to_string(c.n) + "_r" +
            std::to_string(c.r) + (c.threads ? ".t" + std::to_string(c.threads) : ""),
        "sim",
        [c]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          std::shared_ptr<ThreadPool> pool;
          if (c.threads > 1) pool = std::make_shared<ThreadPool>(c.threads - 1);
          auto machine = std::make_shared<Machine>(*graph, SimParams{},
                                                   dfs_host_order(*graph), pool.get());
          const bool alltoall = std::string_view(c.collective) == "alltoall";
          return [pool, machine, alltoall] {
            machine->reset();
            const double elapsed =
                alltoall ? machine->alltoall(1024) : machine->allreduce(4096);
            do_not_optimize(elapsed);
          };
        },
        c.quick,
    });
  }
  // The paper's alltoall with perfbench's fault schedule: ~2% of links fail
  // spread over [0, 0.8 T) of the healthy collective's simulated duration T
  // and each comes back 0.1 T later. Each op runs it on a copy of a healthy
  // Machine, so every op starts with all events pending. On K threads:
  // the caller plus a pool of K - 1 workers of its own.
  for (const std::uint32_t threads : {1u, 4u}) {
    registry.add({
        "sim.alltoall_faulted.n1024_r16.t" + std::to_string(threads),
        "sim",
        [threads]() -> BenchOp {
          const HostSwitchGraph graph = setup_graph(1024, 16);
          std::shared_ptr<ThreadPool> pool;
          if (threads > 1) pool = std::make_shared<ThreadPool>(threads - 1);
          auto healthy = std::make_shared<Machine>(graph, SimParams{},
                                                   dfs_host_order(graph), pool.get());
          Machine probe = *healthy;
          const double T = probe.alltoall(1024);
          FaultSpec spec;
          spec.link_failure_rate = 0.02;
          spec.seed = kSetupSeed;
          std::vector<FaultEvent> events =
              schedule_fault_events(draw_faults(graph, spec), 0.0, 0.8 * T, kSetupSeed);
          const std::size_t downs = events.size();
          for (std::size_t e = 0; e < downs; ++e) {
            events.push_back({events[e].time + 0.1 * T, FaultEvent::Kind::kLinkUp,
                              events[e].a, events[e].b});
          }
          return [pool, healthy, events] {
            Machine machine = *healthy;
            machine.inject_faults(events);
            do_not_optimize(machine.alltoall(1024));
          };
        },
        true,
    });
  }
  // One RoutingTable build at the paper's instance (n = 1024, r = 16,
  // m = 183): port slots, the bit-parallel distance kernel, and the next-hop
  // pass. A faulted collective pays this once per fault event.
  registry.add({
      "sim.routing.build.n1024_r16",
      "sim",
      []() -> BenchOp {
        auto graph = std::make_shared<HostSwitchGraph>(setup_graph(1024, 16));
        return [graph] {
          const RoutingTable routes(*graph);
          do_not_optimize(routes.num_links());
        };
      },
      true,
  });
  // One NAS kernel per op at the paper's instance, iteration fraction 0.1,
  // on the default pool. run_nas_kernel() resets the Machine, so each op
  // simulates every distinct call once and replays its repeats
  // (docs/sim.md, "Replayed calls"): LU's 25 iterations repeat 124
  // wavefront phases, FT's two alltoalls are one.
  for (const auto& [name, kernel] :
       {std::pair{"lu", NasKernel::kLU}, std::pair{"ft", NasKernel::kFT}}) {
    registry.add({
        std::string("sim.nas.") + name + ".n1024_r16",
        "sim",
        [kernel]() -> BenchOp {
          const HostSwitchGraph graph = setup_graph(1024, 16);
          auto machine =
              std::make_shared<Machine>(graph, SimParams{}, dfs_host_order(graph));
          return [machine, kernel] {
            const NasResult result = run_nas_kernel(*machine, kernel, NasOptions{0.1});
            do_not_optimize(result.seconds);
          };
        },
        true,
    });
  }
}

void register_partition(BenchRegistry& registry) {
  struct Config {
    std::uint32_t n, r;
    bool quick;
  };
  for (const Config& c : {Config{512, 12, true}, Config{2048, 24, false}}) {
    const std::string size =
        ".n" + std::to_string(c.n) + "_r" + std::to_string(c.r);
    registry.add({
        "partition.coarsen" + size,
        "partition",
        [c]() -> BenchOp {
          auto csr = std::make_shared<CsrGraph>(
              csr_from_host_switch_graph(setup_graph(c.n, c.r)));
          return [csr] {
            Xoshiro256 rng(kSetupSeed);
            const auto chain = coarsen_chain(*csr, rng);
            do_not_optimize(chain.size());
          };
        },
        c.quick,
    });
    registry.add({
        "partition.fm_refine" + size,
        "partition",
        [c]() -> BenchOp {
          auto csr = std::make_shared<CsrGraph>(
              csr_from_host_switch_graph(setup_graph(c.n, c.r)));
          // A deliberately bad (random balanced) bisection: FM gets real
          // work every op, and the initial vector restores each call.
          auto side0 = std::make_shared<std::vector<std::uint8_t>>(
              csr->num_vertices());
          Xoshiro256 rng(kSetupSeed);
          for (std::size_t v = 0; v < side0->size(); ++v) {
            (*side0)[v] = static_cast<std::uint8_t>((v ^ rng()) & 1);
          }
          const std::uint64_t total = csr->total_vertex_weight();
          return [csr, side0, total] {
            std::vector<std::uint8_t> side = *side0;
            FmOptions options;
            options.max_side_weight[0] = total / 2 + total / 20 + 1;
            options.max_side_weight[1] = options.max_side_weight[0];
            const std::uint64_t cut = fm_refine(*csr, side, options);
            do_not_optimize(cut);
          };
        },
        c.quick,
    });
    registry.add({
        "partition.kway8" + size,
        "partition",
        [c]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          return [graph] {
            const std::uint64_t cut = host_switch_cut(*graph, 8, kSetupSeed);
            do_not_optimize(cut);
          };
        },
        c.quick,
    });
  }
  // The paper's bandwidth cuts at its instance (n = 1024, r = 16, m = 183):
  // P = 2, 4, 8 and 16 per op, as one perfbench `evaluate` pass runs them.
  registry.add({
      "partition.host_switch_cut.n1024_r16",
      "partition",
      []() -> BenchOp {
        auto graph = std::make_shared<HostSwitchGraph>(setup_graph(1024, 16));
        return [graph] {
          for (const std::uint32_t parts : {2u, 4u, 8u, 16u}) {
            do_not_optimize(host_switch_cut(*graph, parts, kSetupSeed));
          }
        };
      },
      true,
  });
}

void register_fault(BenchRegistry& registry) {
  // Ops rotate the spec seed so every draw/apply/eval sees a fresh fault
  // pattern (same mix the Monte-Carlo sweep produces) instead of a
  // memorized one.
  auto rotating_spec = [](std::shared_ptr<std::uint64_t> counter) {
    FaultSpec spec;
    spec.link_failure_rate = 0.05;
    spec.switch_failure_rate = 0.02;
    spec.cabinet_outage_rate = 0.02;
    spec.switches_per_cabinet = 4;
    spec.seed = ++*counter;
    return spec;
  };
  struct Config {
    std::uint32_t n, r;
    bool quick;
  };
  for (const Config& c : {Config{256, 12, true}, Config{1024, 24, false}}) {
    const std::string size =
        ".n" + std::to_string(c.n) + "_r" + std::to_string(c.r);
    registry.add({
        "fault.draw" + size,
        "fault",
        [c, rotating_spec]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          auto counter = std::make_shared<std::uint64_t>(kSetupSeed);
          return [graph, counter, rotating_spec] {
            const FaultSet faults = draw_faults(*graph, rotating_spec(counter));
            do_not_optimize(faults.fingerprint());
          };
        },
        c.quick,
    });
    registry.add({
        "fault.apply" + size,
        "fault",
        [c, rotating_spec]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          auto counter = std::make_shared<std::uint64_t>(kSetupSeed);
          return [graph, counter, rotating_spec] {
            const DegradedGraph degraded =
                apply_faults(*graph, draw_faults(*graph, rotating_spec(counter)));
            do_not_optimize(degraded.removed_links);
          };
        },
        c.quick,
    });
    registry.add({
        "fault.degraded_eval" + size,
        "fault",
        [c, rotating_spec]() -> BenchOp {
          auto graph = std::make_shared<HostSwitchGraph>(setup_graph(c.n, c.r));
          auto counter = std::make_shared<std::uint64_t>(kSetupSeed);
          return [graph, counter, rotating_spec] {
            const ResilienceReport report = evaluate_degraded(
                *graph, draw_faults(*graph, rotating_spec(counter)));
            do_not_optimize(report.connected_pairs);
          };
        },
        c.quick,
    });
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using orp::bench::finish_obs;
  using orp::bench::parse_cli_with_obs;

  CliParser cli("microbench",
                "hot-path microbenchmarks emitting BENCH_microbench.json");
  cli.flag("quick", "CI subset: small sizes, 5 repetitions, 10ms repetitions");
  cli.flag("list", "list benchmark names and exit");
  cli.option("filter", "", "run only benchmarks whose name contains this substring");
  cli.option("out", "BENCH_microbench.json", "output JSON path");
  cli.option("repetitions", "0", "measured repetitions per benchmark (0 = mode default)");
  cli.option("warmup", "0", "discarded warmup repetitions (0 = mode default)");
  cli.option("min-rep-ms", "0", "minimum milliseconds per repetition (0 = mode default)");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;

  BenchRegistry& registry = BenchRegistry::global();
  register_aspl(registry);
  register_annealer(registry);
  register_search_delta(registry);
  register_search_parallel(registry);
  register_sim(registry);
  register_partition(registry);
  register_fault(registry);

  RunOptions options;
  options.quick = cli.has("quick");
  options.filter = cli.get("filter");
  options.repetitions = options.quick ? 5 : 12;
  options.warmup = options.quick ? 1 : 2;
  options.min_rep_seconds = options.quick ? 0.010 : 0.050;
  if (const int reps = cli.get_uint<int>("repetitions"); reps > 0) {
    options.repetitions = reps;
  }
  if (const int warmup = cli.get_uint<int>("warmup"); warmup > 0) {
    options.warmup = warmup;
  }
  if (const auto ms = cli.get_uint<std::uint32_t>("min-rep-ms"); ms > 0) {
    options.min_rep_seconds = static_cast<double>(ms) / 1e3;
  }

  if (cli.has("list")) {
    for (const BenchmarkDef& def : registry.benchmarks()) {
      if (options.quick && !def.quick) continue;
      std::cout << def.name << (def.quick ? "" : "  [full]") << "\n";
    }
    return 0;
  }

  orp::bench::print_header(std::string("Microbenchmarks (") +
                           (options.quick ? "quick" : "full") + " suite)");
  options.progress = &std::cerr;
  const BenchReport report = registry.run(options);

  Table table({"benchmark", "family", "op/rep", "min ns/op", "median ns/op",
               "mad ns/op", "ops/s", "cycles/op", "ipc"});
  for (const BenchEntry& e : report.entries) {
    table.row()
        .add(e.name)
        .add(e.family)
        .add(static_cast<std::size_t>(e.iters_per_rep))
        .add(e.wall.min_ns, 1)
        .add(e.wall.median_ns, 1)
        .add(e.wall.mad_ns, 1)
        .add(e.wall.ops_per_sec, 2)
        .add(e.hw.valid ? format_double(e.hw.cycles, 0) : "-")
        .add(e.hw.valid ? format_double(e.hw.ipc, 2) : "-");
  }
  orp::bench::emit_table(table, "microbench");
  std::cout << "counters: " << report.counters_source
            << "  peak rss: " << report.peak_rss_kb << " kB\n";

  const std::string out = cli.get("out");
  std::ofstream file(out);
  if (!file) {
    std::cerr << "error: cannot write " << out << "\n";
    return 1;
  }
  file << report_to_json(report);
  std::cout << "wrote " << report.entries.size() << " benchmark series to "
            << out << "\n";

  // Make the run findable later: which suite, how many series, where the
  // BENCH json went.
  orp::obs::ledger_note("suite", options.quick ? "quick" : "full");
  orp::obs::ledger_note("series",
                        static_cast<std::int64_t>(report.entries.size()));
  orp::obs::ledger_note("counters_source", report.counters_source);
  orp::obs::ledger_artifact(out);

  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
