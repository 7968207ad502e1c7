#pragma once
// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints the series of one paper figure as aligned
// tables on stdout and exits 0. Iteration budgets are laptop-sized by
// default and scale with environment knobs:
//   ORP_SA_ITERS    — simulated-annealing iterations (default per bench)
//   ORP_SIM_FRAC    — NAS iteration fraction in percent (default 10)
//   ORP_BENCH_SEED  — root seed (default 1)

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/ledger.hpp"
#include "obs/sink.hpp"
#include "search/solver.hpp"
#include "sim/nas.hpp"
#include "sim/telemetry/telemetry.hpp"
#include "topo/attach.hpp"

namespace orp::bench {

inline std::uint64_t sa_iters(std::uint64_t fallback) {
  return static_cast<std::uint64_t>(env_int("ORP_SA_ITERS", static_cast<std::int64_t>(fallback)));
}

inline double sim_fraction() {
  return static_cast<double>(env_int("ORP_SIM_FRAC", 10)) / 100.0;
}

inline std::uint64_t bench_seed() {
  return static_cast<std::uint64_t>(env_int("ORP_BENCH_SEED", 1));
}

/// --replicas: ladder size K of every SA run (1 = the paper's chain).
inline std::uint32_t& cli_replicas() {
  static std::uint32_t replicas = 1;
  return replicas;
}

/// --swap-interval: moves between replica-exchange barriers.
inline std::uint64_t& cli_swap_interval() {
  static std::uint64_t interval = 512;
  return interval;
}

/// Copies the shared search CLI selections (--replicas, --swap-interval)
/// into `options`, attaching the global thread pool when K > 1.
inline void apply_cli_search_options(SolveOptions& options) {
  options.replicas = cli_replicas();
  options.swap_interval = cli_swap_interval();
  if (options.replicas > 1 && !options.pool) {
    options.pool = &ThreadPool::global();
  }
}

/// Builds the paper's proposed topology for (n, r): m_opt switches, SA with
/// the 2-neighbor swing operation. Honors the shared search CLI flags, so
/// --replicas K turns every fig/abl bench's SA into a K-rung
/// replica-exchange ladder at the same total move budget.
inline SolveResult build_proposed(std::uint32_t n, std::uint32_t r,
                                  std::uint64_t iterations,
                                  std::uint64_t seed = 0) {
  SolveOptions options;
  options.iterations = iterations;
  options.seed = seed ? seed : bench_seed();
  options.mode = MoveMode::kTwoNeighborSwing;
  apply_cli_search_options(options);
  return solve_orp(n, r, options);
}

/// Machine for a proposed topology: ranks follow the paper's depth-first
/// host order (§6.2.1).
inline Machine proposed_machine(const HostSwitchGraph& graph,
                                const SimParams& params = {}) {
  return Machine(graph, params, dfs_host_order(graph));
}

inline void print_header(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n";
}

/// Registers the shared telemetry options (--obs-out / --obs-summary) and
/// parses argv, then installs the requested sink. Every fig/abl binary
/// funnels through this so the options exist uniformly. Returns false on
/// --help (caller exits 0); on a bad command line (unknown option, invalid
/// value) prints the reason and exits with status 2.
inline bool parse_cli_with_obs(CliParser& cli, int argc, const char* const* argv) try {
  // Ctrl-C / SIGTERM wind the SA search down gracefully (best-so-far is
  // kept) instead of killing the bench mid-run.
  install_shutdown_handlers();
  obs::add_cli_options(cli);
  cli.option("replicas", "1",
             "SA temperature-ladder size K: 1 is the paper's single chain, "
             "K > 1 runs replica-exchange tempering on the thread pool "
             "(see docs/search.md)");
  cli.option("swap-interval", "512",
             "moves between replica-exchange barriers (K > 1)");
  cli.option("net-telemetry", "",
             "network telemetry spec: off, on, default, or knob=value list "
             "(e.g. flow_sample=4,link_steps=64 — see docs/telemetry.md)");
  if (!cli.parse(argc, argv)) return false;
  obs::apply_cli(cli);
  if (const std::string spec = cli.get("net-telemetry"); !spec.empty()) {
    if (!apply_net_telemetry_spec(spec)) {
      throw std::invalid_argument("bad --net-telemetry spec: " + spec);
    }
  }
  // Start the run-ledger clock and remember argv; finish_obs appends the
  // record, so every bench invocation lands in $ORP_RUN_LEDGER.
  obs::ledger_capture_argv(argc, argv);
  cli_replicas() = cli.get_uint<std::uint32_t>("replicas");
  if (cli_replicas() < 1) throw std::invalid_argument("--replicas must be >= 1");
  cli_swap_interval() = cli.get_uint<std::uint64_t>("swap-interval");
  if (cli_swap_interval() < 1) {
    throw std::invalid_argument("--swap-interval must be >= 1");
  }
  return true;
} catch (const std::invalid_argument& e) {
  std::exit(report_bad_argument(e));
}

/// End-of-run counterpart: prints the metrics table when --obs-summary was
/// passed, flushes the active sink (closing JSONL traces), and appends this
/// run's record to the cross-run ledger.
inline void finish_obs(const CliParser& cli) {
  if (obs::cli_wants_summary(cli)) obs::print_summary(std::cout);
  obs::flush();
  obs::append_run_ledger();
}

/// Prints the table and, when ORP_CSV_DIR is set, also writes it to
/// "$ORP_CSV_DIR/<name>.csv" so the figure series can be re-plotted. The
/// directory is created (mkdir -p) when missing.
inline void emit_table(const Table& table, const std::string& name) {
  table.print(std::cout);
  if (const char* dir = std::getenv("ORP_CSV_DIR"); dir && *dir) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // write_csv_file reports failure
    const std::string path = std::string(dir) + "/" + name + ".csv";
    if (!table.write_csv_file(path)) {
      std::cerr << "warning: could not write " << path << "\n";
    }
  }
}

}  // namespace orp::bench
