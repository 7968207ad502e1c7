// orp_report: offline analyzer for the JSONL traces written by --obs-out.
//
// Reads one trace (and optionally the run ledger), prints a markdown
// report: span self-time profile, counter totals and rates from the
// trace's end-of-run metric records, flow-event accounting, annealer
// convergence diagnostics (windowed acceptance rate vs temperature, stall
// verdict), and the simulator's network telemetry (per-flow latency attribution,
// link heatmap, per-phase bottleneck links — see docs/telemetry.md).
//
// Exit codes: 0 ok, 1 diagnostic failure (malformed trace lines unless
// --allow-malformed, or a trace with zero events), 2 usage error. CI runs
// this after a short traced annealer run and fails the job on non-zero.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/trace_analysis.hpp"

namespace {

int run(int argc, const char* const* argv) {
  using namespace orp::obs::report;

  orp::CliParser cli(
      "orp_report",
      "Analyze an --obs-out JSONL trace: span profile, counter totals, "
      "annealer convergence. Pass the trace path as the positional arg.");
  cli.option("ledger", "", "run-ledger JSONL to append to the report");
  cli.option("out", "", "write the report here instead of stdout");
  cli.option("top", "20", "spans listed per category in the profile");
  cli.option("windows", "8", "convergence windows");
  cli.option("net-top", "12", "rows per table in the network section");
  cli.flag("allow-malformed", "do not fail on unparseable trace lines");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.positional().size() != 1) {
    std::cerr << "orp_report: expected exactly one trace path\n";
    cli.print_usage();
    return 2;
  }

  ReportOptions options;
  options.top_k = std::max<std::size_t>(1, cli.get_uint<std::size_t>("top"));
  options.windows = std::max<std::size_t>(1, cli.get_uint<std::size_t>("windows"));
  options.net_top = std::max<std::size_t>(1, cli.get_uint<std::size_t>("net-top"));

  const TraceAnalysis analysis = analyze_trace_file(cli.positional()[0], options);

  std::vector<LedgerEntry> ledger;
  if (cli.has("ledger") && !cli.get("ledger").empty()) {
    ledger = read_ledger_file(cli.get("ledger"));
  }

  const std::string report = render_markdown(analysis, ledger, options);
  if (cli.has("out") && !cli.get("out").empty()) {
    std::ofstream out(cli.get("out"));
    if (!out) {
      std::cerr << "orp_report: cannot write " << cli.get("out") << "\n";
      return 2;
    }
    out << report;
  } else {
    std::cout << report;
  }

  // Diagnostics: a profiling pipeline that silently swallows a corrupt or
  // empty trace is worse than none, so these are hard failures for CI.
  int rc = 0;
  if (analysis.malformed_lines > 0 && !cli.has("allow-malformed")) {
    std::cerr << "orp_report: " << analysis.malformed_lines
              << " malformed trace line(s) (pass --allow-malformed to ignore)\n";
    rc = 1;
  }
  if (analysis.event_lines == 0) {
    std::cerr << "orp_report: trace contains no events\n";
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
