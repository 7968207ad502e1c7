// bench_diff — the perf-regression gate over two BENCH_*.json reports.
//
//   bench_diff BASELINE.json CURRENT.json [--tolerance 0.25] ...
//
// Compares the per-benchmark median ns/op of CURRENT against BASELINE and
// exits 1 when any series regressed beyond the tolerance *and* the MAD
// noise guard (see DiffOptions in src/obs/bench/report.hpp), 0 otherwise,
// 2 on usage/parse errors. A self-diff always passes; a 2x slowdown on any
// series always fails at the default tolerance.
//
// CI runs this against the committed bench/baseline/BENCH_baseline.json
// with a wide tolerance (the baseline was recorded on different hardware);
// use the default tolerance for same-machine before/after comparisons.

#include <exception>
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/bench/report.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::obs::bench;

  CliParser cli("bench_diff", "compare two BENCH_*.json microbenchmark reports");
  cli.option("tolerance", "0.25",
             "relative slowdown allowed before a series counts as regressed");
  cli.option("mad-sigma", "4",
             "noise guard: slowdown must also exceed this many MADs");
  cli.option("abs-floor-ns", "10",
             "ignore absolute deltas below this many ns/op");
  cli.option("markdown", "",
             "also write the comparison as a markdown table to this path "
             "(CI appends it to the job summary)");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.positional().size() != 2) {
    std::cerr << "usage: bench_diff BASELINE.json CURRENT.json [options]\n";
    cli.print_usage();
    return 2;
  }

  BenchReport baseline, current;
  try {
    baseline = report_from_file(cli.positional()[0]);
    current = report_from_file(cli.positional()[1]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  DiffOptions options;
  options.tolerance = cli.get_double("tolerance");
  options.mad_sigma = cli.get_double("mad-sigma");
  options.abs_floor_ns = cli.get_double("abs-floor-ns");

  const DiffResult diff = diff_reports(baseline, current, options);

  std::cout << "baseline: " << cli.positional()[0] << " (git "
            << baseline.provenance.git_sha << ", " << baseline.provenance.compiler
            << ", cpu: " << baseline.provenance.cpu_model << ")\n";
  std::cout << "current:  " << cli.positional()[1] << " (git "
            << current.provenance.git_sha << ", " << current.provenance.compiler
            << ", cpu: " << current.provenance.cpu_model << ")\n";
  if (diff.mode_mismatch) {
    std::cerr << "warning: comparing a quick report against a full report; "
                 "overlapping series only\n";
  }
  if (diff.counters_mismatch) {
    std::cerr << "warning: counter sources differ (baseline: "
              << baseline.counters_source << ", current: "
              << current.counters_source
              << "); skipping hardware-counter columns\n";
  }
  bool any_hw = false;
  for (const DiffRow& row : diff.rows) any_hw = any_hw || row.hw_valid;
  const bool include_hw = any_hw && !diff.counters_mismatch;
  diff_table(diff, include_hw).print(std::cout);
  for (const std::string& name : diff.only_baseline) {
    std::cerr << "warning: series \"" << name
              << "\" is in the baseline but missing from the current report\n";
  }
  for (const std::string& name : diff.only_current) {
    std::cout << "note: new series \"" << name << "\" has no baseline yet\n";
  }

  if (diff.rows.empty()) {
    std::cerr << "error: the reports share no benchmark series\n";
    return 2;
  }

  if (const std::string md_path = cli.get("markdown"); !md_path.empty()) {
    std::ofstream md(md_path);
    if (!md) {
      std::cerr << "error: cannot write " << md_path << "\n";
      return 2;
    }
    std::size_t regressed = 0;
    for (const DiffRow& row : diff.rows) regressed += row.regressed ? 1u : 0u;
    md << "## Benchmark comparison\n\n";
    md << "- baseline: `" << cli.positional()[0] << "` (git "
       << baseline.provenance.git_sha << ", " << baseline.provenance.compiler
       << ")\n";
    md << "- current: `" << cli.positional()[1] << "` (git "
       << current.provenance.git_sha << ", " << current.provenance.compiler
       << ")\n";
    md << "- verdict: "
       << (diff.any_regression
               ? "**FAIL** — " + std::to_string(regressed) + "/" +
                     std::to_string(diff.rows.size()) + " series regressed"
               : "OK — no series regressed")
       << " beyond tolerance " << format_double(options.tolerance, 2)
       << "\n\n";
    diff_table(diff, include_hw).print_markdown(md);
  }

  if (diff.any_regression) {
    std::size_t regressed = 0;
    for (const DiffRow& row : diff.rows) regressed += row.regressed ? 1u : 0u;
    std::cout << "FAIL: " << regressed << "/" << diff.rows.size()
              << " series regressed beyond tolerance "
              << format_double(options.tolerance, 2) << "\n";
    return 1;
  }
  std::cout << "OK: no series regressed beyond tolerance "
            << format_double(options.tolerance, 2) << "\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
