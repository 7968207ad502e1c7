#include "compare_common.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>

namespace orp::bench {
namespace {

// Cost/power of a proposed-topology network for `hosts` endpoints at the
// given radix. The sweep only needs switch counts and cable lengths, which
// SA does not change (it rewires, never adds hardware), so a random
// saturated graph at m_opt stands in for the optimized one.
NetworkCostReport proposed_cost_point(std::uint32_t hosts, std::uint32_t radix,
                                      std::uint64_t seed) {
  const std::uint32_t m_opt = optimal_switch_count(hosts, radix);
  Xoshiro256 rng(seed);
  const HostSwitchGraph g = random_host_switch_graph(hosts, m_opt, radix, rng);
  return evaluate_network_cost(g);
}

}  // namespace

void run_comparison(const ComparisonConfig& config) {
  const std::uint64_t iterations = sa_iters(2500);
  const double fraction = sim_fraction();

  print_header(config.figure + ": " + config.baseline_name +
               " vs proposed topology (n=" + std::to_string(config.n) +
               ", r=" + std::to_string(config.radix) + ")");

  // ---- build both topologies ------------------------------------------
  const HostSwitchGraph baseline = config.build_baseline(config.n);
  const SolveResult proposed = build_proposed(config.n, config.radix, iterations);
  const HostMetrics base_metrics = compute_host_metrics(baseline);
  const double reduction =
      100.0 * (1.0 - static_cast<double>(proposed.switch_count) /
                         baseline.num_switches());

  Table summary({"topology", "switches", "h-ASPL", "diameter", "links"});
  summary.row()
      .add(config.baseline_name)
      .add(static_cast<std::size_t>(baseline.num_switches()))
      .add(base_metrics.h_aspl)
      .add(static_cast<std::size_t>(base_metrics.diameter))
      .add(baseline.num_switch_edges());
  summary.row()
      .add("proposed (m_opt)")
      .add(static_cast<std::size_t>(proposed.switch_count))
      .add(proposed.metrics.h_aspl)
      .add(static_cast<std::size_t>(proposed.metrics.diameter))
      .add(proposed.graph.num_switch_edges());
  emit_table(summary, config.csv_prefix + "_summary");
  std::cout << "switch-count reduction: " << format_double(reduction, 1)
            << "%  (paper: 20%/27%/43% for torus/dragonfly/fat-tree)\n";

  // ---- (a) performance --------------------------------------------------
  std::cout << "\n(a) NAS performance (flow-level simulation, "
            << format_double(fraction * 100, 0) << "% of class iterations)\n";
  Machine base_machine(baseline);
  Machine prop_machine = proposed_machine(proposed.graph);
  NasOptions nas_options;
  nas_options.iteration_fraction = fraction;

  Table perf({"kernel", "baseline Mop/s", "proposed Mop/s", "proposed/baseline"});
  double ratio_sum = 0.0;
  int ratio_count = 0;
  for (const NasKernel kernel : all_nas_kernels()) {
    if (std::find(config.skipped_kernels.begin(), config.skipped_kernels.end(),
                  kernel) != config.skipped_kernels.end()) {
      perf.row().add(nas_kernel_name(kernel)).add("-").add("-").add("(omitted, as in the paper)");
      continue;
    }
    const NasResult base_result = run_nas_kernel(base_machine, kernel, nas_options);
    const NasResult prop_result = run_nas_kernel(prop_machine, kernel, nas_options);
    const double ratio = prop_result.mops_per_second / base_result.mops_per_second;
    ratio_sum += ratio;
    ++ratio_count;
    perf.row()
        .add(base_result.name)
        .add(base_result.mops_per_second, 1)
        .add(prop_result.mops_per_second, 1)
        .add(ratio, 3);
  }
  emit_table(perf, config.csv_prefix + "_a_performance");
  std::cout << "average performance ratio: "
            << format_double(ratio_sum / ratio_count, 3)
            << "  (paper: 1.22 torus / 1.12 dragonfly / 1.84 fat-tree)\n";

  // ---- (b) bandwidth -----------------------------------------------------
  std::cout << "\n(b) bandwidth: partitioner edge cut, P = 2..16\n";
  Table bandwidth({"P", "baseline cut", "proposed cut", "proposed/baseline"});
  double bisection_ratio = 0.0;
  for (std::uint32_t parts = 2; parts <= 16; ++parts) {
    const std::uint64_t base_cut = host_switch_cut(baseline, parts, bench_seed());
    const std::uint64_t prop_cut =
        host_switch_cut(proposed.graph, parts, bench_seed());
    const double ratio = static_cast<double>(prop_cut) / static_cast<double>(base_cut);
    if (parts == 2) bisection_ratio = ratio;
    bandwidth.row()
        .add(static_cast<std::size_t>(parts))
        .add(base_cut)
        .add(prop_cut)
        .add(ratio, 3);
  }
  emit_table(bandwidth, config.csv_prefix + "_b_bandwidth");
  std::cout << "bisection bandwidth ratio (P=2): "
            << format_double(bisection_ratio, 3)
            << "  (paper: +31% torus / +24% dragonfly / -53%-ish fat-tree)\n";

  // ---- (c) power vs connectable hosts ------------------------------------
  std::cout << "\n(c) power consumption vs number of connectable hosts\n";
  std::vector<std::uint32_t> targets{128, 256, 512, 768, 1024};
  const std::uint64_t cap_at_n = config.baseline_capacity(config.n);
  if (cap_at_n > 1024 && cap_at_n < 4096) {
    targets.push_back(static_cast<std::uint32_t>(cap_at_n));
  }
  targets.push_back(1536);
  targets.push_back(2048);
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

  Table power({"hosts", "baseline W", "baseline switches", "proposed W",
               "proposed switches"});
  for (const std::uint32_t hosts : targets) {
    power.row().add(static_cast<std::size_t>(hosts));
    if (config.baseline_capacity(hosts) >= hosts) {
      const HostSwitchGraph g = config.build_baseline(hosts);
      const auto report = evaluate_network_cost(g);
      power.add(report.total_power_w(), 0).add(static_cast<std::size_t>(g.num_switches()));
      const auto prop_report =
          proposed_cost_point(hosts, g.radix(), bench_seed() + hosts);
      power.add(prop_report.total_power_w(), 0)
          .add(static_cast<std::size_t>(prop_report.switches));
    } else {
      power.add("-").add("-");
      const auto prop_report =
          proposed_cost_point(hosts, config.radix, bench_seed() + hosts);
      power.add(prop_report.total_power_w(), 0)
          .add(static_cast<std::size_t>(prop_report.switches));
    }
  }
  emit_table(power, config.csv_prefix + "_c_power");

  // ---- (d) cost breakdown -------------------------------------------------
  std::cout << "\n(d) cost breakdown at n=" << config.n << " (USD)\n";
  const auto base_cost = evaluate_network_cost(baseline);
  const auto prop_cost = evaluate_network_cost(proposed.graph);
  Table cost({"topology", "switch $", "electrical-cable $", "optical-cable $",
              "total $", "cables(e/o)"});
  auto cost_row = [&](const std::string& name, const NetworkCostReport& report) {
    cost.row()
        .add(name)
        .add(report.switch_cost_usd, 0)
        .add(report.electrical_cable_cost_usd, 0)
        .add(report.optical_cable_cost_usd, 0)
        .add(report.total_cost_usd(), 0)
        .add(std::to_string(report.electrical_cables) + "/" +
             std::to_string(report.optical_cables));
  };
  cost_row(config.baseline_name, base_cost);
  cost_row("proposed (m_opt)", prop_cost);
  emit_table(cost, config.csv_prefix + "_d_cost");
  std::cout << "switch cost change: "
            << format_double(100.0 * (prop_cost.switch_cost_usd /
                                          base_cost.switch_cost_usd -
                                      1.0), 1)
            << "%   cable cost change: "
            << format_double(100.0 * (prop_cost.cable_cost_usd() /
                                          base_cost.cable_cost_usd() -
                                      1.0), 1)
            << "%   total cost change: "
            << format_double(100.0 * (prop_cost.total_cost_usd() /
                                          base_cost.total_cost_usd() -
                                      1.0), 1)
            << "%\n";
}

}  // namespace orp::bench
