// Ablation — Monte-Carlo fault resilience (the src/fault subsystem).
//
// Sweeps seeded fault specs (i.i.d. link failures, switch failures, and
// cabinet-correlated outages) over K trials per point and reports the
// percentile degradation curves — h-ASPL inflation over the connected
// pairs, partition probability, reachable-pair fraction — for the proposed
// SA topology vs the three conventional baselines at matched host counts.
// A second table drives the fluid simulator with mid-run link failures and
// reports graceful-degradation statistics (retries, failed flows, slowdown).

#include <cmath>

#include "bench_util.hpp"
#include "fault/events.hpp"
#include "fault/model.hpp"
#include "fault/montecarlo.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_fault_resilience",
                "percentile degradation curves under seeded fault models");
  cli.option("hosts", "256", "hosts");
  cli.option("trials", "40", "Monte-Carlo trials per (topology, spec) point");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 1500)");
  cli.option("cabinet", "4", "switches per cabinet for correlated outages");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("hosts");
  const auto trials = cli.get_uint<std::uint32_t>("trials");
  const auto per_cabinet = cli.get_uint<std::uint32_t>("cabinet");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(1500);

  const std::vector<Candidate> candidates = conventional_lineup(n, iterations);

  struct Scenario {
    std::string name;
    FaultSpec spec;
  };
  std::vector<Scenario> scenarios;
  for (const double rate : {0.01, 0.05, 0.10}) {
    FaultSpec spec;
    spec.link_failure_rate = rate;
    spec.seed = bench_seed();
    scenarios.push_back({"links " + format_double(100.0 * rate, 0) + "%", spec});
  }
  {
    FaultSpec spec;
    spec.switch_failure_rate = 0.05;
    spec.seed = bench_seed();
    scenarios.push_back({"switches 5%", spec});
  }
  {
    FaultSpec spec;
    spec.cabinet_outage_rate = 0.10;
    spec.switches_per_cabinet = per_cabinet;
    spec.seed = bench_seed();
    scenarios.push_back({"cabinets 10%", spec});
  }

  print_header("Ablation: Monte-Carlo fault resilience, n=" + std::to_string(n) +
               ", " + std::to_string(trials) + " trials per point");
  Table table({"topology", "scenario", "partition%", "p50 infl.%", "p90 infl.%",
               "max infl.%", "reach frac", "dead hosts%"});
  for (const auto& candidate : candidates) {
    for (const auto& scenario : scenarios) {
      const ResilienceCurvePoint point =
          sweep_point(candidate.graph, scenario.spec, trials);
      const auto pct = [](double inflation) {
        // Partitioned trials have infinite inflation; clamp for the table
        // (the partition% column carries that information).
        if (!std::isfinite(inflation)) return std::string("inf");
        return format_double(100.0 * (inflation - 1.0), 2);
      };
      table.row()
          .add(candidate.name)
          .add(scenario.name)
          .add(100.0 * point.partitioned_trials / point.trials, 1)
          .add(pct(point.p50_haspl_inflation))
          .add(pct(point.p90_haspl_inflation))
          .add(pct(point.max_haspl_inflation))
          .add(point.mean_reachable_fraction, 3)
          .add(100.0 * point.mean_dead_host_fraction, 1);
    }
  }
  emit_table(table, "abl_fault_resilience");

  // Graceful degradation in the simulator: alltoall with link failures
  // striking mid-run. Healthy vs degraded completion time plus the retry /
  // failed-flow accounting from Machine::fault_stats().
  print_header("Simulator graceful degradation: alltoall, mid-run link faults");
  Table sim_table({"topology", "healthy ms", "degraded ms", "slowdown%",
                   "events", "rebuilds", "retried", "failed"});
  for (const auto& candidate : candidates) {
    Machine healthy(candidate.graph, SimParams{}, dfs_host_order(candidate.graph));
    const double t_healthy = healthy.alltoall(4096);

    FaultSpec spec;
    spec.link_failure_rate = 0.02;
    spec.seed = bench_seed();
    const FaultSet faults = draw_faults(candidate.graph, spec);
    // Spread the strikes across the healthy run's duration so reroutes
    // happen while flows are in flight.
    const auto events =
        schedule_fault_events(faults, 0.0, t_healthy, bench_seed());

    Machine degraded(candidate.graph, SimParams{}, dfs_host_order(candidate.graph));
    degraded.inject_faults(events);
    const double t_degraded = degraded.alltoall(4096);
    const FaultStats& stats = degraded.fault_stats();
    sim_table.row()
        .add(candidate.name)
        .add(1e3 * t_healthy, 3)
        .add(1e3 * t_degraded, 3)
        .add(100.0 * (t_degraded / t_healthy - 1.0), 1)
        .add(static_cast<std::size_t>(stats.events_applied))
        .add(static_cast<std::size_t>(stats.routing_rebuilds))
        .add(static_cast<std::size_t>(stats.flows_retried))
        .add(static_cast<std::size_t>(stats.flows_failed));
  }
  emit_table(sim_table, "abl_fault_resilience_sim");

  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
