// cluster_planner — procurement-style what-if analysis.
//
//   $ ./cluster_planner --hosts 1024 --budget 4000000
//
// Sweeps switch radixes for the proposed topology and reports, for each
// candidate fabric, the hardware bill (switches, cables by type, dollars,
// watts) and quality metrics, flagging the cheapest design that meets a
// latency (h-ASPL) target and an optional budget. Exercises the bounds,
// search, cost, and floorplan APIs together.

#include <iostream>
#include <optional>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "cost/evaluate.hpp"
#include "hsg/bounds.hpp"
#include "hsg/metrics.hpp"
#include "obs/sink.hpp"
#include "search/solver.hpp"

int main(int argc, char** argv) try {
  using namespace orp;

  CliParser cli("cluster_planner", "explore radix/cost trade-offs for a fixed host count");
  cli.option("hosts", "1024", "number of hosts");
  cli.option("radix-min", "12", "smallest switch radix to consider");
  cli.option("radix-max", "36", "largest switch radix to consider");
  cli.option("radix-step", "4", "radix sweep step");
  cli.option("iters", "1500", "SA iterations per design point");
  cli.option("haspl-target", "0", "require h-ASPL <= target (0 = no requirement)");
  cli.option("budget", "0", "require total cost <= budget USD (0 = no limit)");
  cli.option("seed", "1", "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = cli.get_uint<std::uint32_t>("hosts");
  // 16-bit radix bounds keep `r += r_step` below 2^32, so the sweep ends.
  const std::uint32_t r_min = cli.get_uint<std::uint16_t>("radix-min");
  const std::uint32_t r_max = cli.get_uint<std::uint16_t>("radix-max");
  const std::uint32_t r_step = cli.get_uint<std::uint16_t>("radix-step");
  if (r_step == 0) throw std::invalid_argument("--radix-step must be >= 1");
  const double haspl_target = cli.get_double("haspl-target");
  const double budget = cli.get_double("budget");

  std::cout << "Candidate fabrics for n=" << n << " hosts (proposed topology per radix)\n";
  Table table({"radix", "m_opt", "h-ASPL", "bound", "cables e/o", "power W",
               "cost $", "fits"});

  std::optional<std::pair<double, std::uint32_t>> best;  // (cost, radix)
  for (std::uint32_t r = r_min; r <= r_max; r += r_step) {
    SolveOptions options;
    options.iterations = cli.get_uint<std::uint64_t>("iters");
    options.seed = cli.get_uint<std::uint64_t>("seed") + r;
    const SolveResult design = solve_orp(n, r, options);
    const auto bill = evaluate_network_cost(design.graph);

    const bool meets_latency =
        haspl_target <= 0.0 || design.metrics.h_aspl <= haspl_target;
    const bool meets_budget = budget <= 0.0 || bill.total_cost_usd() <= budget;
    const bool fits = meets_latency && meets_budget;
    if (fits && (!best || bill.total_cost_usd() < best->first)) {
      best = {bill.total_cost_usd(), r};
    }

    table.row()
        .add(static_cast<std::size_t>(r))
        .add(static_cast<std::size_t>(design.switch_count))
        .add(design.metrics.h_aspl, 3)
        .add(haspl_lower_bound(n, r), 3)
        .add(std::to_string(bill.electrical_cables) + "/" +
             std::to_string(bill.optical_cables))
        .add(bill.total_power_w(), 0)
        .add(bill.total_cost_usd(), 0)
        .add(fits ? "yes" : "no");
  }
  table.print(std::cout);

  if (best) {
    std::cout << "\ncheapest design meeting all requirements: radix " << best->second
              << " at $" << format_double(best->first, 0) << "\n";
  } else {
    std::cout << "\nno design meets the requirements; relax the h-ASPL target or budget\n";
  }
  // The sink (ORP_OBS_OUT) would flush at exit too, but could not fail the run.
  return obs::flush() ? 0 : 1;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
