// Fig. 5 — h-ASPL versus the number of switches m.
//
// For each (n, r) panel the paper plots, this bench sweeps m and prints:
//   * SA with the swap operation (regular host-switch graphs, §5.1);
//     only defined where m divides n
//   * SA with the 2-neighbor swing operation (§5.2)
//   * the Moore bound (Eq. 2, integer points)
//   * the continuous Moore bound (§5.3)
//   * the Theorem-2 lower bound (constant in m)
// The reproduction target: both SA curves are U-shaped in m, the swing
// curve dominates the swap curve away from the minimum, and the minimum
// sits at the continuous-Moore minimizer m_opt (dotted line in the paper).
//
// Default panels are the paper's "typical results"; --all runs the full
// n in {128,256,512,1024} x r in {12,24} grid.

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "hsg/bounds.hpp"
#include "search/random_init.hpp"

namespace {

using namespace orp;
using namespace orp::bench;

std::vector<std::uint32_t> sweep_values(std::uint32_t n, std::uint32_t r) {
  // Log-spaced m from the smallest feasible count to ~4x m_opt, always
  // including m_opt itself.
  const std::uint32_t m_opt = optimal_switch_count(n, r);
  std::uint32_t m_min = std::max<std::uint32_t>(1, n / (r - 1));
  while (!random_init_feasible(n, m_min, r)) ++m_min;
  const std::uint32_t m_max = std::min<std::uint32_t>(n, m_opt * 4);
  std::vector<std::uint32_t> values;
  const int points = 9;
  for (int i = 0; i < points; ++i) {
    const double f = static_cast<double>(i) / (points - 1);
    const auto m = static_cast<std::uint32_t>(std::lround(
        m_min * std::pow(static_cast<double>(m_max) / m_min, f)));
    if (values.empty() || values.back() != m) values.push_back(m);
  }
  values.push_back(m_opt);
  // Include the divisors of n in range: the swap-only (regular) series is
  // only defined there.
  for (std::uint32_t m = m_min; m <= m_max; ++m) {
    if (n % m == 0 && random_init_feasible(n, m, r)) values.push_back(m);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

void run_panel(std::uint32_t n, std::uint32_t r, std::uint64_t iterations) {
  const std::uint32_t m_opt = optimal_switch_count(n, r);
  print_header("Fig. 5 panel: n=" + std::to_string(n) + ", r=" + std::to_string(r) +
               "  (m_opt=" + std::to_string(m_opt) +
               ", Theorem-2 bound=" + format_double(haspl_lower_bound(n, r)) + ")");

  Table table({"m", "SA-swap(regular)", "SA-2n-swing", "Moore(Eq.2)",
               "contMoore", "note"});
  for (const std::uint32_t m : sweep_values(n, r)) {
    table.row().add(static_cast<std::size_t>(m));

    // Swap-only SA explores regular graphs: m must divide n.
    if (n % m == 0 && random_init_feasible(n, m, r)) {
      SolveOptions options;
      options.iterations = iterations;
      options.seed = bench_seed() + m;
      options.mode = MoveMode::kSwap;
      options.regular_start = true;
      options.force_switch_count = m;
      apply_cli_search_options(options);
      table.add(solve_orp(n, r, options).metrics.h_aspl);
    } else {
      table.add("-");
    }

    SolveOptions options;
    options.iterations = iterations;
    options.seed = bench_seed() + m;
    options.mode = MoveMode::kTwoNeighborSwing;
    options.force_switch_count = m;
    apply_cli_search_options(options);
    table.add(solve_orp(n, r, options).metrics.h_aspl);

    if (n % m == 0) {
      const double eq2 = regular_haspl_moore_bound(n, m, r);
      table.add(std::isinf(eq2) ? "inf" : format_double(eq2));
    } else {
      table.add("-");
    }
    const double cont = continuous_haspl_moore_bound(n, m, r);
    table.add(std::isinf(cont) ? "inf" : format_double(cont));
    table.add(m == m_opt ? "<- m_opt" : "");
  }
  emit_table(table, "fig05_n" + std::to_string(n) + "_r" + std::to_string(r));
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("fig05_haspl_vs_switches", "Fig. 5: h-ASPL vs number of switches");
  cli.flag("all", "run the full 4x2 (n, r) grid instead of the typical panels");
  cli.option("iters", "0", "SA iterations per point (0 = ORP_SA_ITERS or 800)");
  if (!orp::bench::parse_cli_with_obs(cli, argc, argv)) return 0;

  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = orp::bench::sa_iters(800);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> panels;
  if (cli.has("all")) {
    for (std::uint32_t n : {128u, 256u, 512u, 1024u}) {
      for (std::uint32_t r : {12u, 24u}) panels.emplace_back(n, r);
    }
  } else {
    panels = {{128, 24}, {256, 12}, {1024, 12}, {1024, 24}};
  }
  for (const auto& [n, r] : panels) run_panel(n, r, iterations);
  orp::bench::finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
