// Fig. 7 — Moore bound vs continuous Moore bound (n = 1024, r = 24).
//
// The integer Moore bound (Eq. 2) only exists where m divides n and the
// per-switch host count is integral; the continuous extension fills the
// gaps and is what the m_opt prediction minimizes. The paper's figure
// shows the two agreeing at integer points with the continuous curve
// interpolating smoothly between them.

#include <cmath>

#include "bench_util.hpp"
#include "hsg/bounds.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("fig07_moore_bounds", "Fig. 7: Moore vs continuous Moore bound");
  cli.option("n", "1024", "number of hosts");
  cli.option("radix", "24", "ports per switch");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const auto n = cli.get_uint<std::uint32_t>("n");
  const auto r = cli.get_uint<std::uint32_t>("radix");

  const std::uint32_t m_opt = optimal_switch_count(n, r);
  print_header("Fig. 7: Moore bound vs continuous Moore bound (n=" +
               std::to_string(n) + ", r=" + std::to_string(r) +
               ", m_opt=" + std::to_string(m_opt) + ")");

  Table table({"m", "Moore(Eq.2)", "contMoore", "note"});
  std::uint32_t m_min = n / (r - 1);
  if (m_min == 0) m_min = 1;
  for (std::uint32_t m = m_min; m <= 4 * m_opt; m += std::max(1u, m_opt / 16)) {
    const double cont = continuous_haspl_moore_bound(n, m, r);
    table.row().add(static_cast<std::size_t>(m));
    if (n % m == 0) {
      const double eq2 = regular_haspl_moore_bound(n, m, r);
      table.add(std::isinf(eq2) ? "inf" : format_double(eq2));
    } else {
      table.add("-");  // the integer bound needs m | n
    }
    table.add(std::isinf(cont) ? "inf" : format_double(cont));
    table.add(m == m_opt ? "<- m_opt" : "");
  }
  // Always include the integer divisor points (the paper's markers).
  Table divisors({"m (divisor of n)", "Moore(Eq.2)", "contMoore"});
  for (std::uint32_t m = m_min; m <= 4 * m_opt; ++m) {
    if (n % m != 0) continue;
    const double eq2 = regular_haspl_moore_bound(n, m, r);
    const double cont = continuous_haspl_moore_bound(n, m, r);
    divisors.row()
        .add(static_cast<std::size_t>(m))
        .add(std::isinf(eq2) ? "inf" : format_double(eq2))
        .add(std::isinf(cont) ? "inf" : format_double(cont));
  }
  emit_table(table, "fig07_sweep");
  std::cout << "\nInteger points (Eq. 2 defined; continuous bound must agree):\n";
  emit_table(divisors, "fig07_divisors");
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
