// Ablation — naive random topologies vs local search (§2.1's claim).
//
// The paper motivates its search by citing work showing "local search
// algorithms enable us to construct better graphs than naive random
// topologies". This bench measures the gap: at m_opt, compare the h-ASPL
// of (a) the best of k random saturated graphs (a Jellyfish-style
// baseline) and (b) SA with the 2-neighbor swing, for several (n, r).

#include "bench_util.hpp"
#include "hsg/bounds.hpp"
#include "search/random_init.hpp"

int main(int argc, char** argv) try {
  using namespace orp;
  using namespace orp::bench;

  CliParser cli("abl_random_vs_sa", "naive random graphs vs simulated annealing");
  cli.option("random-trials", "8", "random graphs sampled for the baseline");
  cli.option("iters", "0", "SA iterations (0 = ORP_SA_ITERS or 2000)");
  cli.option("trace-every", "50", "record an SA convergence sample every N iterations");
  cli.option("trace-csv", "",
             "write the SA convergence curves (iteration, h-ASPL, temperature) "
             "to this CSV file");
  if (!parse_cli_with_obs(cli, argc, argv)) return 0;
  const int trials = cli.get_uint<int>("random-trials");
  std::uint64_t iterations = cli.get_uint<std::uint64_t>("iters");
  if (iterations == 0) iterations = sa_iters(2000);
  const auto trace_every = cli.get_uint<std::uint64_t>("trace-every");
  const std::string trace_csv = cli.get("trace-csv");

  print_header("Ablation: best-of-" + std::to_string(trials) +
               " random graphs vs SA (both at m_opt)");
  Table table({"n", "r", "m_opt", "random best", "SA 2n-swing", "Thm-2 bound",
               "SA gain%"});
  // The SA run's convergence samples per configuration: one CSV
  // reproduces every SA curve of this ablation in a single run.
  Table trace_table({"n", "r", "iteration", "current_haspl", "best_haspl",
                     "temperature"});
  for (const auto& [n, r] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {256, 12}, {512, 12}, {1024, 12}, {1024, 24}}) {
    const std::uint32_t m = optimal_switch_count(n, r);
    Xoshiro256 rng(bench_seed());
    double random_best = std::numeric_limits<double>::infinity();
    for (int t = 0; t < trials; ++t) {
      const auto g = random_host_switch_graph(n, m, r, rng);
      random_best = std::min(random_best, compute_host_metrics(g).h_aspl);
    }
    SolveOptions options;
    options.iterations = iterations;
    options.seed = bench_seed();
    options.force_switch_count = m;
    apply_cli_search_options(options);
    options.trace_every = trace_csv.empty() ? 0 : trace_every;
    const auto sa = solve_orp(n, r, options);
    table.row()
        .add(static_cast<std::size_t>(n))
        .add(static_cast<std::size_t>(r))
        .add(static_cast<std::size_t>(m))
        .add(random_best)
        .add(sa.metrics.h_aspl)
        .add(haspl_lower_bound(n, r))
        .add(100.0 * (1.0 - sa.metrics.h_aspl / random_best), 2);
    for (const AnnealTracePoint& point : sa.sa_trace) {
      trace_table.row()
          .add(static_cast<std::size_t>(n))
          .add(static_cast<std::size_t>(r))
          .add(static_cast<std::size_t>(point.iteration))
          .add(point.current_haspl)
          .add(point.best_haspl)
          .add(point.temperature, 6);
    }
  }
  table.print(std::cout);
  if (!trace_csv.empty() && obs::write_csv(trace_table, trace_csv)) {
    std::cout << "wrote " << trace_table.rows() << " convergence samples to "
              << trace_csv << "\n";
  }
  finish_obs(cli);
  return 0;
} catch (const std::invalid_argument& e) {
  return orp::report_bad_argument(e);
}
