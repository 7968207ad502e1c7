#include "search/annealer.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/annealer_core.hpp"

namespace orp {

// One SaChain driven start to finish. The chain owns the whole §5 move
// machinery (search/annealer_core.cpp); this wrapper contributes the span,
// the initial evaluation, and the schedule calibration — the pieces the
// replica-exchange backend performs once and shares across K chains.
AnnealResult anneal(const HostSwitchGraph& initial, const AnnealOptions& options) {
  ORP_REQUIRE(initial.fully_attached(), "anneal needs every host attached");
  ORP_REQUIRE(options.iterations > 0, "need at least one iteration");
  ORP_REQUIRE(options.initial_temperature >= 0 && options.final_temperature >= 0,
              "temperatures must be non-negative (0 = auto-calibrate)");

  obs::Span span("search.anneal", "search");
  span.arg("iterations", options.iterations);
  span.arg("hosts", static_cast<std::uint64_t>(initial.num_hosts()));
  span.arg("switches", static_cast<std::uint64_t>(initial.num_switches()));

  HostMetrics initial_metrics;
  {
    obs::ScopedTimer timer(obs::Registry::global().histogram("annealer.eval_ns"));
    initial_metrics = compute_host_metrics(initial, options.pool);
  }
  ORP_REQUIRE(initial_metrics.connected, "anneal needs a connected initial solution");

  SaChain::Config config;
  config.schedule = calibrate_schedule(initial, initial_metrics, options);
  SaChain chain(initial, initial_metrics, options, config);
  chain.run(options.iterations);
  chain.finish_telemetry();
  AnnealResult result = chain.take_result();

  span.arg("evaluations", result.evaluations);
  span.arg("accepted", result.accepted);
  if (result.interrupted) span.arg("interrupted", std::uint64_t{1});
  span.arg("best_haspl", result.best_metrics.h_aspl);
  return result;
}

}  // namespace orp
