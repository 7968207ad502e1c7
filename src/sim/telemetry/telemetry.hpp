#pragma once
// Network telemetry for the fluid simulator: NetFlow-style per-flow
// records, per-link utilization samples, and end-to-end latency
// attribution, emitted into the active JSONL trace (docs/telemetry.md).
//
// Collection is cheap by design: Machine::phase() hands the collector raw
// POD snapshots (no string formatting on the hot path), the collector
// caps volume with deterministic reservoir sampling, and the buffered
// records are serialized as Chrome-trace instant events ("cat":"net")
// only when the sink flushes. With no tracer active begin_phase() is one
// load and the phase pays nothing; with ORP_OBS_DISABLED the collector's
// methods collapse to inline no-op stubs (mirroring obs/trace.hpp).
//
// Latency attribution (per flow, seconds; terms sum to `total_s` exactly
// by construction — queueing is defined as the remainder of the transfer
// time over ideal serialization):
//   serialization_s  bytes / link_bandwidth (wire time at full line rate)
//   queue_s          transfer time minus serialization (fair-share < line
//                    rate, i.e. congestion)
//   hop_s            hops * hop_latency (propagation / switching)
//   retry_s          summed fault-retry backoff; failed flows attribute
//                    their whole bounded give-up time here
//   overhead_s       per-message software (MPI) overhead

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "sim/params.hpp"
#include "sim/routing.hpp"

namespace orp {

/// Sampling knobs, read once per phase. Defaults keep the n=256 r=12
/// all-to-all microbenchmark within CI's 25% telemetry-overhead gate.
struct NetTelemetryConfig {
  /// Master switch (ORP_NET_TELEMETRY=0 disables). Collection further
  /// requires an active JSONL tracer.
  bool enabled = true;
  /// Record every Nth flow (per machine, deterministic stride). 1 = all.
  std::uint32_t flow_sample = 1;
  /// Links kept per time bucket, most utilized first.
  std::uint32_t link_top_k = 8;
  /// Fluid steps per phase that additionally emit per-step link samples
  /// (step >= 0 in the record). 0 = phase-level buckets only (step -1),
  /// which is the cheap default; raise for step-resolution forensics.
  std::uint32_t link_steps = 0;
  /// Reservoir capacities: global caps on buffered records per process.
  std::uint32_t reservoir_flows = 4096;
  std::uint32_t reservoir_links = 16384;
  std::uint32_t reservoir_phases = 2048;
};

/// Config from ORP_NET_TELEMETRY / ORP_NET_FLOW_SAMPLE / ORP_NET_LINK_TOPK
/// / ORP_NET_LINK_STEPS / ORP_NET_RESERVOIR_{FLOWS,LINKS,PHASES}. Each is a
/// decimal in [0, 2^32); 0 is a value, not "unset". An unset, empty or
/// malformed variable (sign, whitespace, overflow) keeps the default.
NetTelemetryConfig net_telemetry_from_env();

/// Process-wide override (CLI beats environment); pass the result of
/// net_telemetry_from_env() with fields adjusted. Not thread-safe against
/// concurrent phases — set it during startup.
void set_net_telemetry(const NetTelemetryConfig& config);

/// The active config (env-derived until set_net_telemetry overrides).
const NetTelemetryConfig& net_telemetry();

/// Applies a CLI spec on top of the active config: "" is a no-op, "off"
/// disables, otherwise comma-separated knobs ("flow_sample=4,link_steps=2,
/// link_top_k=8"), each value a decimal in [0, 2^32). Returns false (config
/// untouched) on a malformed spec.
bool apply_net_telemetry_spec(std::string_view spec);

/// One flow lifecycle, buffered raw and emitted as a "net.flow" instant.
struct NetFlowRecord {
  std::uint64_t phase = 0;  ///< global phase sequence number
  std::uint32_t src = 0;    ///< source host
  std::uint32_t dst = 0;    ///< destination host
  std::uint64_t bytes = 0;
  std::uint32_t hops = 0;   ///< route length (0 = no surviving route)
  std::uint32_t retries = 0;
  bool failed = false;
  double start_s = 0.0;  ///< absolute simulated injection time
  double total_s = 0.0;  ///< completion time (finish - start)
  double serialization_s = 0.0;
  double queue_s = 0.0;
  double hop_s = 0.0;
  double retry_s = 0.0;
  double overhead_s = 0.0;
  double rate_first_bps = 0.0;  ///< fair share after the first solve
  double rate_last_bps = 0.0;   ///< fair share when the flow finished
  double rate_mean_bps = 0.0;   ///< bytes / transfer time
};

/// One link in one time bucket, emitted as a "net.link" instant.
struct NetLinkSample {
  std::uint64_t phase = 0;
  std::int32_t step = -1;  ///< fluid step index; -1 = whole-phase bucket
  std::uint32_t link = 0;  ///< directed link id (port-stable, see sim/routing.hpp)
  double t0_s = 0.0, t1_s = 0.0;  ///< absolute bucket bounds
  double utilization = 0.0;       ///< allocated rate / line rate
  std::uint32_t flows = 0;        ///< active flows crossing the link
  double fair_bps = 0.0;          ///< minimum fair-share rate among them
};

/// One communication phase, emitted as a "net.phase" instant.
struct NetPhaseRecord {
  std::uint64_t phase = 0;
  std::uint32_t flows = 0;
  std::uint32_t completed = 0;
  std::uint32_t failed = 0;
  std::uint32_t retried = 0;
  std::uint32_t steps = 0;  ///< fluid segments the phase took
  double start_s = 0.0;
  double elapsed_s = 0.0;   ///< what phase() returned
  double transfer_s = 0.0;  ///< wire time (excludes per-message latency)
  double max_utilization = 0.0;
};

/// One phase's per-link load: the one account that Machine::link_loads(),
/// `net.phase` and the step -1 `net.link` rows read. Machine builds it from
/// the phase's final routes; failed and zero-byte flows carry nothing.
struct LinkLoads {
  struct Link {
    double bytes = 0.0;  ///< bytes of the flows that crossed it
    /// Lowest mean rate (bytes / finish time) among them; +inf when idle.
    double slowest_bps = std::numeric_limits<double>::infinity();
    std::uint32_t flows = 0;  ///< flows that crossed it; 0 = idle
  };
  double window_s = 0.0;        ///< fluid time when the last byte moved
  double capacity_bytes = 0.0;  ///< what one link moves in window_s
  std::vector<Link> links;      ///< by link id
  std::vector<LinkId> used;     ///< ids of the links with flows, ascending
  double max_utilization = 0.0;  ///< busiest link's bytes / capacity_bytes

  /// Busy fraction of link l over the window (l must have carried flows).
  double utilization(LinkId l) const { return links[l].bytes / capacity_bytes; }
};

/// Per-Machine collector. All methods are no-ops (one branch) until
/// begin_phase() sees an active tracer and an enabled config; with
/// ORP_OBS_DISABLED they are inline no-ops.
class NetPhaseCollector {
 public:
  /// Everything end_phase() needs, borrowed from the round's FluidPhase.
  /// Times are phase-relative seconds (the collector re-anchors them).
  struct PhaseEnd {
    double elapsed_s = 0.0;  ///< phase() return value
    std::uint32_t steps = 0;
    std::uint32_t failed_flows = 0;
    std::uint32_t retried_flows = 0;
    const LinkLoads* loads = nullptr;  ///< the phase's link-load account
    const std::vector<std::uint64_t>* bytes = nullptr;
    const std::vector<double>* finish = nullptr;   ///< phase-relative
    const std::vector<double>* penalty = nullptr;  ///< summed backoff
    const std::vector<std::uint32_t>* hops = nullptr;
    const std::vector<std::uint8_t>* failed = nullptr;
    const std::vector<HostId>* src = nullptr;
    const std::vector<HostId>* dst = nullptr;
    const SimParams* params = nullptr;
  };

#ifndef ORP_OBS_DISABLED
  /// Opens a phase at absolute simulated time `clock_s`. Returns true when
  /// collection is active for this phase (callers gate the other hooks on
  /// it; the result also reserves a global phase sequence number).
  bool begin_phase(double clock_s, std::size_t num_flows);

  /// Closes fluid segment `step` spanning absolute [t0_s, t1_s). Captures
  /// first-solve rates on step 0 and, for step < link_steps, per-step
  /// link samples. Call before deactivating the segment's finishers.
  void on_segment(std::uint32_t step, double t0_s, double t1_s,
                  const PathStore& paths,
                  const std::vector<std::uint8_t>& active,
                  const std::vector<double>& rates);

  /// Records flow f's final fair-share rate (at completion or failure).
  void flow_done(std::size_t f, double rate_bps);

  /// Builds the flow/link/phase records and pushes them into the global
  /// reservoirs (serialized to the trace at sink flush).
  void end_phase(const PhaseEnd& end);

 private:
  bool active_ = false;
  NetTelemetryConfig cfg_;
  std::uint64_t phase_id_ = 0;
  double phase_start_s_ = 0.0;
  std::vector<double> rate_first_, rate_last_;
  std::vector<NetLinkSample> step_samples_;
  // Dense per-link scratch for one segment (sized on demand). One struct
  // per link rather than parallel arrays: the accumulation pass hits
  // links in random order, so keeping a link's three fields on one cache
  // line matters on the paper-scale incidence counts.
  struct LinkScratch {
    double sum = 0.0;   ///< rate sum of the crossing flows
    double fair = 0.0;  ///< minimum crossing-flow rate
    std::uint32_t count = 0;
  };
  std::vector<LinkScratch> link_scratch_;
  std::vector<std::uint32_t> touched_;
#else
  bool begin_phase(double, std::size_t) { return false; }
  void on_segment(std::uint32_t, double, double, const PathStore&,
                  const std::vector<std::uint8_t>&,
                  const std::vector<double>&) {}
  void flow_done(std::size_t, double) {}
  void end_phase(const PhaseEnd&) {}
#endif
};

namespace net_detail {
#ifndef ORP_OBS_DISABLED
/// Test hook: drains the global reservoirs into the active tracer now
/// (normally done by the obs flush hook) and returns how many records
/// were emitted. Also clears the reservoirs.
std::size_t drain_to_tracer();
/// Test hook: clears buffered records without emitting.
void discard_buffered();
/// Test hook: discard_buffered() plus a phase-id counter reset, so two
/// identical runs inside one process produce byte-identical records.
void reset_for_tests();
#else
inline std::size_t drain_to_tracer() { return 0; }
inline void discard_buffered() {}
inline void reset_for_tests() {}
#endif  // ORP_OBS_DISABLED
}  // namespace net_detail

}  // namespace orp
