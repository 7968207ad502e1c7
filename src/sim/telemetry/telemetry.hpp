#pragma once
// Network telemetry for the fluid simulator: NetFlow-style per-flow
// records, per-link utilization samples, and end-to-end latency
// attribution, emitted into the active JSONL trace (docs/telemetry.md).
//
// Collection is cheap by design: each fluid engine's collector takes raw
// POD snapshots of its round (no string formatting on the hot path), the
// rounds are committed in round order into reservoirs that cap volume by
// deterministic sampling, and the buffered records are serialized as
// Chrome-trace instant events ("cat":"net") only when the sink flushes.
// With no tracer active no round is opened, and an engine pays one branch
// per hook.
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
#include <functional>
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

/// One round's records, from reservation to the reservoirs. The caller
/// opens it in round order (open_net_round), the engine that runs the
/// round fills it with phase-relative times (NetPhaseCollector), and the
/// caller commits it in round order (commit_net_round). Phase ids and flow
/// admission are fixed at open, so the records do not depend on which
/// engine, or how many, ran the rounds.
struct NetRound {
  bool active = false;         ///< opened: the engine records this round
  NetTelemetryConfig config;   ///< read when the round was opened
  std::uint64_t phase = 0;     ///< global phase sequence number
  std::uint64_t first_flow = 0;  ///< reservoir ordinal of the first sampled flow
  NetPhaseRecord record;
  std::vector<NetLinkSample> links;
  /// The sampled flows the reservoir admits (and only those), in order.
  std::vector<NetFlowRecord> flows;
};

/// True while a round opened now records: a JSONL tracer is active and
/// the config is enabled.
bool net_recording();

/// Opens `round`, a round of `num_flows` flows (a JSONL tracer must be
/// recording): takes the next global phase id and the reservoir ordinals
/// of its sampled flows.
void open_net_round(NetRound& round, std::size_t num_flows);

/// Pushes an opened round's records into the global reservoirs (serialized
/// to the trace at sink flush), with times re-anchored at the round's
/// absolute start `start_s`, and closes the round. No-op when not opened.
void commit_net_round(NetRound& round, double start_s);

/// A fluid engine's collector: the scratch that turns one round's segments
/// and flow table into the records of its NetRound. Each engine owns one.
class NetPhaseCollector {
 public:
  /// One flow as its round left it (times phase-relative).
  struct FlowEnd {
    HostId src = 0, dst = 0;
    std::uint64_t bytes = 0;
    std::uint32_t hops = 0;  ///< 0 = no surviving route
    bool failed = false;
    double finish_s = 0.0;
    double penalty_s = 0.0;  ///< summed retry backoff
  };

  /// Starts filling `round` (kept until end_phase) for a round of
  /// `num_flows` flows, dropping the records of any earlier run of it.
  /// Returns round.active: callers gate the other hooks on it.
  bool begin_phase(NetRound& round, std::size_t num_flows);

  /// Closes fluid segment `step` spanning phase time [t0_s, t1_s). Captures
  /// first-solve rates on step 0 and, for step < link_steps, per-step
  /// link samples. Call before deactivating the segment's finishers.
  void on_segment(std::uint32_t step, double t0_s, double t1_s,
                  const PathStore& paths,
                  const std::vector<std::uint8_t>& active,
                  const std::vector<double>& rates);

  /// Records flow f's final fair-share rate (at completion or failure).
  void flow_done(std::size_t f, double rate_bps);

  /// Closes the round: scales its per-step samples, adds the whole-phase
  /// link samples of `loads` and the phase's transfer window and peak to
  /// round.record (whose counts the engine set), and builds the records of
  /// the admitted sampled flows, reading flow f through `flow(f)`.
  void end_phase(const LinkLoads& loads, const SimParams& params,
                 const std::function<FlowEnd(std::size_t)>& flow);

 private:
  NetRound* round_ = nullptr;  ///< the round being filled
  std::vector<double> rate_first_, rate_last_;
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
};

namespace net_detail {
/// Test hook: clears buffered records without emitting and resets the
/// phase-id counter, so two identical runs inside one process produce
/// byte-identical records.
void reset_for_tests();
}  // namespace net_detail

}  // namespace orp
