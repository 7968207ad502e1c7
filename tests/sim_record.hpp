#pragma once
// Every observable of a Machine after a step, as exact bit patterns: the
// record the bit-identity batteries (parallel rounds, replayed calls)
// compare run against run. They compare the trace's `net.*` lines likewise
// (trace_lines.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace orp {

struct Record {
  std::vector<std::string> what;
  std::vector<std::uint64_t> bits;

  void add(const std::string& name, double v) { add(name, std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& name, std::uint64_t v) {
    what.push_back(name);
    bits.push_back(v);
  }

  /// The value a step returned, now(), last_phase_stats(), link_loads()
  /// (every used link) and fault_stats().
  void observe(const std::string& step, double returned, const Machine& m) {
    add(step + ".returned", returned);
    add(step + ".now", m.now());
    const PhaseStats& s = m.last_phase_stats();
    add(step + ".stats.elapsed", s.elapsed);
    add(step + ".stats.mean_hops", s.mean_hops);
    add(step + ".stats.flows", s.flows);
    add(step + ".stats.completed", s.completed);
    add(step + ".stats.retried", s.retried);
    add(step + ".stats.failed", s.failed);
    add(step + ".stats.retry_added_latency", s.retry_added_latency);
    const LinkLoads& loads = m.link_loads();
    add(step + ".loads.window_s", loads.window_s);
    add(step + ".loads.capacity_bytes", loads.capacity_bytes);
    add(step + ".loads.max_utilization", loads.max_utilization);
    add(step + ".loads.used", static_cast<std::uint64_t>(loads.used.size()));
    for (std::size_t l = 0; l < loads.links.size(); ++l) {
      const LinkLoads::Link& link = loads.links[l];
      if (link.flows == 0) continue;
      const std::string name = step + ".link" + std::to_string(l);
      add(name + ".bytes", link.bytes);
      add(name + ".slowest_bps", link.slowest_bps);
      add(name + ".flows", std::uint64_t{link.flows});
    }
    const FaultStats& f = m.fault_stats();
    add(step + ".faults.events_applied", f.events_applied);
    add(step + ".faults.routing_rebuilds", f.routing_rebuilds);
    add(step + ".faults.flows_retried", f.flows_retried);
    add(step + ".faults.flows_failed", f.flows_failed);
    add(step + ".faults.retry_added_latency", f.retry_added_latency);
  }
};

inline void expect_identical(const Record& want, const Record& got, const std::string& label) {
  ASSERT_EQ(want.what, got.what) << label;
  for (std::size_t i = 0; i < want.bits.size(); ++i) {
    EXPECT_EQ(want.bits[i], got.bits[i]) << label << ": " << want.what[i] << " "
                                         << std::bit_cast<double>(want.bits[i]) << " vs "
                                         << std::bit_cast<double>(got.bits[i]);
  }
}

}  // namespace orp
