#include "sim/fairshare_fast.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/require.hpp"

namespace orp {

bool max_min_certificate_ok(const PathStore& paths,
                            const std::vector<std::uint8_t>& active,
                            const std::vector<double>& rates, double capacity,
                            double tol, std::string* why) {
  const auto fail = [&](const std::string& message) {
    if (why) *why = message;
    return false;
  };
  LinkId max_link = 0;
  for (std::size_t f = 0; f < paths.size(); ++f) {
    if (!active[f]) continue;
    for (const LinkId l : paths[f]) max_link = std::max(max_link, l);
  }
  std::vector<double> load(static_cast<std::size_t>(max_link) + 1, 0.0);
  std::vector<double> top(load.size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    if (!active[f]) continue;
    if (!std::isfinite(rates[f]) || rates[f] < 0.0) {
      return fail("flow " + std::to_string(f) + " has a non-finite or negative rate");
    }
    for (const LinkId l : paths[f]) {
      load[l] += rates[f];
      top[l] = std::max(top[l], rates[f]);
    }
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    if (load[l] > capacity + tol) {
      return fail("link " + std::to_string(l) + " over capacity: " +
                  std::to_string(load[l]));
    }
  }
  for (std::size_t f = 0; f < paths.size(); ++f) {
    if (!active[f]) continue;
    if (paths[f].empty()) {
      if (std::abs(rates[f] - capacity) > tol) {
        return fail("zero-link flow " + std::to_string(f) +
                    " not at line rate: " + std::to_string(rates[f]));
      }
      continue;
    }
    bool bottlenecked = false;
    for (const LinkId l : paths[f]) {
      if (load[l] >= capacity - tol && rates[f] + tol >= top[l]) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) {
      return fail("flow " + std::to_string(f) +
                  " crosses no saturated link where its rate is maximal");
    }
  }
  return true;
}

FastFairShareSolver::FastFairShareSolver(double link_capacity)
    : capacity_(link_capacity) {
  ORP_REQUIRE(link_capacity > 0.0, "link capacity must be positive");
}

void FastFairShareSolver::set_paths(std::span<const LinkId> links,
                                    std::span<const PathRange> ranges,
                                    const std::vector<std::uint8_t>& active) {
  ORP_REQUIRE(active.size() >= ranges.size(), "active flag size mismatch");
  for (const LinkId l : touched_) link_slot_[l] = kNone;
  touched_.clear();
  num_flows_ = ranges.size();
  flow_route_.assign(num_flows_, kNone);
  route_offset_.clear();
  route_offset_.push_back(0);
  route_slots_.clear();
  route_weight_.clear();
  route_rate_.clear();
  have_solution_ = false;
  changed_routes_.clear();
  deactivated_.clear();

  // Open-addressed dedup table over the path hash; sized for a <50% load
  // factor so linear probing stays short.
  std::size_t table = 16;
  while (table < 2 * num_flows_ + 2) table <<= 1;
  dedup_.assign(table, {0, kNone});
  dedup_mask_ = table - 1;

  for (std::size_t f = 0; f < num_flows_; ++f) {
    if (!active[f]) continue;
    const PathRange range = ranges[f];
    ORP_REQUIRE(range.begin <= range.end && range.end <= links.size(),
                "path range out of bounds");
    const std::span<const LinkId> path =
        links.subspan(range.begin, range.end - range.begin);
    if (path.empty()) {
      flow_route_[f] = kZeroLink;  // zero-link flow: line rate, no filling
      continue;
    }
    // One multiply per link, high bits folded down once for the index.
    std::uint64_t hash = 0x2545f4914f6cdd1dULL;
    for (const LinkId l : path) {
      hash = (hash ^ (static_cast<std::uint64_t>(l) + 1)) * 0x9e3779b97f4a7c15ULL;
    }
    hash ^= hash >> 29;
    std::uint32_t route = kNone;
    std::size_t idx = hash & dedup_mask_;
    while (dedup_[idx].second != kNone) {
      if (dedup_[idx].first == hash) {
        const std::uint32_t candidate = dedup_[idx].second;
        const std::uint32_t begin = route_offset_[candidate];
        const std::uint32_t end = route_offset_[candidate + 1];
        if (end - begin == path.size()) {
          bool same = true;
          for (std::uint32_t k = 0; k < path.size(); ++k) {
            if (touched_[route_slots_[begin + k]] != path[k]) {
              same = false;
              break;
            }
          }
          if (same) {
            route = candidate;
            break;
          }
        }
      }
      idx = (idx + 1) & dedup_mask_;
    }
    if (route == kNone) {
      route = static_cast<std::uint32_t>(route_weight_.size());
      dedup_[idx] = {hash, route};
      for (const LinkId l : path) {
        if (l >= link_slot_.size()) link_slot_.resize(l + std::size_t{1}, kNone);
        if (link_slot_[l] == kNone) {
          link_slot_[l] = static_cast<std::uint32_t>(touched_.size());
          touched_.push_back(l);
        }
        route_slots_.push_back(link_slot_[l]);
      }
      route_offset_.push_back(static_cast<std::uint32_t>(route_slots_.size()));
      route_weight_.push_back(0);
      route_rate_.push_back(0.0);
    }
    ++route_weight_[route];
    flow_route_[f] = route;
  }

  // Per-slot incidence lists (counting-sort CSR). A route crossing a link
  // twice is listed twice, mirroring the reference solver's double count.
  const std::size_t num_slots = touched_.size();
  slot_route_offset_.assign(num_slots + 1, 0);
  for (const std::uint32_t s : route_slots_) ++slot_route_offset_[s + 1];
  for (std::size_t s = 0; s < num_slots; ++s) {
    slot_route_offset_[s + 1] += slot_route_offset_[s];
  }
  slot_routes_.resize(route_slots_.size());
  std::vector<std::uint32_t>& cursor = csr_cursor_;
  cursor.assign(slot_route_offset_.begin(), slot_route_offset_.end() - 1);
  for (std::uint32_t r = 0; r < route_weight_.size(); ++r) {
    for (std::uint32_t k = route_offset_[r]; k < route_offset_[r + 1]; ++k) {
      slot_routes_[cursor[route_slots_[k]]++] = r;
    }
  }
  route_changed_.assign(route_weight_.size(), 0);
  slot_in_suffix_.assign(num_slots, 0);

  // Per-route member lists (counting-sort CSR, flows in id order).
  const std::size_t num_routes = route_weight_.size();
  route_flow_offset_.assign(num_routes + 1, 0);
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    route_flow_offset_[r + 1] = route_flow_offset_[r] + route_weight_[r];
  }
  route_flows_.resize(route_flow_offset_[num_routes]);
  flow_pos_.assign(num_flows_, kNone);
  cursor.assign(route_flow_offset_.begin(), route_flow_offset_.end() - 1);
  for (std::uint32_t f = 0; f < num_flows_; ++f) {
    const std::uint32_t r = flow_route_[f];
    if (r == kNone || r == kZeroLink) continue;
    flow_pos_[f] = cursor[r];
    route_flows_[cursor[r]++] = f;
  }
}

void FastFairShareSolver::deactivate(std::size_t f) {
  ORP_ASSERT(f < num_flows_);
  const std::uint32_t r = flow_route_[f];
  if (r == kNone) return;  // repeated deactivation is a no-op
  flow_route_[f] = kNone;
  if (have_solution_) deactivated_.push_back(static_cast<std::uint32_t>(f));
  if (r == kZeroLink) return;
  ORP_ASSERT(route_weight_[r] > 0);
  // Swap f behind the route's live members.
  const std::uint32_t last = route_flow_offset_[r] + route_weight_[r] - 1;
  const std::uint32_t pos = flow_pos_[f];
  const std::uint32_t other = route_flows_[last];
  route_flows_[pos] = other;
  flow_pos_[other] = pos;
  route_flows_[last] = static_cast<std::uint32_t>(f);
  flow_pos_[f] = last;
  --route_weight_[r];
  if (have_solution_ && !route_changed_[r]) {
    route_changed_[r] = 1;
    changed_routes_.push_back(r);
  }
}

std::uint32_t FastFairShareSolver::bucket_index(double key) const {
  const double offset = (key - bucket_lo_) * bucket_winv_;
  std::uint32_t idx =
      offset <= 0.0 ? 0
                    : std::min<std::uint32_t>(static_cast<std::uint32_t>(offset),
                                              kNumBuckets - 1);
  // Never file behind the scan cursor — rounding dust on a key at the
  // current level must not make its entry unreachable.
  return std::max(idx, cur_bucket_);
}

void FastFairShareSolver::reset_queue(double lo, double hi) {
  if (buckets_.empty()) {
    buckets_.resize(kNumBuckets);
    bucket_epoch_.assign(kNumBuckets, 0);
  }
  ++queue_epoch_;  // previous entries become garbage, cleared lazily
  cur_bucket_ = 0;
  bucket_lo_ = lo;
  const double range = hi - lo;
  bucket_width_ = range > 0.0 ? range / kNumBuckets : 0.0;
  bucket_winv_ = range > 0.0 ? kNumBuckets / range : 0.0;
}

void FastFairShareSolver::push_slot(std::uint32_t slot) {
  const double key =
      slot_level_[slot] +
      slot_residual_[slot] / static_cast<double>(slot_count_[slot]);
  const std::uint32_t idx = bucket_index(key);
  if (bucket_epoch_[idx] != queue_epoch_) {
    bucket_epoch_[idx] = queue_epoch_;
    buckets_[idx].clear();
  }
  buckets_[idx].push_back(
      {key, slot, static_cast<std::uint32_t>(slot_count_[slot])});
}

void FastFairShareSolver::freeze_route(std::uint32_t route, double level) {
  const std::uint64_t weight = route_weight_[route];
  for (std::uint32_t k = route_offset_[route]; k < route_offset_[route + 1];
       ++k) {
    const std::uint32_t s = route_slots_[k];
    // Roll the slot forward to `level` (all unfrozen crossers consumed at
    // the common fill rate since the last update), then retire this
    // route's weight — its consumption is constant from here on, so the
    // headroom at `level` is unchanged by the hand-off.
    slot_residual_[s] -=
        static_cast<double>(slot_count_[s]) * (level - slot_level_[s]);
    slot_level_[s] = level;
    slot_count_[s] -= weight;
    // No queue update here: the slot's entry is re-keyed lazily when it
    // surfaces at the top of the queue (keys only grow as weight
    // retires, so the stale smaller key surfaces first).
  }
}

void FastFairShareSolver::fill(double start_level, std::uint32_t unfrozen) {
  const double eps = capacity_ * 1e-12;
  // Drops a dead entry (emptied or already saturated slot) or refreshes a
  // stale one (a crossing route froze since the push; the count
  // fingerprint changed exactly when the key did, and keys only grow).
  // Returns false when the entry was removed from `entries[i]`.
  const auto settle = [&](std::vector<QueueEntry>& entries, std::size_t i,
                          std::uint32_t bucket) -> bool {
    QueueEntry& e = entries[i];
    const std::uint32_t s = e.slot;
    if (slot_count_[s] == 0 || slot_sat_round_[s] != kNone) {
      e = entries.back();
      entries.pop_back();
      return false;
    }
    if (e.count != static_cast<std::uint32_t>(slot_count_[s])) {
      e.count = static_cast<std::uint32_t>(slot_count_[s]);
      e.key = slot_level_[s] +
              slot_residual_[s] / static_cast<double>(slot_count_[s]);
      const std::uint32_t idx = bucket_index(e.key);
      if (idx != bucket) {
        // Rehouse forward (a grown key never maps behind its bucket).
        if (bucket_epoch_[idx] != queue_epoch_) {
          bucket_epoch_[idx] = queue_epoch_;
          buckets_[idx].clear();
        }
        buckets_[idx].push_back(e);
        e = entries.back();
        entries.pop_back();
        return false;
      }
    }
    return true;
  };

  while (unfrozen > 0) {
    // Pass 1: find the round's bottleneck level — advance past exhausted
    // buckets, then settle the first live bucket and take its minimum
    // fresh key. Progressive filling saturates a link every round while
    // unfrozen weight remains; running out of buckets means the tableau
    // is corrupt.
    double level;
    for (;;) {
      ORP_ASSERT(cur_bucket_ < kNumBuckets);
      if (bucket_epoch_[cur_bucket_] != queue_epoch_) {
        ++cur_bucket_;
        continue;
      }
      std::vector<QueueEntry>& entries = buckets_[cur_bucket_];
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < entries.size();) {
        if (!settle(entries, i, cur_bucket_)) continue;
        best = std::min(best, entries[i].key);
        ++i;
      }
      if (entries.empty()) {
        ++cur_bucket_;
        continue;
      }
      level = best;
      break;
    }
    ORP_ASSERT(level >= start_level);
    const std::uint32_t round = static_cast<std::uint32_t>(log_rounds_.size());
    const std::uint32_t slots_begin =
        static_cast<std::uint32_t>(log_slots_.size());

    // Pass 2: collect the round's saturated slots before freezing
    // anything: the bottleneck plus every slot whose headroom at `level`
    // is within the reference solver's freeze epsilon (remaining <=
    // capacity * 1e-12, i.e. key <= level + eps / count). Counts are
    // fixed during collection, matching the reference's scan-then-freeze
    // round structure. Any candidate's key is <= level + eps, and stale
    // entries are housed by an older, smaller key, so scanning the
    // buckets through bucket_index(level + eps) covers every candidate.
    const std::uint32_t last = bucket_index(level + eps);
    for (std::uint32_t b = cur_bucket_; b <= last; ++b) {
      if (bucket_epoch_[b] != queue_epoch_) continue;
      std::vector<QueueEntry>& entries = buckets_[b];
      for (std::size_t i = 0; i < entries.size();) {
        if (!settle(entries, i, b)) continue;
        const QueueEntry& e = entries[i];
        if (e.key <= level + eps / static_cast<double>(slot_count_[e.slot])) {
          slot_sat_round_[e.slot] = round;
          log_slots_.push_back(e.slot);
          entries[i] = entries.back();
          entries.pop_back();
          continue;
        }
        ++i;
      }
    }
    ORP_ASSERT(log_slots_.size() > slots_begin);

    // Freeze every unfrozen route crossing a slot saturated this round.
    for (std::uint32_t i = slots_begin; i < log_slots_.size(); ++i) {
      const std::uint32_t s = log_slots_[i];
      for (std::uint32_t k = slot_route_offset_[s];
           k < slot_route_offset_[s + 1]; ++k) {
        const std::uint32_t r = slot_routes_[k];
        if (frozen_[r]) continue;
        frozen_[r] = 1;
        route_rate_[r] = level;
        route_round_[r] = round;
        log_routes_.push_back(r);
        freeze_route(r, level);
        --unfrozen;
      }
    }
    log_rounds_.push_back({level,
                           static_cast<std::uint32_t>(log_routes_.size()),
                           static_cast<std::uint32_t>(log_slots_.size())});
  }
}

void FastFairShareSolver::cold_solve() {
  const std::size_t num_routes = route_weight_.size();
  const std::size_t num_slots = touched_.size();
  frozen_.assign(num_routes, 0);
  route_round_.assign(num_routes, kNone);
  slot_count_.assign(num_slots, 0);
  slot_residual_.assign(num_slots, capacity_);
  slot_level_.assign(num_slots, 0.0);
  slot_sat_round_.assign(num_slots, kNone);
  log_rounds_.clear();
  log_routes_.clear();
  log_slots_.clear();

  std::uint32_t unfrozen = 0;
  for (std::uint32_t r = 0; r < num_routes; ++r) {
    if (route_weight_[r] == 0) {
      frozen_[r] = 1;  // all member flows already deactivated
      route_rate_[r] = 0.0;
      continue;
    }
    ++unfrozen;
    for (std::uint32_t k = route_offset_[r]; k < route_offset_[r + 1]; ++k) {
      slot_count_[route_slots_[k]] += route_weight_[r];
    }
  }
  // Bucket range: initial keys start at capacity / max_count, and no key
  // ever exceeds capacity (a saturating slot's consumption equals
  // capacity with count >= 1); FP dust past either end is clamped.
  std::uint64_t max_count = 0;
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    max_count = std::max(max_count, slot_count_[s]);
  }
  reset_queue(max_count > 0 ? capacity_ / static_cast<double>(max_count) : 0.0,
              max_count > 0 ? capacity_ : 0.0);
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    if (slot_count_[s] > 0) push_slot(s);
  }
  fill(0.0, unfrozen);
}

bool FastFairShareSolver::warm_solve() {
  // The cut: the first filling round in which any changed route's link
  // saturated. Rounds strictly before it are unaffected by the weight
  // decrease — a changed route was still filling then (its freeze round
  // is at or after the first saturation among its own links), so earlier
  // rounds saw identical unfrozen sets, and shrinking a weight can only
  // raise the saturation level of the changed route's links, never lower
  // another link's.
  // A route freezes in the first round one of its own links saturates,
  // so route_round_ is exactly "first saturation among my links".
  std::uint32_t cut = static_cast<std::uint32_t>(log_rounds_.size());
  for (const std::uint32_t r : changed_routes_) {
    ORP_ASSERT(route_round_[r] != kNone);
    cut = std::min(cut, route_round_[r]);
  }
  ORP_ASSERT(cut < log_rounds_.size());
  if (cut == 0) return false;  // nothing to replay; cold solve is cheaper

  const std::uint32_t routes_begin = log_rounds_[cut - 1].routes_end;
  const std::uint32_t slots_begin = log_rounds_[cut - 1].slots_end;
  const double base_level = log_rounds_[cut - 1].level;

  // Unfreeze the suffix routes (those frozen in rounds >= cut) that still
  // have live member flows; fully-deactivated ones stay frozen at rate 0.
  suffix_routes_.clear();
  for (std::uint32_t i = routes_begin; i < log_routes_.size(); ++i) {
    const std::uint32_t r = log_routes_[i];
    route_round_[r] = kNone;
    if (route_weight_[r] == 0) {
      route_rate_[r] = 0.0;
      continue;
    }
    frozen_[r] = 0;
    suffix_routes_.push_back(r);
  }
  for (std::uint32_t i = slots_begin; i < log_slots_.size(); ++i) {
    slot_sat_round_[log_slots_[i]] = kNone;
  }
  log_routes_.resize(routes_begin);
  log_slots_.resize(slots_begin);
  log_rounds_.resize(cut);

  // Rebuild the state of every slot a suffix route crosses, as of
  // `base_level`: headroom = capacity minus the replayed prefix routes'
  // frozen consumption minus the unfrozen weight filled to base_level.
  // Prefix routes' weights are unchanged (a changed route's freeze round
  // is >= cut by the cut rule), so their cached rates are exact.
  suffix_slots_.clear();
  for (const std::uint32_t r : suffix_routes_) {
    for (std::uint32_t k = route_offset_[r]; k < route_offset_[r + 1]; ++k) {
      const std::uint32_t s = route_slots_[k];
      if (!slot_in_suffix_[s]) {
        slot_in_suffix_[s] = 1;
        suffix_slots_.push_back(s);
      }
    }
  }
  double lo = capacity_;
  for (const std::uint32_t s : suffix_slots_) {
    std::uint64_t count = 0;
    double frozen_consumption = 0.0;
    for (std::uint32_t k = slot_route_offset_[s]; k < slot_route_offset_[s + 1];
         ++k) {
      const std::uint32_t r = slot_routes_[k];
      if (route_weight_[r] == 0) continue;
      if (frozen_[r]) {
        frozen_consumption +=
            static_cast<double>(route_weight_[r]) * route_rate_[r];
      } else {
        count += route_weight_[r];
      }
    }
    slot_count_[s] = count;
    slot_level_[s] = base_level;
    slot_residual_[s] = capacity_ - frozen_consumption -
                        static_cast<double>(count) * base_level;
    if (count > 0) {
      lo = std::min(lo,
                    base_level + slot_residual_[s] / static_cast<double>(count));
    }
  }
  reset_queue(lo, capacity_);
  for (const std::uint32_t s : suffix_slots_) {
    if (slot_count_[s] > 0) push_slot(s);
  }
  for (const std::uint32_t s : suffix_slots_) slot_in_suffix_[s] = 0;

  fill(base_level, static_cast<std::uint32_t>(suffix_routes_.size()));
  return true;
}

void FastFairShareSolver::write_route(std::uint32_t r,
                                      std::vector<double>& rates) {
  const std::uint32_t begin = route_flow_offset_[r];
  for (std::uint32_t k = begin; k < begin + route_weight_[r]; ++k) {
    const std::uint32_t f = route_flows_[k];
    rates[f] = route_rate_[r];
    written_.push_back(f);
  }
}

const std::vector<std::uint32_t>& FastFairShareSolver::solve(
    std::vector<double>& rates) {
  ++stats_.solves;
  written_.clear();
  // Progressive filling treats equal-path flows identically, so writing
  // the per-route rate to the member flows reproduces the per-flow
  // allocation exactly.
  if (!have_solution_) {
    cold_solve();
    have_solution_ = true;
    deactivated_.clear();
    rates.assign(num_flows_, 0.0);
    for (std::uint32_t f = 0; f < num_flows_; ++f) {
      if (flow_route_[f] != kZeroLink) continue;
      rates[f] = capacity_;
      written_.push_back(f);
    }
    for (std::uint32_t r = 0; r < route_weight_.size(); ++r) write_route(r, rates);
  } else {
    ORP_ASSERT(rates.size() == num_flows_);
    for (const std::uint32_t f : deactivated_) rates[f] = 0.0;
    deactivated_.clear();
    if (!changed_routes_.empty()) {
      if (warm_solve()) {
        ++stats_.warm_solves;
        stats_.refilled_routes += suffix_routes_.size();
        for (const std::uint32_t r : suffix_routes_) write_route(r, rates);
      } else {
        cold_solve();
        for (std::uint32_t r = 0; r < route_weight_.size(); ++r) {
          write_route(r, rates);
        }
      }
      for (const std::uint32_t r : changed_routes_) route_changed_[r] = 0;
      changed_routes_.clear();
    }
  }
#ifndef NDEBUG
  std::string why;
  if (!self_check(&why)) {
    throw std::logic_error("FastFairShareSolver max-min certificate: " + why);
  }
#endif
  return written_;
}

bool FastFairShareSolver::self_check(std::string* why) const {
  if (!have_solution_) return true;
  const auto fail = [&](const std::string& message) {
    if (why) *why = message;
    return false;
  };
  const double tol = 1e-9 * capacity_;
  const std::size_t num_slots = touched_.size();
  std::vector<double> load(num_slots, 0.0);
  std::vector<double> top(num_slots, 0.0);
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    for (std::uint32_t k = slot_route_offset_[s]; k < slot_route_offset_[s + 1];
         ++k) {
      const std::uint32_t r = slot_routes_[k];
      if (route_weight_[r] == 0) continue;
      load[s] += static_cast<double>(route_weight_[r]) * route_rate_[r];
      top[s] = std::max(top[s], route_rate_[r]);
    }
    if (load[s] > capacity_ + tol) {
      return fail("link " + std::to_string(touched_[s]) +
                  " over capacity: " + std::to_string(load[s]));
    }
  }
  for (std::uint32_t r = 0; r < route_weight_.size(); ++r) {
    if (route_weight_[r] == 0) continue;
    bool bottlenecked = false;
    for (std::uint32_t k = route_offset_[r]; k < route_offset_[r + 1]; ++k) {
      const std::uint32_t s = route_slots_[k];
      if (load[s] >= capacity_ - tol && route_rate_[r] + tol >= top[s]) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) {
      return fail("route " + std::to_string(r) +
                  " crosses no saturated link where its rate is maximal");
    }
  }
  return true;
}

}  // namespace orp
