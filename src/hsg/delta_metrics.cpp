#include "hsg/delta_metrics.hpp"

#include <algorithm>
#include <span>

#include "obs/metrics.hpp"

namespace orp {
namespace {

// Per-process delta-eval counters: apply volume and repair mix.
struct DeltaInstruments {
  obs::Counter& applies;
  obs::Counter& reverts;
  obs::Counter& dirty_sources;
  obs::Counter& single_affected;
  obs::Counter& row_rescans;
  obs::Counter& early_rejects;
  obs::Counter& sources_skipped;

  static DeltaInstruments& get() {
    auto& registry = obs::Registry::global();
    static DeltaInstruments instance{
        registry.counter("delta_eval.applies"),
        registry.counter("delta_eval.reverts"),
        registry.counter("delta_eval.dirty_sources"),
        registry.counter("delta_eval.single_affected"),
        registry.counter("delta_eval.row_rescans"),
        registry.counter("delta_eval.early_rejects"),
        registry.counter("delta_eval.sources_skipped")};
    return instance;
  }
};

}  // namespace

DeltaHasplEvaluator::DeltaHasplEvaluator(const HostSwitchGraph& g) { rebuild(g); }

void DeltaHasplEvaluator::rebuild(const HostSwitchGraph& g) {
  ORP_REQUIRE(g.fully_attached(),
              "delta evaluator needs every host attached to a switch");
  m_ = g.num_switches();

  // Stride r+2: a replayed move may transiently push a switch one past its
  // final degree (additions are mirrored before removals).
  adj_stride_ = g.radix() + 2;
  adj_.assign(std::size_t{m_} * adj_stride_, 0);
  degree_.assign(m_, 0);
  weight_.resize(m_);
  sync_graph(g);

  dist_.assign(std::size_t{m_} * m_, kNoDistance);
  sum_w_.assign(m_, 0);
  unreach_w_.assign(m_, 0);
  row_max_.assign(m_, RowMax{0, 0});

  dirty_sources_.clear();
  dirty_sources_.reserve(m_);
  queue_.clear();
  queue_.reserve(m_);
  affected_.reserve(m_);
  level_cur_.reserve(m_);
  level_next_.reserve(m_);
  tentative_.assign(m_, kNoDistance);
  visit_epoch_.assign(m_, 0);
  epoch_ = 0;
  buckets_.assign(std::size_t{m_} + 2, {});

  alt_u_.assign(m_, 0);
  alt_v_.assign(m_, 0);

  undo_entries_.clear();
  undo_entries_.reserve(std::size_t{8} * m_);
  undo_rows_.clear();
  undo_rows_.reserve(m_);
  frames_.clear();
  row_epoch_.assign(m_, 0);
  rescan_epoch_.assign(m_, 0);
  rescan_rows_.clear();
  rescan_rows_.reserve(m_);
  apply_epoch_ = 0;
  bound_on_ = false;
  repaired_epoch_.assign(m_, 0);
  removal_epoch_ = 0;

  rebuild_all_rows();
  rebuild_aggregates();

  // A disconnected snapshot is rejected outright: the incremental repair
  // invariants assume the mirrored baseline has every host pair reachable
  // (the annealer establishes this before constructing the evaluator), and
  // silently seeding the mirror from a split graph would corrupt every
  // subsequent delta. Transient disconnection via apply() stays supported —
  // that is the annealer's reject path.
  for (std::uint32_t s = 0; s < m_; ++s) {
    ORP_REQUIRE(weight_[s] == 0 || unreach_w_[s] == 0,
                "delta evaluator needs a connected initial solution "
                "(some host pair is unreachable in the snapshot)");
  }
}

void DeltaHasplEvaluator::sync_graph(const HostSwitchGraph& g) {
  ORP_ASSERT(g.num_switches() == m_);
  n_ = g.num_hosts();
  std::fill(degree_.begin(), degree_.end(), 0);
  for (SwitchId s = 0; s < m_; ++s) {
    for (SwitchId t : g.neighbors(s)) {
      adj_[std::size_t{s} * adj_stride_ + degree_[s]++] = t;
    }
  }
  for (SwitchId s = 0; s < m_; ++s) weight_[s] = g.hosts_on(s);
}

void DeltaHasplEvaluator::adj_add(SwitchId a, SwitchId b) {
  ORP_ASSERT(degree_[a] < adj_stride_ && degree_[b] < adj_stride_);
  adj_[std::size_t{a} * adj_stride_ + degree_[a]++] = b;
  adj_[std::size_t{b} * adj_stride_ + degree_[b]++] = a;
}

void DeltaHasplEvaluator::adj_remove(SwitchId a, SwitchId b) {
  auto drop = [&](SwitchId x, SwitchId y) {
    SwitchId* list = adj_.data() + std::size_t{x} * adj_stride_;
    const std::uint32_t deg = degree_[x];
    for (std::uint32_t i = 0; i < deg; ++i) {
      if (list[i] == y) {
        list[i] = list[deg - 1];
        --degree_[x];
        return;
      }
    }
    ORP_ASSERT(false);
  };
  drop(a, b);
  drop(b, a);
}

void DeltaHasplEvaluator::write_entry(std::uint32_t s, std::uint32_t v,
                                      std::uint16_t next) {
  std::uint16_t* rs = row(s);
  const std::uint16_t old = rs[v];
  if (old == next) return;
  if (row_epoch_[s] != apply_epoch_) {
    row_epoch_[s] = apply_epoch_;
    undo_rows_.push_back({s, sum_w_[s], unreach_w_[s], row_max_[s]});
  }
  undo_entries_.push_back(std::uint64_t{s} << 32 | std::uint64_t{v} << 16 | old);
  rs[v] = next;

  // Maintain the weighted aggregates in place; only a row left with no
  // target at its max needs a deferred rescan (a complete apply drains
  // rescan_rows_ last, skipping rows a later write refilled). Until then
  // row_max_[s].value is an upper bound on the true max.
  const std::uint32_t wv = weight_[v];
  if (!wv) return;
  if (bound_on_) {
    // While the bound is on no host pair is unreachable, so old and next
    // are finite wherever weight_[s] is nonzero.
    const std::uint64_t share =
        !removing_ ? 1 : (repaired_epoch_[v] == removal_epoch_ ? 0 : 2);
    bound_ += share * weight_[s] * wv * (std::uint64_t{next} - old);
  }
  if (old == kNoDistance) {
    unreach_w_[s] -= wv;
  } else {
    sum_w_[s] -= std::uint64_t{wv} * old;
    if (max_drop(s, old) && rescan_epoch_[s] != apply_epoch_) {
      rescan_epoch_[s] = apply_epoch_;
      rescan_rows_.push_back(s);
    }
  }
  if (next == kNoDistance) {
    unreach_w_[s] += wv;
  } else {
    sum_w_[s] += std::uint64_t{wv} * next;
    max_add(s, next);
  }
}

void DeltaHasplEvaluator::max_add(std::uint32_t s, std::uint16_t d) noexcept {
  RowMax& mx = row_max_[s];
  if (d > mx.value) {
    mx = {d, 1};
  } else if (d == mx.value) {
    ++mx.count;
  }
}

bool DeltaHasplEvaluator::max_drop(std::uint32_t s, std::uint16_t d) noexcept {
  RowMax& mx = row_max_[s];
  return d == mx.value && --mx.count == 0;
}

void DeltaHasplEvaluator::recompute_row_aggregates(std::uint32_t s) {
  const std::uint16_t* rs = row(s);
  std::uint64_t sum = 0, unreach = 0;
  row_max_[s] = {0, 0};
  for (std::uint32_t v = 0; v < m_; ++v) {
    const std::uint32_t wv = weight_[v];
    if (!wv) continue;
    const std::uint16_t d = rs[v];
    if (d == kNoDistance) {
      unreach += wv;
    } else {
      sum += std::uint64_t{wv} * d;
      max_add(s, d);
    }
  }
  sum_w_[s] = sum;
  unreach_w_[s] = unreach;
}

void DeltaHasplEvaluator::rescan_row_max(std::uint32_t s) {
  ++stats_.row_rescans;
  const std::uint16_t* rs = row(s);
  row_max_[s] = {0, 0};
  for (std::uint32_t v = 0; v < m_; ++v) {
    if (weight_[v] && rs[v] != kNoDistance) max_add(s, rs[v]);
  }
}

// ---- per-source repairs -------------------------------------------------

void DeltaHasplEvaluator::repair_addition(std::uint32_t s, SwitchId near,
                                          SwitchId far) {
  // Pruned BFS from the farther endpoint: every vertex improvable through
  // the new edge is reached through `far`, and the pruning (only enqueue on
  // strict improvement) is exact for unit weights.
  std::uint16_t* rs = row(s);
  const std::uint32_t nd = std::uint32_t{rs[near]} + 1;
  queue_.clear();
  write_entry(s, far, static_cast<std::uint16_t>(nd));
  queue_.push_back(far);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::uint32_t x = queue_[head];
    const std::uint32_t dx = rs[x];
    const SwitchId* nb = adj_.data() + std::size_t{x} * adj_stride_;
    const std::uint32_t deg = degree_[x];
    for (std::uint32_t i = 0; i < deg; ++i) {
      const SwitchId y = nb[i];
      if (std::uint32_t{rs[y]} > dx + 1) {
        write_entry(s, y, static_cast<std::uint16_t>(dx + 1));
        queue_.push_back(y);
      }
    }
  }
}

void DeltaHasplEvaluator::repair_removal(std::uint32_t s, SwitchId far) {
  std::uint16_t* rs = row(s);

  // Phase 1 — affected-set discovery in old-BFS-level order. `far` lost its
  // last predecessor (checked by the caller's filter); a deeper vertex is
  // affected iff every predecessor on the previous level is affected, which
  // level-ordered processing decides with finalized information.
  epoch_ += 2;  // epoch_ = affected, epoch_ + 1 = settled (phase 2)
  const std::uint32_t aff = epoch_, settled = epoch_ + 1;
  affected_.clear();
  level_cur_.clear();
  visit_epoch_[far] = aff;
  affected_.push_back(far);
  level_cur_.push_back(far);
  std::uint32_t d = rs[far];
  while (!level_cur_.empty()) {
    level_next_.clear();
    for (std::uint32_t x : level_cur_) {
      const SwitchId* nb = adj_.data() + std::size_t{x} * adj_stride_;
      const std::uint32_t deg = degree_[x];
      for (std::uint32_t i = 0; i < deg; ++i) {
        const SwitchId y = nb[i];
        if (std::uint32_t{rs[y]} != d + 1 || visit_epoch_[y] == aff) continue;
        bool has_alt = false;
        const SwitchId* ynb = adj_.data() + std::size_t{y} * adj_stride_;
        const std::uint32_t ydeg = degree_[y];
        for (std::uint32_t j = 0; j < ydeg; ++j) {
          const SwitchId z = ynb[j];
          if (visit_epoch_[z] != aff && std::uint32_t{rs[z]} + 1 == std::uint32_t{rs[y]}) {
            has_alt = true;
            break;
          }
        }
        if (has_alt) continue;
        visit_epoch_[y] = aff;
        affected_.push_back(y);
        level_next_.push_back(y);
      }
    }
    level_cur_.swap(level_next_);
    ++d;
  }

  // Single-vertex affected set (the common case in well-connected graphs):
  // every neighbor distance is final, so the new value is a direct min.
  if (affected_.size() == 1) {
    ++stats_.single_affected;
    std::uint32_t best = kNoDistance;
    const SwitchId* nb = adj_.data() + std::size_t{far} * adj_stride_;
    const std::uint32_t deg = degree_[far];
    for (std::uint32_t i = 0; i < deg; ++i) {
      const std::uint32_t cand = std::uint32_t{rs[nb[i]]} + 1;
      if (cand < best) best = cand;
    }
    write_entry(s, far,
                best >= kNoDistance ? kNoDistance : static_cast<std::uint16_t>(best));
    return;
  }

  ++stats_.two_phase_repairs;

  // Phase 2 — re-relax the affected region from its unaffected boundary
  // (whose distances are final) with a bucket queue; unit weights keep the
  // buckets dense. Vertices never settled are now unreachable.
  std::uint32_t min_b = m_ + 1, max_b = 0;
  for (std::uint32_t x : affected_) {
    std::uint32_t best = kNoDistance;
    const SwitchId* nb = adj_.data() + std::size_t{x} * adj_stride_;
    const std::uint32_t deg = degree_[x];
    for (std::uint32_t i = 0; i < deg; ++i) {
      const SwitchId z = nb[i];
      if (visit_epoch_[z] != aff && rs[z] != kNoDistance &&
          std::uint32_t{rs[z]} + 1 < best) {
        best = std::uint32_t{rs[z]} + 1;
      }
    }
    tentative_[x] = static_cast<std::uint16_t>(best);
    if (best <= m_) {
      buckets_[best].push_back(x);
      min_b = std::min(min_b, best);
      max_b = std::max(max_b, best);
    }
  }
  for (std::uint32_t d2 = min_b; d2 <= max_b && d2 <= m_; ++d2) {
    auto& bucket = buckets_[d2];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const std::uint32_t x = bucket[i];
      if (visit_epoch_[x] != aff || tentative_[x] != d2) continue;  // settled/stale
      visit_epoch_[x] = settled;
      write_entry(s, x, static_cast<std::uint16_t>(d2));
      const SwitchId* nb = adj_.data() + std::size_t{x} * adj_stride_;
      const std::uint32_t deg = degree_[x];
      for (std::uint32_t j = 0; j < deg; ++j) {
        const SwitchId y = nb[j];
        if (visit_epoch_[y] == aff && std::uint32_t{tentative_[y]} > d2 + 1) {
          tentative_[y] = static_cast<std::uint16_t>(d2 + 1);
          buckets_[d2 + 1].push_back(y);
          max_b = std::max(max_b, d2 + 1);
        }
      }
    }
    bucket.clear();
  }
  for (std::uint32_t x : affected_) {
    if (visit_epoch_[x] == aff) write_entry(s, x, kNoDistance);
  }
}

void DeltaHasplEvaluator::repair_endpoint_row(std::uint32_t s) {
  ++stats_.endpoint_rows;
  // Every other row already holds its post-removal value, and D is
  // symmetric, so each entry is one Bellman step over final rows:
  // D'[s][x] = 1 + min over surviving neighbors z of D'[z][x].
  std::uint16_t* next = tentative_.data();
  std::fill(next, next + m_, kNoDistance);
  const SwitchId* nb = adj_.data() + std::size_t{s} * adj_stride_;
  const std::uint32_t deg = degree_[s];
  for (std::uint32_t i = 0; i < deg; ++i) {
    const std::uint16_t* rz = row(nb[i]);
    for (std::uint32_t x = 0; x < m_; ++x) next[x] = std::min(next[x], rz[x]);
  }
  const std::uint16_t* rs = row(s);
  for (std::uint32_t x = 0; x < m_; ++x) {
    // The +1 saturates at the unreachable sentinel; D[s][s] stays 0.
    const auto d = static_cast<std::uint16_t>(next[x] + (next[x] != kNoDistance));
    if (d != rs[x] && x != s) write_entry(s, x, d);
  }
}

void DeltaHasplEvaluator::rebuild_all_rows() {
  all_pairs_switch_distances(
      m_,
      [this](std::uint32_t v) {
        return std::span<const SwitchId>(adj_.data() + std::size_t{v} * adj_stride_,
                                         degree_[v]);
      },
      dist_.data(), distance_scratch_);
}

void DeltaHasplEvaluator::rebuild_aggregates() {
  weighted_switches_ = 0;
  for (std::uint32_t s = 0; s < m_; ++s) {
    if (weight_[s]) ++weighted_switches_;
    recompute_row_aggregates(s);
  }
}

// ---- change application -------------------------------------------------

void DeltaHasplEvaluator::apply_edge_addition(SwitchId u, SwitchId v) {
  // Collect the dirty sources before repairing any row: the filter reads
  // rows u and v, which may themselves be dirty.
  dirty_sources_.clear();
  const std::uint16_t* ru = row(u);
  const std::uint16_t* rv = row(v);
  // |du - dv| >= 2 covers every case in one predictable test: equal levels
  // (incl. both unreachable) give 0, an adjacent-level pair gives 1, and a
  // finite/unreachable pair gives a huge gap (a real shortcut).
  for (std::uint32_t s = 0; s < m_; ++s) {
    const std::uint32_t du = ru[s], dv = rv[s];
    const std::uint32_t gap = du > dv ? du - dv : dv - du;
    if (gap >= 2) dirty_sources_.push_back(s);
  }
  stats_.dirty_sources += dirty_sources_.size();
  for (std::uint32_t s : dirty_sources_) {
    const std::uint16_t* base_u = row(u);  // row u may have been repaired (s == u)
    const std::uint16_t* base_v = row(v);
    const bool u_near = std::uint32_t{base_u[s]} < std::uint32_t{base_v[s]};
    repair_addition(s, u_near ? u : v, u_near ? v : u);
  }
}

bool DeltaHasplEvaluator::apply_edge_removal(SwitchId u, SwitchId v, RejectTest* test) {
  // Dirty filter: row s changes iff the endpoints sat on different BFS
  // levels AND the deeper endpoint has no surviving neighbor one level
  // closer (the adjacency already excludes the removed edge, so only
  // survivors are seen). The surviving-predecessor masks are built with
  // branch-free row-vs-row sweeps (one per endpoint neighbor) that the
  // compiler vectorizes over uint16 lanes; rz[s] + 1 wrapping at the
  // unreachable sentinel can only collide at s == u (resp. v), whose mask
  // entry is never consulted because that source's far endpoint is the
  // other one.
  dirty_sources_.clear();
  const std::uint16_t* ru = row(u);
  const std::uint16_t* rv = row(v);
  auto build_alt_mask = [&](SwitchId x, const std::uint16_t* rx,
                            std::uint16_t* alt) {
    std::fill(alt, alt + m_, 0);
    const SwitchId* nb = adj_.data() + std::size_t{x} * adj_stride_;
    const std::uint32_t deg = degree_[x];
    for (std::uint32_t i = 0; i < deg; ++i) {
      const std::uint16_t* rz = row(nb[i]);
      for (std::uint32_t s = 0; s < m_; ++s) {
        alt[s] |= static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(rz[s] + 1) == rx[s]);
      }
    }
  };
  build_alt_mask(u, ru, alt_u_.data());
  build_alt_mask(v, rv, alt_v_.data());
  for (std::uint32_t s = 0; s < m_; ++s) {
    const std::uint32_t du = ru[s], dv = rv[s];
    if (du == dv) continue;  // edge on no shortest path from s (or both inf)
    if (std::max(du, dv) == kNoDistance) continue;  // already unreachable
    if (!(du > dv ? alt_u_[s] : alt_v_[s])) dirty_sources_.push_back(s);
  }
  stats_.dirty_sources += dirty_sources_.size();
  // The removed edge's own endpoint rows go last, where every row they read
  // is final (repair_endpoint_row). The order moves checkpoints, never the
  // final bound, so it changes no decision.
  std::size_t others = 0;
  bool u_dirty = false, v_dirty = false;
  for (const std::uint32_t s : dirty_sources_) {
    u_dirty |= s == u;
    v_dirty |= s == v;
    if (s != u && s != v) dirty_sources_[others++] = s;
  }
  dirty_sources_.resize(others);
  if (u_dirty) dirty_sources_.push_back(u);
  if (v_dirty) dirty_sources_.push_back(v);
  // Each repaired source is a checkpoint: the bound now counts every pair
  // with an endpoint among the repaired rows at its full change.
  ++removal_epoch_;
  removing_ = true;
#ifndef NDEBUG
  std::uint64_t last_bound = bound_;
#endif
  for (std::size_t i = 0; i < dirty_sources_.size(); ++i) {
    const std::uint32_t s = dirty_sources_[i];
    if (s == u || s == v) {
      repair_endpoint_row(s);
    } else {
      const bool v_far = std::uint32_t{row(v)[s]} > std::uint32_t{row(u)[s]};
      repair_removal(s, v_far ? v : u);
    }
    if (!test) continue;
    repaired_epoch_[s] = removal_epoch_;
#ifndef NDEBUG
    ORP_ASSERT(bound_ >= last_bound);
    last_bound = bound_;
#endif
    if (test->rejects(total_length_of(bound_))) {
      stats_.sources_skipped += dirty_sources_.size() - i - 1;
      return false;
    }
  }
  return true;
}

void DeltaHasplEvaluator::apply_host_move(SwitchId from, SwitchId to) {
  ORP_ASSERT(weight_[from] > 0);
  // Shrinking a row max on a weight zero-crossing is the one change the
  // undo log cannot reverse arithmetically: snapshot all row maxes once.
  if (weight_[from] == 1 || weight_[to] == 0) {
    UndoFrame& frame = frames_.back();
    if (!frame.row_max_snapshot_valid) {
      frame.row_max_snapshot.assign(row_max_.begin(), row_max_.end());
      frame.row_max_snapshot_valid = true;
    }
  }
  auto shift = [&](SwitchId x, bool gain) {
    const std::uint16_t* rx = row(x);
    const std::uint32_t old_w = weight_[x];
    const std::uint32_t new_w = gain ? old_w + 1 : old_w - 1;
    for (std::uint32_t s = 0; s < m_; ++s) {
      const std::uint16_t dxs = rx[s];
      if (dxs == kNoDistance) {
        unreach_w_[s] += gain ? 1 : std::uint64_t(-1);
      } else if (gain) {
        sum_w_[s] += dxs;
      } else {
        sum_w_[s] -= dxs;
      }
    }
    weight_[x] = new_w;
    if (old_w == 0 && new_w > 0) {
      ++weighted_switches_;
      for (std::uint32_t s = 0; s < m_; ++s) {
        if (rx[s] != kNoDistance) max_add(s, rx[s]);
      }
    } else if (old_w > 0 && new_w == 0) {
      --weighted_switches_;
      for (std::uint32_t s = 0; s < m_; ++s) {
        if (rx[s] != kNoDistance && max_drop(s, rx[s])) rescan_row_max(s);
      }
    }
  };
  shift(from, /*gain=*/false);
  shift(to, /*gain=*/true);
}

HostMetrics DeltaHasplEvaluator::apply(const GraphDelta& delta) {
  apply_frame(delta, nullptr);
  return metrics();
}

std::optional<HostMetrics> DeltaHasplEvaluator::apply_or_reject(const GraphDelta& delta,
                                                                RejectTest& test) {
  if (!apply_frame(delta, &test)) return std::nullopt;
  return metrics();
}

bool DeltaHasplEvaluator::apply_frame(const GraphDelta& delta, RejectTest* test) {
  DeltaInstruments& instruments = DeltaInstruments::get();
  ++stats_.applies;
  instruments.applies.inc();
  stats_.edge_changes += delta.num_added + delta.num_removed;
  const Stats before = stats_;
  const auto count_repairs = [&] {
    instruments.dirty_sources.add(stats_.dirty_sources - before.dirty_sources);
    instruments.single_affected.add(stats_.single_affected - before.single_affected);
    instruments.row_rescans.add(stats_.row_rescans - before.row_rescans);
  };

  ++apply_epoch_;
  rescan_rows_.clear();
  // An apply that is never reverted (an accepted move) leaves its frame
  // behind; bound the stack by forgetting the oldest frame. Depth 4 covers
  // every real nesting (the 2-neighbor completion chain needs 2).
  constexpr std::size_t kMaxUndoDepth = 4;
  if (frames_.size() >= kMaxUndoDepth) {
    const std::size_t drop_e = frames_[1].entries_begin;
    const std::size_t drop_r = frames_[1].rows_begin;
    undo_entries_.erase(undo_entries_.begin(),
                        undo_entries_.begin() + static_cast<std::ptrdiff_t>(drop_e));
    undo_rows_.erase(undo_rows_.begin(),
                     undo_rows_.begin() + static_cast<std::ptrdiff_t>(drop_r));
    frames_.erase(frames_.begin());
    for (UndoFrame& f : frames_) {
      f.entries_begin -= drop_e;
      f.rows_begin -= drop_r;
    }
  }
  UndoFrame frame;
  frame.entries_begin = undo_entries_.size();
  frame.rows_begin = undo_rows_.size();
  frame.delta = delta;
  frames_.push_back(std::move(frame));

  // Host moves first, so every entry write below sees the final weights.
  for (std::uint8_t i = 0; i < delta.num_host_moves; ++i) {
    apply_host_move(delta.host_moves[i].from, delta.host_moves[i].to);
  }
  // The bound starts exact, from the distances before the edge changes,
  // and only when every host pair is still reachable.
  removing_ = false;
  bound_on_ = false;
  if (test) {
    bound_ = ordered_length();
    bound_on_ = bound_ != kUnconnected;
  }

  // Additions before removals: they can only shrink distances, so a move
  // that keeps the graph connected never routes the repair through a
  // transiently disconnected state.
  for (std::uint8_t i = 0; i < delta.num_added; ++i) {
    adj_add(delta.added[i].first, delta.added[i].second);
    apply_edge_addition(delta.added[i].first, delta.added[i].second);
  }

  // First checkpoint, where the bound is exact. The test only runs once
  // the removals provably keep every host pair connected: a disconnected
  // candidate is rejected by its caller without consulting it.
  bound_on_ = bound_on_ && removals_bypassed(delta);
  bool rejected = bound_on_ && test->rejects(total_length_of(bound_));
  for (std::uint8_t i = 0; i < delta.num_removed; ++i) {
    adj_remove(delta.removed[i].first, delta.removed[i].second);
    if (rejected) continue;
    rejected = !apply_edge_removal(delta.removed[i].first, delta.removed[i].second,
                                   bound_on_ ? test : nullptr);
  }
  if (rejected) {
    // The adjacency mirrors the whole delta; the rescans and the metrics
    // are skipped, and revert_last() undoes the partial repair.
    ++stats_.early_rejects;
    instruments.early_rejects.inc();
    instruments.sources_skipped.add(stats_.sources_skipped - before.sources_skipped);
    count_repairs();
    return false;
  }

  // write_entry kept sum/unreach exact; rows left with no target at their
  // max were queued once each. Rescan those still empty.
  for (std::uint32_t s : rescan_rows_) {
    if (row_max_[s].count == 0) rescan_row_max(s);
  }
  if (bound_on_) ORP_ASSERT(bound_ == ordered_length());
  count_repairs();
  return true;
}

void DeltaHasplEvaluator::revert_last() {
  ORP_REQUIRE(!frames_.empty(), "revert_last() without a pending apply()");
  ++stats_.reverts;
  DeltaInstruments::get().reverts.inc();
  UndoFrame frame = std::move(frames_.back());
  frames_.pop_back();

  // Exact inverse of apply(), step by step in reverse order. A stopped
  // apply_or_reject() frame replays the same way: its log holds exactly
  // the writes it made, and its adjacency mirrors the whole delta.
  // 1. Distance entries, newest first.
  while (undo_entries_.size() > frame.entries_begin) {
    const std::uint64_t e = undo_entries_.back();
    undo_entries_.pop_back();
    dist_[(e >> 32) * m_ + ((e >> 16) & 0xffff)] =
        static_cast<std::uint16_t>(e & 0xffff);
  }
  // 2. Aggregates of every touched row as they stood after the host moves.
  while (undo_rows_.size() > frame.rows_begin) {
    const RowSnapshot& snap = undo_rows_.back();
    sum_w_[snap.row] = snap.sum_w;
    unreach_w_[snap.row] = snap.unreach_w;
    row_max_[snap.row] = snap.row_max;
    undo_rows_.pop_back();
  }
  // 3. Host moves: the distance rows are back in their pre-apply state, the
  //    one the moves read, so the weight shifts invert arithmetically.
  const GraphDelta& d = frame.delta;
  for (int i = int{d.num_host_moves} - 1; i >= 0; --i) {
    const SwitchId to = d.host_moves[i].to;
    const SwitchId from = d.host_moves[i].from;
    const std::uint16_t* rt = row(to);
    for (std::uint32_t s = 0; s < m_; ++s) {
      if (rt[s] == kNoDistance) {
        --unreach_w_[s];
      } else {
        sum_w_[s] -= rt[s];
      }
    }
    if (--weight_[to] == 0) --weighted_switches_;
    const std::uint16_t* rf = row(from);
    for (std::uint32_t s = 0; s < m_; ++s) {
      if (rf[s] == kNoDistance) {
        ++unreach_w_[s];
      } else {
        sum_w_[s] += rf[s];
      }
    }
    if (weight_[from]++ == 0) ++weighted_switches_;
  }
  // 4. Row maxes mutated by a zero-crossing host move.
  if (frame.row_max_snapshot_valid) {
    std::copy(frame.row_max_snapshot.begin(), frame.row_max_snapshot.end(),
              row_max_.begin());
  }
  // 5. Mirrored adjacency (additions off first to respect the stride).
  for (int i = int{d.num_added} - 1; i >= 0; --i) {
    adj_remove(d.added[i].first, d.added[i].second);
  }
  for (int i = int{d.num_removed} - 1; i >= 0; --i) {
    adj_add(d.removed[i].first, d.removed[i].second);
  }
}

std::uint64_t DeltaHasplEvaluator::ordered_length() const {
  std::uint64_t ordered = 0;
  for (std::uint32_t s = 0; s < m_; ++s) {
    if (!weight_[s]) continue;
    if (unreach_w_[s]) return kUnconnected;
    ordered += std::uint64_t{weight_[s]} * sum_w_[s];
  }
  return ordered;
}

bool DeltaHasplEvaluator::removals_bypassed(const GraphDelta& delta) {
  const auto removed = [&delta](SwitchId x, SwitchId y) {
    for (std::uint8_t i = 0; i < delta.num_removed; ++i) {
      const auto [a, b] = delta.removed[i];
      if ((a == x && b == y) || (a == y && b == x)) return true;
    }
    return false;
  };
  for (std::uint8_t i = 0; i < delta.num_removed; ++i) {
    const auto [a, b] = delta.removed[i];
    // Mark b's surviving neighbours, then look for a-x-b or a-x-y-b.
    epoch_ += 2;  // past every epoch repair_removal has used
    const std::uint32_t near_b = epoch_;
    const SwitchId* nb = adj_.data() + std::size_t{b} * adj_stride_;
    for (std::uint32_t j = 0; j < degree_[b]; ++j) {
      if (!removed(b, nb[j])) visit_epoch_[nb[j]] = near_b;
    }
    bool joined = false;
    const SwitchId* na = adj_.data() + std::size_t{a} * adj_stride_;
    for (std::uint32_t j = 0; j < degree_[a] && !joined; ++j) {
      const SwitchId x = na[j];
      if (removed(a, x)) continue;
      if (visit_epoch_[x] == near_b) {
        joined = true;
        break;
      }
      const SwitchId* nx = adj_.data() + std::size_t{x} * adj_stride_;
      for (std::uint32_t k = 0; k < degree_[x]; ++k) {
        if (visit_epoch_[nx[k]] == near_b && !removed(x, nx[k])) {
          joined = true;
          break;
        }
      }
    }
    if (!joined) return false;
  }
  return true;
}

HostMetrics DeltaHasplEvaluator::metrics() const {
  // The same connected-pairs rule as compute_host_metrics, fed from the
  // maintained rows (bit-for-bit agreement is asserted by the differential
  // tests).
  std::uint64_t ordered = 0;
  std::uint64_t unreached_ordered = 0;
  std::uint16_t max_d = 0;
  for (std::uint32_t s = 0; s < m_; ++s) {
    if (!weight_[s]) continue;
    unreached_ordered += std::uint64_t{weight_[s]} * unreach_w_[s];
    ordered += std::uint64_t{weight_[s]} * sum_w_[s];
    max_d = std::max(max_d, row_max_[s].value);
  }
  return connected_pairs_metrics(n_, {ordered, unreached_ordered, max_d}, /*end_hops=*/2);
}

std::uint32_t DeltaHasplEvaluator::distance(SwitchId a, SwitchId b) const {
  ORP_ASSERT(a < m_ && b < m_);
  const std::uint16_t d = row(a)[b];
  return d == kNoDistance ? HostMetrics::kUnreachable : d;
}

}  // namespace orp
