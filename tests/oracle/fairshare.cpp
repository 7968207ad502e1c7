#include "oracle/fairshare.hpp"

#include <limits>

#include "common/require.hpp"

namespace orp {

namespace {
constexpr std::uint32_t kUnused = 0xffffffffu;
}

PathStore to_path_store(const std::vector<std::vector<LinkId>>& paths) {
  PathStore store;
  for (const std::vector<LinkId>& path : paths) {
    const auto begin = static_cast<std::uint32_t>(store.links.size());
    store.links.insert(store.links.end(), path.begin(), path.end());
    store.ranges.push_back({begin, static_cast<std::uint32_t>(store.links.size())});
  }
  return store;
}

FairShareSolver::FairShareSolver(std::uint32_t num_links, double link_capacity)
    : capacity_(link_capacity), link_slot_(num_links, kUnused) {}

void FairShareSolver::solve(const std::vector<std::vector<LinkId>>& paths,
                            const std::vector<std::uint8_t>& active,
                            std::vector<double>& rates) {
  const std::size_t num_flows = paths.size();
  rates.assign(num_flows, 0.0);

  // Collect touched links and per-link unfixed flow counts.
  touched_.clear();
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (!active[f]) continue;
    for (const LinkId l : paths[f]) {
      if (link_slot_[l] == kUnused) {
        link_slot_[l] = static_cast<std::uint32_t>(touched_.size());
        touched_.push_back(l);
      }
    }
  }
  remaining_.assign(touched_.size(), capacity_);
  count_.assign(touched_.size(), 0);
  std::uint32_t unfixed = 0;
  std::vector<std::uint8_t> fixed(num_flows, 0);
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (!active[f]) continue;
    if (paths[f].empty()) {
      // Zero-link flow (same-switch endpoints): it can never cross a
      // saturated link, so progressive filling would never freeze it.
      // It contends with nothing; give it line rate and exclude it.
      fixed[f] = 1;
      rates[f] = capacity_;
      continue;
    }
    ++unfixed;
    for (const LinkId l : paths[f]) ++count_[link_slot_[l]];
  }

  double level = 0.0;  // current common fill rate
  while (unfixed > 0) {
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < touched_.size(); ++i) {
      if (count_[i] > 0) {
        delta = std::min(delta, remaining_[i] / count_[i]);
      }
    }
    ORP_ASSERT(delta < std::numeric_limits<double>::infinity());
    level += delta;
    for (std::size_t i = 0; i < touched_.size(); ++i) {
      if (count_[i] > 0) remaining_[i] -= delta * count_[i];
    }
    // Freeze flows crossing any saturated link.
    const double eps = capacity_ * 1e-12;
    std::uint32_t frozen_this_round = 0;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (!active[f] || fixed[f]) continue;
      bool saturated = false;
      for (const LinkId l : paths[f]) {
        if (remaining_[link_slot_[l]] <= eps) {
          saturated = true;
          break;
        }
      }
      if (!saturated) continue;
      fixed[f] = 1;
      rates[f] = level;
      ++frozen_this_round;
      for (const LinkId l : paths[f]) --count_[link_slot_[l]];
    }
    ORP_ASSERT(frozen_this_round > 0);  // progressive filling always freezes
    unfixed -= frozen_this_round;
  }

  for (const LinkId l : touched_) link_slot_[l] = kUnused;  // reset scratch
}

}  // namespace orp
