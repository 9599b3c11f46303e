#include "mixradix/simnet/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "mixradix/util/expect.hpp"

namespace mr::simnet {
namespace {
// Tolerated backwards clock jitter in advance_to.
constexpr double kTimeEpsilon = 1e-15;
constexpr double kInf = std::numeric_limits<double>::infinity();
// newrate_ markers: not reached by the current refill / reached, not frozen.
constexpr double kUnreached = -2.0;
constexpr double kUnfrozen = -1.0;

bool heap_later(const double a, const double b) { return a > b; }
}  // namespace

FlowSim::FlowSim(std::vector<double> capacities, double completion_slack) {
  reset(capacities, completion_slack);
}

void FlowSim::reset(const std::vector<double>& capacities,
                    double completion_slack, bool incremental) {
  for (double c : capacities) {
    MR_EXPECT(std::isfinite(c) && c > 0,
              "channel capacity must be finite and positive");
  }
  MR_EXPECT(completion_slack >= 0 && completion_slack < 0.5,
            "completion slack must be in [0, 0.5)");
  capacities_.assign(capacities.begin(), capacities.end());
  completion_slack_ = completion_slack;
  incremental_ = incremental;

  const std::size_t nc = capacities_.size();
  residual_.resize(nc);
  load_.assign(nc, 0);
  used_.assign(nc, 0.0);
  freed_.assign(nc, 0.0);
  dirty_.assign(nc, 0);
  dirty_list_.clear();
  // Keep the per-channel lists (and their heap blocks) alive across runs;
  // only their contents reset.
  if (by_channel_.size() > nc) by_channel_.resize(nc);
  for (auto& list : by_channel_) list.clear();
  by_channel_.resize(nc);

  remaining_.clear();
  rate_.clear();
  deadline_.clear();
  user_.clear();
  ext_id_.clear();
  chans_.clear();
  pos_.clear();
  newrate_.clear();
  ext_index_.clear();
  ext_rate_.clear();
  heap_.clear();
  heap_live_ = false;
  batch_.clear();

  now_ = 0;
  rates_dirty_ = true;
  batches_since_full_ = 0;
  stats_ = Stats{};
}

double FlowSim::current_remaining(std::size_t index) const {
  const double r = rate_[index];
  if (r == 0) return remaining_[index];  // never allocated: nothing drained
  if (std::isinf(r)) return 0.0;
  return std::max(0.0, r * (deadline_[index] - now_));
}

void FlowSim::assign_rate(std::size_t index, double rate) {
  remaining_[index] = current_remaining(index);
  rate_[index] = rate;
  deadline_[index] =
      std::isinf(rate) ? now_ : now_ + remaining_[index] / rate;
  if (incremental_) heap_push(index);
}

void FlowSim::heap_push(std::size_t index) {
  // In the scan regime the heap is not consulted: skip the push and mark
  // the index stale so the first push back in the many-flow regime
  // rebuilds it over the live flows.
  if (remaining_.size() <= kScanFlows) {
    heap_live_ = false;
    return;
  }
  // Stale entries (flows gone, deadlines superseded) accumulate until they
  // dominate, then one rebuild over the live flows resets the heap.
  if (!heap_live_ || heap_.size() > 4 * remaining_.size() + 64) {
    heap_.clear();
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      if (deadline_[i] < kInf) heap_.push_back({deadline_[i], ext_id_[i]});
    }
    std::make_heap(heap_.begin(), heap_.end(), [](const auto& a, const auto& b) {
      return heap_later(a.deadline, b.deadline);
    });
    heap_live_ = true;
    return;  // `index` is live, so the rebuild already indexed it
  }
  heap_.push_back({deadline_[index], ext_id_[index]});
  std::push_heap(heap_.begin(), heap_.end(), [](const auto& a, const auto& b) {
    return heap_later(a.deadline, b.deadline);
  });
}

std::int64_t FlowSim::add_flow(std::vector<ChannelId> channels, double bytes,
                               std::int64_t user) {
  std::sort(channels.begin(), channels.end());
  channels.erase(std::unique(channels.begin(), channels.end()), channels.end());
  MR_EXPECT(channels.size() <= static_cast<std::size_t>(kMaxChannelsPerFlow),
            "flow crosses more channels than supported");
  ChanSet set;
  for (ChannelId c : channels) {
    MR_EXPECT(c >= 0 && static_cast<std::size_t>(c) < capacities_.size(),
              "channel id out of range");
    set.ids[static_cast<std::size_t>(set.count++)] = c;
  }
  return add_flow(set, bytes, user);
}

std::int64_t FlowSim::add_interned(const ChanSet& channels, double bytes,
                                   std::int64_t user) {
  MR_EXPECT(std::isfinite(bytes) && bytes >= 0,
            "flow size must be finite and non-negative");
  MR_ASSERT_INTERNAL(channels.count >= 0 &&
                     channels.count <= simnet::kMaxChannelsPerFlow);
  const auto ext = static_cast<std::int64_t>(ext_index_.size());
  const std::size_t index = remaining_.size();
  ext_index_.push_back(static_cast<std::int64_t>(index) + 1);
  ext_rate_.push_back(0.0);
  remaining_.push_back(bytes);
  rate_.push_back(0.0);
  deadline_.push_back(kInf);
  user_.push_back(user);
  ext_id_.push_back(ext);
  chans_.push_back(channels);
  pos_.emplace_back();
  stats_.peak_active_flows =
      std::max(stats_.peak_active_flows, static_cast<std::int64_t>(index) + 1);
  if (channels.count == 0) {  // shares no channel: no refill would reach it
    assign_rate(index, kInf);
    return ext;
  }
  for (std::int32_t k = 0; k < channels.count; ++k) {
    const ChannelId c = channels.ids[static_cast<std::size_t>(k)];
    MR_ASSERT_INTERNAL(static_cast<std::size_t>(c) < capacities_.size());
    auto& list = by_channel_[static_cast<std::size_t>(c)];
    pos_[index][static_cast<std::size_t>(k)] = static_cast<std::int32_t>(list.size());
    list.push_back({static_cast<std::int32_t>(index), k});
    mark_dirty(c);
  }
  if (!try_defer_allocation(index)) {
    rates_dirty_ = true;
  }
  return ext;
}

void FlowSim::mark_dirty(ChannelId c) {
  auto& dirty = dirty_[static_cast<std::size_t>(c)];
  if (dirty) return;
  dirty = 1;
  dirty_list_.push_back(c);
}

// Deferred allocation: in steady-state traffic (rings, pipelines) each
// completed flow frees exactly the headroom its successor needs, so a full
// max-min recompute per event is wasted work. When completion slack is
// enabled, a new flow may simply grab the available headroom on its path —
// provided that headroom is within 10% of its estimated fair share, so a
// congestion shift still forces the exact recomputation. Deferred rates
// are always feasible (never exceed residual capacity); periodic full
// recomputes (every kMaxDeferredBatches pop batches) restore exact
// max-min fairness.
bool FlowSim::try_defer_allocation(std::size_t index) {
  if (completion_slack_ <= 0 || rates_dirty_) return false;
  const ChanSet& set = chans_[index];
  double headroom = kInf;
  double fair = kInf;
  for (ChannelId c : set) {
    const auto ci = static_cast<std::size_t>(c);
    headroom = std::min(headroom, capacities_[ci] - used_[ci]);
    fair = std::min(fair, capacities_[ci] /
                              static_cast<double>(by_channel_[ci].size()));
  }
  if (!(headroom >= 0.9 * fair) || headroom <= 0) {
    if (steal_allocation(index, fair)) return true;
    ++stats_.deferred_rejections;
    return false;
  }
  ++stats_.deferred_allocations;
  assign_rate(index, headroom);
  for (ChannelId c : set) {
    const auto ci = static_cast<std::size_t>(c);
    used_[ci] += headroom;
    freed_[ci] = std::max(0.0, freed_[ci] - headroom);
  }
  return true;
}

// Steal fallback for deferred allocation: when the freed headroom is not
// enough (consecutive pipeline rounds overlap in flight), give the new
// flow its estimated fair share and proportionally scale down the victims
// on each oversubscribed channel. Rates stay feasible (to within the 1%
// scale floor that keeps every flow draining), conservative, and the
// periodic exact recomputation erases the approximation. Refuses when a
// channel has too many victims — then the exact pass is worth its cost.
// The victims share a channel with the new flow, whose add marked it, so
// the next refill reaches them; their own channels are marked as well.
bool FlowSim::steal_allocation(std::size_t index, double fair) {
  const ChanSet& set = chans_[index];
  for (ChannelId c : set) {
    const auto ci = static_cast<std::size_t>(c);
    if (used_[ci] + fair > capacities_[ci] && by_channel_[ci].size() > 64) {
      return false;
    }
  }
  for (ChannelId c : set) {
    const auto ci = static_cast<std::size_t>(c);
    const double over = used_[ci] + fair - capacities_[ci];
    if (over <= 0 || used_[ci] <= 0) continue;
    const double scale =
        std::max(0.01, (capacities_[ci] - fair) / used_[ci]);
    if (scale >= 1) continue;
    for (const Link& link : by_channel_[ci]) {
      const auto f = static_cast<std::size_t>(link.slot);
      if (f == index) continue;
      const double delta = rate_[f] * (1 - scale);
      if (delta <= 0) continue;
      assign_rate(f, rate_[f] - delta);
      for (ChannelId cj : chans_[f]) {
        double& used = used_[static_cast<std::size_t>(cj)];
        used = std::max(0.0, used - delta);
        mark_dirty(cj);
      }
    }
  }
  assign_rate(index, fair);
  for (ChannelId c : set) {
    const auto ci = static_cast<std::size_t>(c);
    used_[ci] += fair;
    freed_[ci] = std::max(0.0, freed_[ci] - fair);
  }
  return true;
}

void FlowSim::recompute_rates() {
  if (!rates_dirty_) return;
  ++stats_.full_recomputes;
  rates_dirty_ = false;
  const std::size_t n = remaining_.size();
  if (!incremental_) {  // the oracle: seed with every channel in use
    for (const ChanSet& set : chans_) {
      for (ChannelId c : set) mark_dirty(c);
    }
  }

  // Walk the components of the dirty channels, alternating channel -> its
  // flows -> their channels. `touched_` is the queue of reached channels
  // (load_ != 0 marks one), `reach_` collects the reached flows. Rates
  // change only when a flow starts or finishes, so a component with no
  // dirty channel already holds its max-min rates.
  newrate_.resize(n, kUnreached);
  touched_.clear();
  reach_.clear();
  const auto visit = [&](ChannelId c) {
    const auto ci = static_cast<std::size_t>(c);
    if (load_[ci] != 0 || by_channel_[ci].empty()) return;
    load_[ci] = static_cast<std::int32_t>(by_channel_[ci].size());
    residual_[ci] = capacities_[ci];
    touched_.push_back(c);
  };
  for (ChannelId c : dirty_list_) {
    dirty_[static_cast<std::size_t>(c)] = 0;
    visit(c);
  }
  dirty_list_.clear();
  for (std::size_t q = 0; q < touched_.size(); ++q) {
    for (const Link& link : by_channel_[static_cast<std::size_t>(touched_[q])]) {
      const auto f = static_cast<std::size_t>(link.slot);
      if (newrate_[f] != kUnreached) continue;
      newrate_[f] = kUnfrozen;
      reach_.push_back(link.slot);
      for (ChannelId c : chans_[f]) visit(c);
    }
  }
  std::size_t unfrozen = reach_.size();
  stats_.refilled_flows += static_cast<std::int64_t>(unfrozen);

  // Progressive filling over what the walk reached, level by level. New
  // rates build up in scratch so that a flow whose fair share did NOT
  // change keeps its remaining/deadline state untouched (no re-projection,
  // no rounding drift, no heap churn). Each pass finds the minimum fair
  // share s and freezes the flows of EVERY channel tied at s:
  // freezing the flows of one bottleneck only ever raises the share of the
  // others ((R - s)/(n - 1) >= R/n when s is the global minimum), so ties
  // stay ties and strictly-larger channels stay above s. The number of
  // passes equals the number of distinct bottleneck levels, which for
  // collective traffic is small (one per congestion class), keeping the
  // whole recompute at O(levels * touched + flow-channel incidences).
  // `alive` is the compacted working set of channels still carrying
  // unfrozen flows; saturated channels are swap-removed so later passes
  // scan progressively fewer entries.
  std::vector<ChannelId>& alive = touched_scan_;
  alive = touched_;
  while (unfrozen > 0) {
    double s = kInf;
    for (std::size_t w = 0; w < alive.size();) {
      const auto ci = static_cast<std::size_t>(alive[w]);
      if (load_[ci] == 0) {
        alive[w] = alive.back();
        alive.pop_back();
        continue;
      }
      s = std::min(s, residual_[ci] / load_[ci]);
      ++w;
    }
    MR_ASSERT_INTERNAL(std::isfinite(s));
    const double bound = s * (1 + std::max(1e-12, completion_slack_));
    for (ChannelId c : alive) {
      const auto ci = static_cast<std::size_t>(c);
      if (load_[ci] == 0 || residual_[ci] / load_[ci] > bound) continue;
      for (const Link& link : by_channel_[ci]) {
        const auto f = static_cast<std::size_t>(link.slot);
        if (newrate_[f] >= 0) continue;  // already frozen
        newrate_[f] = s;
        --unfrozen;
        for (ChannelId c2 : chans_[f]) {
          const auto c2i = static_cast<std::size_t>(c2);
          residual_[c2i] = std::max(0.0, residual_[c2i] - s);
          --load_[c2i];
        }
      }
    }
  }

  // Apply only the rates that actually changed — everything else keeps its
  // projected deadline, which is what keeps the completion heap lazy.
  for (std::int32_t fi : reach_) {
    const auto f = static_cast<std::size_t>(fi);
    if (newrate_[f] != rate_[f]) assign_rate(f, newrate_[f]);
    newrate_[f] = kUnreached;
  }

  // Rebuild the incremental headroom bookkeeping used by deferred
  // allocation, and reset the load scratch. The filling loop already
  // maintained residual = capacity - allocated per channel, so the used
  // capacity falls out of it — no second pass over the flow-channel
  // incidences.
  for (ChannelId c : touched_) {
    const auto ci = static_cast<std::size_t>(c);
    load_[ci] = 0;
    used_[ci] = capacities_[ci] - residual_[ci];
    freed_[ci] = 0;
  }
}

std::optional<double> FlowSim::next_completion_time() {
  if (remaining_.empty()) return std::nullopt;
  recompute_rates();
  if (!incremental_ || remaining_.size() <= kScanFlows || !heap_live_) {
    // Reference mode and the few-flow regime: O(active flows) scan. min()
    // over doubles is exact, so the scan and the heap below yield the
    // same double.
    double best = kInf;
    const std::size_t n = remaining_.size();
    for (std::size_t i = 0; i < n; ++i) {
      MR_ASSERT_INTERNAL(rate_[i] > 0);  // recompute allocated every flow
      best = std::min(best, deadline_[i]);
    }
    return std::max(now_, best);
  }
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    const std::int64_t slot = ext_index_[static_cast<std::size_t>(top.ext)];
    if (slot != 0 &&
        deadline_[static_cast<std::size_t>(slot - 1)] == top.deadline) {
      return std::max(now_, top.deadline);
    }
    std::pop_heap(heap_.begin(), heap_.end(), [](const auto& a, const auto& b) {
      return heap_later(a.deadline, b.deadline);
    });
    heap_.pop_back();
  }
  MR_ASSERT_INTERNAL(false);  // every active flow has a live heap entry
  return std::nullopt;
}

void FlowSim::advance_to(double t) {
  MR_EXPECT(t >= now_ - kTimeEpsilon, "cannot advance backwards");
  recompute_rates();
  // The drain is implicit: every allocated flow carries its absolute
  // deadline, so moving the clock is all that is needed.
  now_ = std::max(now_, t);
}

void FlowSim::remove_active(std::size_t index) {
  const ChanSet& set = chans_[index];
  for (std::int32_t k = 0; k < set.count; ++k) {
    const ChannelId c = set.ids[static_cast<std::size_t>(k)];
    const auto ci = static_cast<std::size_t>(c);
    // Unlink: the list's last link fills the hole.
    auto& list = by_channel_[ci];
    const auto p = static_cast<std::size_t>(pos_[index][static_cast<std::size_t>(k)]);
    list[p] = list.back();
    list.pop_back();
    if (p < list.size()) {
      const Link moved = list[p];
      pos_[static_cast<std::size_t>(moved.slot)][static_cast<std::size_t>(moved.k)] =
          static_cast<std::int32_t>(p);
    }
    mark_dirty(c);
    used_[ci] = std::max(0.0, used_[ci] - rate_[index]);
    // Freed capacity that no successor grabs must eventually be handed
    // to the surviving flows: once 40% of a channel sits idle, force the
    // exact recomputation.
    freed_[ci] += rate_[index];
    // Only surviving flows can profit from the freed share; an empty
    // channel needs no redistribution.
    if (!list.empty() && freed_[ci] > 0.4 * capacities_[ci]) {
      rates_dirty_ = true;
    }
  }
  const std::size_t last = remaining_.size() - 1;
  ext_rate_[static_cast<std::size_t>(ext_id_[index])] = rate_[index];
  ext_index_[static_cast<std::size_t>(ext_id_[index])] = 0;
  if (index != last) {
    remaining_[index] = remaining_[last];
    rate_[index] = rate_[last];
    deadline_[index] = deadline_[last];
    user_[index] = user_[last];
    ext_id_[index] = ext_id_[last];
    chans_[index] = chans_[last];
    pos_[index] = pos_[last];
    ext_index_[static_cast<std::size_t>(ext_id_[index])] =
        static_cast<std::int64_t>(index) + 1;
    // Repoint the moved flow's links at its new slot.
    for (std::size_t k = 0; k < static_cast<std::size_t>(chans_[index].count); ++k) {
      const auto ck = static_cast<std::size_t>(chans_[index].ids[k]);
      by_channel_[ck][static_cast<std::size_t>(pos_[index][k])].slot =
          static_cast<std::int32_t>(index);
    }
  }
  remaining_.pop_back();
  rate_.pop_back();
  deadline_.pop_back();
  user_.pop_back();
  ext_id_.pop_back();
  chans_.pop_back();
  pos_.pop_back();
}

std::vector<Completion> FlowSim::advance_and_pop() {
  ++stats_.pop_batches;
  std::vector<Completion> done;
  const auto t = next_completion_time();
  MR_EXPECT(t.has_value(), "no active flows to advance to");
  const double before = now_;
  advance_to(*t);
  // Completion-slack batching: flows whose residual transfer time is within
  // slack * elapsed-horizon finish in this batch, slightly early.
  const double merge_window = completion_slack_ * (now_ - before);
  const double threshold = now_ + merge_window;
  batch_.clear();
  if (!incremental_ || remaining_.size() <= kScanFlows || !heap_live_) {
    // Reference mode and the few-flow regime: backwards scan, exactly the
    // swap-removal-safe order.
    for (std::size_t i = remaining_.size(); i-- > 0;) {
      if (deadline_[i] <= threshold) batch_.push_back(i);
    }
  } else {
    auto later = [](const HeapEntry& a, const HeapEntry& b) {
      return heap_later(a.deadline, b.deadline);
    };
    while (!heap_.empty() && heap_.front().deadline <= threshold) {
      const HeapEntry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
      const std::int64_t slot = ext_index_[static_cast<std::size_t>(top.ext)];
      if (slot != 0 &&
          deadline_[static_cast<std::size_t>(slot - 1)] == top.deadline) {
        batch_.push_back(static_cast<std::size_t>(slot - 1));
      }
    }
    // Match the reference scan bit for bit: complete in descending slot
    // order (this is also what makes the interleaved swap-removal safe),
    // one completion per flow even if its deadline was re-pushed.
    std::sort(batch_.begin(), batch_.end(), std::greater<>{});
    batch_.erase(std::unique(batch_.begin(), batch_.end()), batch_.end());
  }
  for (std::size_t i : batch_) {
    done.push_back(Completion{ext_id_[i], user_[i], now_});
    remove_active(i);
  }
  MR_ASSERT_INTERNAL(!done.empty());
  if (completion_slack_ <= 0 || ++batches_since_full_ >= kMaxDeferredBatches) {
    batches_since_full_ = 0;
    rates_dirty_ = true;
  }
  return done;
}

double FlowSim::flow_rate(std::int64_t flow) {
  MR_EXPECT(flow >= 0 && static_cast<std::size_t>(flow) < ext_index_.size(),
            "unknown flow");
  recompute_rates();
  const std::int64_t idx = ext_index_[static_cast<std::size_t>(flow)];
  if (idx == 0) return ext_rate_[static_cast<std::size_t>(flow)];
  return rate_[static_cast<std::size_t>(idx - 1)];
}

}  // namespace mr::simnet
