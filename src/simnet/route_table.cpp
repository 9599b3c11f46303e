#include "mixradix/simnet/route_table.hpp"

#include <algorithm>
#include <limits>

#include "mixradix/simnet/path.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::simnet {

namespace {

/// Fibonacci hashing: spreads the packed (src, dst) key over the slot bits.
std::size_t slot_of(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

void RouteTable::bind(const topo::Machine& machine) {
  machine_ = &machine;
  const auto depth = static_cast<std::size_t>(machine.depth());
  radix_.resize(depth);
  offset_.resize(depth);
  link_latency_.resize(depth);
  mem_.resize(depth);
  for (std::size_t k = 0; k < depth; ++k) {
    const topo::LevelSpec& spec = machine.level(static_cast<int>(k));
    radix_[k] = spec.radix;
    offset_[k] = machine.component_id(static_cast<int>(k), 0);
    link_latency_[k] = spec.link_latency;
    mem_[k] = spec.mem_bandwidth > 0;
  }
  base_latency_ = machine.costs().base_latency;
  caps_ = channel_capacities(machine);
  comp_src_.resize(depth);
  comp_dst_.resize(depth);
  clear();
  stats_ = Stats{};
}

void RouteTable::clear() {
  slots_.clear();
  channels_.clear();
  latency_.clear();
  capacity_.clear();
  count_.clear();
}

RouteTable::RouteId RouteTable::route(std::int64_t src, std::int64_t dst) {
  MR_EXPECT(machine_ != nullptr, "RouteTable used before bind()");
  MR_EXPECT(src >= 0 && src < machine_->cores() && dst >= 0 &&
                dst < machine_->cores(),
            "core id out of range for the bound machine");
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) |
                            static_cast<std::uint64_t>(dst);
  if (2 * (channels_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = slot_of(key) & mask;
  for (; slots_[i].key != kEmpty; i = (i + 1) & mask) {
    if (slots_[i].key == key) {
      ++stats_.hits;
      return slots_[i].id;
    }
  }
  ++stats_.misses;
  MR_ASSERT_INTERNAL(channels_.size() <
                     static_cast<std::size_t>(std::numeric_limits<RouteId>::max()));
  slots_[i] = {key, static_cast<RouteId>(channels_.size())};
  derive(src, dst);
  return slots_[i].id;
}

void RouteTable::grow() {
  std::vector<Slot> old(std::max<std::size_t>(256, 2 * slots_.size()));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.key == kEmpty) continue;
    std::size_t i = slot_of(slot.key) & mask;
    while (slots_[i].key != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

/// Replays the flow_channels() contract — egress/ingress at every level
/// from the first divergent one inward, plus each endpoint's memory
/// controllers — from the bind() tables. A memory controller above the
/// divergence level is shared by both endpoints and is listed once (the
/// FlowSim dedupe); every other channel is distinct by construction, so
/// the count is 2 * (depth - fd) + sum over memory levels of (k < fd ? 1
/// : 2). Ids are emitted already sorted: levels own ascending id ranges,
/// and within a level the lower component's channels come first.
void RouteTable::derive(std::int64_t src, std::int64_t dst) {
  ChanSet set;
  double latency = base_latency_;
  double capacity = std::numeric_limits<double>::infinity();
  int count = 0;
  if (src != dst) {
    // Per-level component of each core: the leaf component IS the core,
    // and each outer component is the inner one divided by the inner
    // level's radix.
    const std::size_t depth = radix_.size();
    comp_src_[depth - 1] = src;
    comp_dst_[depth - 1] = dst;
    for (std::size_t k = depth - 1; k > 0; --k) {
      comp_src_[k - 1] = comp_src_[k] / radix_[k];
      comp_dst_[k - 1] = comp_dst_[k] / radix_[k];
    }
    // First (outermost) level where the cores' components diverge; exists
    // because distinct cores differ at least at the leaf level.
    std::size_t fd = 0;
    while (comp_src_[fd] == comp_dst_[fd]) ++fd;
    // Summed outward-in exactly like Machine::path_latency, so the doubles
    // match bit for bit.
    for (std::size_t k = fd; k < depth; ++k) latency += 2.0 * link_latency_[k];
    count = static_cast<int>(2 * (depth - fd));
    for (std::size_t k = 0; k < depth; ++k) {
      if (mem_[k]) count += k < fd ? 1 : 2;
    }
    if (count <= kMaxChannelsPerFlow) {
      const auto push = [&](std::int64_t component, int kind) {
        const auto id = static_cast<ChannelId>(3 * component + kind);
        set.ids[static_cast<std::size_t>(set.count++)] = id;
        capacity = std::min(capacity, caps_[static_cast<std::size_t>(id)]);
      };
      for (std::size_t k = 0; k < depth; ++k) {
        const std::int64_t s = offset_[k] + comp_src_[k];
        const std::int64_t d = offset_[k] + comp_dst_[k];
        if (k < fd) {
          if (mem_[k]) push(s, 2);
          continue;
        }
        const std::int64_t lo = std::min(s, d);
        const std::int64_t hi = std::max(s, d);
        push(lo, lo == s ? 0 : 1);
        if (mem_[k]) push(lo, 2);
        push(hi, hi == s ? 0 : 1);
        if (mem_[k]) push(hi, 2);
      }
    }
  }
  channels_.push_back(set);
  latency_.push_back(latency);
  capacity_.push_back(capacity);
  count_.push_back(count);
}

}  // namespace mr::simnet
