// Per-machine route interning: the one place a (src_core, dst_core) route
// is derived, shared by the timed executor and the static binding
// analyzer (mixradix/verify/binding.hpp).
//
// Every message a collective schedule posts is a (src_core, dst_core)
// transfer, and every figure sweep replays the same few thousand core
// pairs hundreds of thousands of times. The table derives each distinct
// pair ONCE from per-machine tables precomputed at bind() — per-level
// radices, component-id offsets, link latencies, channel capacities — with one
// small-radix division per level per endpoint instead of walking the
// hierarchy API, and hands back an interned ChanSet (sorted,
// duplicate-free, in range — FlowSim's fast add_flow overload) together
// with the pair's path latency (bit-identical to Machine::path_latency)
// and bottleneck capacity. tests/test_route_table.cpp pins every field
// against flow_channels(), channel_capacities() and path_latency().
//
// A route deeper than kMaxChannelsPerFlow cannot be carried by FlowSim; it
// is still interned, with an empty channel set and its true channel count,
// so the analyzer can report it as a located diagnostic and the executor
// can reject it instead of aborting.
//
// A RouteTable is bound to one machine and is deliberately not
// thread-safe: each SimWorkspace (one per sweep thread) owns its own
// table, so the hot path takes no locks and route ids stay dense.
#pragma once

#include <cstdint>
#include <vector>

#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/topo/machine.hpp"

namespace mr::simnet {

class RouteTable {
 public:
  /// Dense id of an interned (src_core, dst_core) route.
  using RouteId = std::int32_t;

  struct Stats {
    std::int64_t hits = 0;    ///< route() calls served from the table.
    std::int64_t misses = 0;  ///< route() calls that derived a new route.
  };

  /// An unbound table; bind() before use.
  RouteTable() = default;

  /// Bind to `machine`, dropping all interned routes and recomputing the
  /// derivation tables and channel capacities. The reference must outlive
  /// the table (a SimWorkspace rebinds whenever the machine changes).
  /// Counters reset.
  void bind(const topo::Machine& machine);

  /// Drop interned routes but keep the binding and the counters.
  void clear();

  /// Re-point at an equivalent machine — one whose topology and
  /// performance parameters match the bound machine's — WITHOUT dropping
  /// interned routes. Used by SimWorkspace when a fresh Machine instance
  /// has an identical fingerprint (routes depend only on the parameters).
  void rebind_equivalent(const topo::Machine& machine) noexcept {
    machine_ = &machine;
  }

  /// The machine the table is bound to (nullptr before bind()).
  const topo::Machine* machine() const noexcept { return machine_; }

  /// Intern (or look up) the route from `src` to `dst`; cores must be in
  /// range for the bound machine.
  RouteId route(std::int64_t src, std::int64_t dst);

  /// The route's channels; empty for a self route and for a too-deep one.
  const ChanSet& channels(RouteId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }
  double latency(RouteId id) const {
    return latency_[static_cast<std::size_t>(id)];
  }
  /// Minimum capacity over the route's channels; +inf for a self route
  /// and for a too-deep one (whose channels are not listed).
  double capacity(RouteId id) const {
    return capacity_[static_cast<std::size_t>(id)];
  }
  /// Channels the route crosses, even when that exceeds
  /// kMaxChannelsPerFlow (then channels() is empty).
  int channel_count(RouteId id) const {
    return count_[static_cast<std::size_t>(id)];
  }
  bool too_deep(RouteId id) const {
    return channel_count(id) > kMaxChannelsPerFlow;
  }

  /// simnet::channel_capacities() of the bound machine.
  const std::vector<double>& capacities() const noexcept { return caps_; }

  std::size_t size() const noexcept { return channels_.size(); }
  const Stats& stats() const noexcept { return stats_; }

 private:
  void derive(std::int64_t src, std::int64_t dst);

  const topo::Machine* machine_ = nullptr;
  // Derivation tables, per level (outermost = 0).
  std::vector<std::int64_t> radix_;
  std::vector<std::int64_t> offset_;  ///< dense component id of (level, 0).
  std::vector<double> link_latency_;
  std::vector<bool> mem_;  ///< level models a memory controller.
  double base_latency_ = 0;
  std::vector<double> caps_;
  // derive() scratch.
  std::vector<std::int64_t> comp_src_;
  std::vector<std::int64_t> comp_dst_;

  /// Open-addressing index (src << 32 | dst) -> id: linear probing over a
  /// power-of-two slot array kept at most half full, so an insert costs no
  /// allocation and a lookup usually one cache line.
  struct Slot {
    std::uint64_t key = kEmpty;
    RouteId id = -1;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  void grow();
  std::vector<Slot> slots_;
  std::vector<ChanSet> channels_;
  std::vector<double> latency_;
  std::vector<double> capacity_;
  std::vector<std::int32_t> count_;
  Stats stats_;
};

}  // namespace mr::simnet
