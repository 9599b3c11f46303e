// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Every hierarchy component owns channels (egress/ingress/memory); a flow
// occupies one channel set for its whole life and receives a rate
// determined by progressive filling (water-filling): all flows grow
// equally until some channel saturates, flows through that channel freeze
// at the fair share, and the rest keep growing. This is the standard fluid
// approximation of congestion-controlled transports and is what turns
// "32 communicators spread over every node" into the NIC-sharing collapse
// of the paper's Fig. 3.
//
// The simulation is event-driven: rates change only when a flow starts or
// finishes, so between events every flow drains linearly. The
// implementation is data-oriented — active flows live in dense parallel
// arrays with inline channel sets, and each channel keeps the exact list
// of its flows — because simulating one collective can mean hundreds of
// thousands of rate updates.
//
// Rates are refilled locally. Adding or removing a flow marks its channels
// dirty, and the next refill walks from the dirty channels (channel -> its
// flows -> their channels) and reruns progressive filling over only the
// connected components it reaches; every other flow keeps its rate and
// deadline. This is the selective update of SimGrid's lazy max-min solver
// (Casanova et al., JPDC 2014).
//
// Time advances on a virtual clock: a flow stores the absolute deadline at
// which it completes under its current rate, recomputed only when that rate
// actually changes, so advance_to() never touches per-flow state and the
// next completion comes from a lazy min-heap over deadlines instead of an
// O(active-flows) scan per event. A reference mode (incremental = false)
// keeps the scan and the full refill as the test oracle (see reset()).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <vector>

namespace mr::simnet {

using ChannelId = std::int32_t;

/// Most channels a single flow may cross (2 link sides + 2 memory sides
/// per hierarchy level, hierarchies up to 6 levels deep).
inline constexpr int kMaxChannelsPerFlow = 24;

/// An inline, sorted, duplicate-free channel set — the interned form of a
/// flow's path (see simnet::RouteTable). Producing one once per (src, dst)
/// core pair is what lets add_flow skip the per-message vector allocation,
/// sort and unique of the general entry point.
struct ChanSet {
  std::array<ChannelId, kMaxChannelsPerFlow> ids;
  std::int32_t count = 0;
  const ChannelId* begin() const noexcept { return ids.data(); }
  const ChannelId* end() const noexcept { return ids.data() + count; }
};

/// A completed flow, reported by advance_and_pop().
struct Completion {
  std::int64_t flow = 0;   ///< id returned by add_flow.
  std::int64_t user = 0;   ///< caller-supplied cookie.
  double time = 0;         ///< completion time (seconds).
};

class FlowSim {
 public:
  /// Per-instance event counters (formerly file-scope globals; instances
  /// must be independent so simulations can run on concurrent threads).
  struct Stats {
    std::int64_t deferred_allocations = 0;  ///< defer fast-path successes.
    std::int64_t deferred_rejections = 0;   ///< fast path fell through to exact.
    std::int64_t full_recomputes = 0;       ///< refill passes (progressive filling).
    std::int64_t refilled_flows = 0;        ///< flows the refills reached, summed.
    std::int64_t pop_batches = 0;           ///< advance_and_pop() batches.
    std::int64_t peak_active_flows = 0;     ///< high-water mark of active flows.
  };

  /// An empty simulator; reset() before use. Exists so a SimWorkspace can
  /// hold one instance whose buffers persist across runs.
  FlowSim() = default;

  /// `capacities[c]` is the bytes/s capacity of channel c.
  /// `completion_slack` trades exactness for speed: a flow whose residual
  /// transfer time is within `slack * elapsed-horizon` of the earliest
  /// completion finishes in the same event batch, slightly early, and new
  /// flows take deferred allocations between exact refills. 0 (the
  /// default) is exact. The error is not bounded by the slack: merged
  /// completions and deferred rates compound, so at 2% makespans sat up to
  /// 35.9% from exact in seeded churn scenarios, and single figure points
  /// moved by up to a third (DESIGN §10).
  explicit FlowSim(std::vector<double> capacities, double completion_slack = 0.0);

  /// Reinitialise to a fresh simulation over `capacities`, reusing every
  /// internal buffer (no per-run allocation churn when the channel count is
  /// unchanged). Capacities must be finite and positive.
  /// `incremental = false` selects the reference mode, the test oracle: an
  /// O(active-flows) completion scan per event instead of the lazy deadline
  /// heap (same doubles), and refills seeded with every channel in use,
  /// i.e. the full max-min pass. At slack 0 the local refill gives the same
  /// doubles as the full pass unless two components' shares lie within the
  /// 1e-12 freeze tolerance; under slack the freeze rule couples components
  /// by up to the slack, so the two modes may differ by that much.
  void reset(const std::vector<double>& capacities, double completion_slack = 0.0,
             bool incremental = true);

  double now() const noexcept { return now_; }

  /// Number of flows currently in the system.
  std::size_t active_flows() const noexcept { return remaining_.size(); }

  /// Start a flow of `bytes` over `channels` at the current time.
  /// `channels` may be empty (infinite-capacity path) and may repeat ids
  /// (deduplicated). `bytes` must be finite and non-negative; zero-byte
  /// flows complete at the current instant.
  std::int64_t add_flow(std::vector<ChannelId> channels, double bytes,
                        std::int64_t user);

  /// Interned fast path: `channels` must already be sorted, duplicate-free
  /// and in range (as produced by RouteTable); skips the per-call
  /// allocation, sort and validation of the vector overload. Constrained
  /// template rather than a plain ChanSet parameter so braced channel
  /// lists ({0, 1}) keep resolving to the vector overload (a braced list
  /// never deduces a template parameter).
  template <typename Set>
    requires std::same_as<Set, ChanSet>
  std::int64_t add_flow(const Set& channels, double bytes, std::int64_t user) {
    return add_interned(channels, bytes, user);
  }

  /// Time at which the next flow will complete under current rates, or
  /// std::nullopt when no flow is active.
  std::optional<double> next_completion_time();

  /// Advance the clock to exactly `t` (all flows drain linearly; the drain
  /// is implicit in each flow's deadline, so this is O(1)).
  /// `t` must be >= now() and <= next_completion_time() when flows exist.
  void advance_to(double t);

  /// Advance to the next completion time and pop EVERY flow completing at
  /// that instant (simultaneous completions batch into one rate update).
  std::vector<Completion> advance_and_pop();

  /// Current max-min fair rate of a flow (testing / introspection).
  /// Completed flows report their final rate.
  double flow_rate(std::int64_t flow);

  /// Event counters since construction (or the last reset()).
  const Stats& stats() const noexcept { return stats_; }

 private:
  std::int64_t add_interned(const ChanSet& channels, double bytes,
                            std::int64_t user);
  void recompute_rates();
  bool try_defer_allocation(std::size_t index);
  bool steal_allocation(std::size_t index, double fair);
  void remove_active(std::size_t index);
  void mark_dirty(ChannelId c);

  /// Bytes left in flow `index` at the current clock under its current
  /// rate (exact while the rate is unchanged: the deadline is fixed).
  double current_remaining(std::size_t index) const;
  /// Install a new rate for flow `index`: sync its remaining bytes to the
  /// current clock, project the new absolute deadline, index it.
  void assign_rate(std::size_t index, double rate);
  void heap_push(std::size_t index);

  /// Pop batches between forced exact recomputations in deferred mode.
  static constexpr int kMaxDeferredBatches = 128;

  /// Below this many active flows the incremental tracker uses the
  /// reference scan directly (same doubles, no heap maintenance): with few
  /// flows the O(n) scan is cheaper than keeping the lazy index fresh
  /// under rate churn. The heap engages for the many-flow regime (e.g. 32
  /// simultaneous communicators, hundreds of active flows).
  static constexpr std::size_t kScanFlows = 64;

  std::vector<double> capacities_;

  // Dense parallel arrays over ACTIVE flows (swap-removed on completion).
  // `remaining_` holds the bytes left as of the flow's last rate change;
  // `deadline_` the absolute completion time under the current rate
  // (+inf while the flow awaits its first allocation).
  std::vector<double> remaining_;
  std::vector<double> rate_;
  std::vector<double> deadline_;
  std::vector<std::int64_t> user_;
  std::vector<std::int64_t> ext_id_;
  std::vector<ChanSet> chans_;

  // External id -> (active index + 1), 0 when gone; plus last known rate.
  std::vector<std::int64_t> ext_index_;
  std::vector<double> ext_rate_;

  double now_ = 0;
  double completion_slack_ = 0;
  bool incremental_ = true;
  bool rates_dirty_ = true;
  int batches_since_full_ = 0;
  Stats stats_;

  // Lazy completion index: every deadline change pushes a (deadline, ext)
  // entry; stale entries (flow gone, or deadline since changed) are
  // discarded on pop. Unused in reference mode and below kScanFlows;
  // heap_live_ records whether the heap currently covers every active
  // flow (pushes are suppressed in the scan regime, so the first push
  // back in the many-flow regime rebuilds it wholesale).
  struct HeapEntry {
    double deadline;
    std::int64_t ext;
  };
  std::vector<HeapEntry> heap_;
  bool heap_live_ = false;
  std::vector<std::size_t> batch_;  ///< completion-batch scratch.

  // Per-channel bookkeeping for deferred allocation.
  std::vector<double> used_;
  std::vector<double> freed_;
  /// Exact per-channel lists of active flows: by_channel_[c] holds one
  /// (slot, k) link per flow on c, k indexing the flow's chans_ entry, and
  /// pos_[slot][k] is that link's position in the list, so linking,
  /// unlinking and swap-moving a flow cost O(its channels).
  struct Link { std::int32_t slot, k; };
  std::vector<std::vector<Link>> by_channel_;
  std::vector<std::array<std::int32_t, kMaxChannelsPerFlow>> pos_;
  /// Channels whose flow set, or a flow's rate, changed since the last
  /// refill (a steal changes rates outside the refill).
  std::vector<std::uint8_t> dirty_;
  std::vector<ChannelId> dirty_list_;

  // Scratch (persistent capacity, reset per recompute). Between refills
  // every newrate_ entry holds the "unreached" marker.
  std::vector<double> residual_;
  std::vector<std::int32_t> load_;
  std::vector<double> newrate_;
  std::vector<ChannelId> touched_;       ///< reached channels (walk queue).
  std::vector<std::int32_t> reach_;      ///< reached flows (active slots).
  std::vector<ChannelId> touched_scan_;
};

}  // namespace mr::simnet
