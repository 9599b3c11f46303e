// Static binding analysis: proves properties of a compiled Plan BOUND to a
// Machine through a rank->core mapping, without running the simulator.
//
// mr::verify::analyze(Schedule) proves machine-independent properties;
// topo_check.hpp lints the Machine itself. This header closes the loop on
// the third ingredient of every experiment — the binding — with three
// products per analysis:
//
//  * diagnostics — every send must resolve to a route the flow simulator
//    can carry (channel count within ChanSet's inline capacity, positive
//    bottleneck capacity; routes come from simnet::RouteTable, the same
//    derivation the simulator uses), bindings must be in range, and
//    suspicious-but-legal shapes (two ranks of one job sharing a core) are
//    flagged as warnings;
//  * a load report — per-round and per-channel traffic (bytes, flow
//    count, serialization seconds, oversubscription ratios) with the
//    top-k congested channels named by level/component, the quantities
//    process-mapping papers rank mappings by;
//  * a critical-path lower bound — the longest chain through the
//    happens-before graph where each message contributes
//    max(path latency, bytes / bottleneck-channel capacity) and each round
//    its CPU serialisation, combined with a per-channel serialization
//    bound (all bytes crossing a channel must drain through its
//    capacity). Under exact max-min fairness (completion slack 0) the
//    bound NEVER exceeds the TimedExecutor's simulated makespan — a
//    standing oracle every current and future engine fast path is tested
//    against; Bound::for_slack deflates it for slack-merged runs.
//
// Soundness sketch (details in DESIGN.md §12): a flow's max-min rate never
// exceeds the capacity of any channel it crosses, so a message's transfer
// lasts at least bytes / min-capacity after a start that the
// happens-before edges delay at least as much as the DP's `ready` chain;
// and a channel's aggregate allocated rate never exceeds its capacity, so
// the last completion on it trails the first entry by at least
// total-bytes / capacity. Both arguments survive every engine fast path
// (interned routes, lazy deadline heap, workspace reuse) because those are
// bit-identical by construction.
//
// serialization_floor (below) is a route-free, DP-free first tier under
// the channel leg, for callers that rank many bindings (tune stage 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/simnet/route_table.hpp"
#include "mixradix/topo/machine.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::verify::binding {

/// Aggregated traffic of one simulator channel over the whole analysis
/// (all jobs, all repetitions).
struct ChannelLoad {
  simnet::ChannelId channel = -1;
  std::string name;   ///< "socket[3].egress", "numa[0].mem", ...
  std::int64_t bytes = 0;
  std::int64_t flows = 0;
  /// bytes / capacity: the time this channel alone needs to drain its
  /// share of the traffic.
  double serialization_seconds = 0;
  /// Max over rounds of (round bytes on this channel / capacity) divided
  /// by the round's slowest uncontended message — 1.0 means the channel
  /// is no more loaded than the round's natural straggler, k means
  /// contention stretches the round k-fold even under perfect sharing.
  double oversubscription = 0;
};

/// Traffic of one schedule round (round r = the r-th round of each rank's
/// program, for ONE repetition; repetitions repeat the pattern).
struct RoundLoad {
  std::int64_t round = 0;
  std::int64_t bytes = 0;          ///< network-crossing payload posted.
  std::int64_t flows = 0;          ///< messages that cross >= 1 channel.
  double max_oversubscription = 0; ///< over this round's channels.
  simnet::ChannelId hottest = -1;  ///< channel attaining the max, -1 = none.
  std::string hottest_name;
};

struct LoadReport {
  std::vector<RoundLoad> rounds;          ///< indexed by round number.
  std::vector<ChannelLoad> top_channels;  ///< top-k by serialization time.
  std::int64_t total_bytes = 0;  ///< network-crossing, all jobs and reps.
  std::int64_t self_bytes = 0;   ///< same-core payload (latency-only).
  std::int64_t total_flows = 0;  ///< network-crossing messages, all reps.
};

/// The static lower bound and its ingredients.
struct Bound {
  /// max(critical_path, channel_serialization); sound for completion
  /// slack 0.
  double lower_bound = 0;
  /// Longest happens-before chain: round CPU serialisation plus per-message
  /// max-min transfer floors.
  double critical_path = 0;
  /// max over channels of (earliest entry + total bytes / capacity).
  double channel_serialization = 0;

  /// Deflated bound that stays sound when the run merges completions with
  /// FlowSim's completion slack: slack lets a flow finish early by at most
  /// a slack fraction of each event horizon, and the deferred-allocation
  /// steal path can transiently oversubscribe a channel by ~1% between
  /// exact recomputations, so a 2*slack haircut covers both with margin.
  double for_slack(double completion_slack) const {
    return completion_slack <= 0
               ? lower_bound
               : lower_bound / (1.0 + 2.0 * completion_slack);
  }
};

struct Result {
  std::string machine;  ///< analyzed machine's name.
  Report report;        ///< binding diagnostics (verify::Diagnostic).
  LoadReport load;
  Bound bound;
  bool clean() const { return report.clean(); }
  /// Human-readable load + bound digest (CLI / CI artifact).
  std::string to_string() const;
};

struct Options {
  int top_k = 8;            ///< congested channels kept in the load report.
  bool load_report = true;  ///< skip when only the bound is needed (tune).
};

/// One plan bound to machine cores — a non-owning mirror of
/// simmpi::PlanJob.
struct JobBinding {
  const simmpi::Schedule* schedule = nullptr;
  const simmpi::PlanExec* exec = nullptr;
  int repetitions = 1;
  const std::vector<std::int64_t>* core_of_rank = nullptr;
  double start_time = 0;
};

/// Analyze one bound plan. Never throws on a bad binding: every defect
/// becomes a located diagnostic (rank/round/msg fields of
/// verify::Diagnostic). The load report and lower bound are computed only
/// when the binding has no Error-level findings.
Result analyze(const simmpi::Plan& plan, const topo::Machine& machine,
               const std::vector<std::int64_t>& core_of_rank,
               const Options& options = {});

/// Analyze several concurrently-launched bound plans — the exact shape
/// simmpi::run_timed executes. Diagnostics from job k are prefixed
/// "job k:" when more than one job is analyzed. The one-lane case of
/// analyze_lanes below.
Result analyze_jobs(const topo::Machine& machine,
                    const std::vector<JobBinding>& jobs,
                    const Options& options = {});

/// Human-readable channel name: "socket[3].egress" etc.
std::string channel_name(const topo::Machine& machine, simnet::ChannelId id);

// ---- Payload lanes ----------------------------------------------------------
//
// A tune candidate is analyzed once per payload point, and the points of a
// candidate usually share everything but their bytes: the same cores, the
// same plan structure. Everything the DP's CONTROL FLOW depends on —
// routes, the CSR happens-before skeleton, node numbering, pend counts —
// is a function of that structure alone; message bytes only enter as
// VALUES (eager flags, transfer floors, per-round CPU costs, channel byte
// totals). analyze_lanes therefore validates and resolves routes once and
// runs ONE worklist pass that carries one lane of doubles per payload.
// Every DP value is a max or min over a fixed set of `a + b` terms and the
// channel bytes are integer sums, so each lane is bit-identical to
// analyze_jobs on its own job list (analyze_jobs IS the one-lane case).

/// True when `a` and `b` may share one analyze_lanes pass: equal job
/// counts, and per job equal repetitions, start times, core bindings,
/// message endpoints, execution CSR arrays and payload-array extents. Only
/// bytes, round compute and copy costs may differ.
bool same_structure(const std::vector<JobBinding>& a,
                    const std::vector<JobBinding>& b);

/// Analyze P job lists ("lanes") that are same_structure() as lanes[0] in
/// one pass; result l equals analyze_jobs(machine, lanes[l], options) bit
/// for bit. A lane that differs in structure is rejected with
/// mr::invalid_argument, never merged. `routes`, when given, must be bound
/// to `machine` (RouteTable::bind or rebind_equivalent); passing a table
/// that outlives the call keeps its routes warm across calls. nullptr = a
/// call-local table.
std::vector<Result> analyze_lanes(
    const topo::Machine& machine,
    const std::vector<std::vector<JobBinding>>& lanes,
    const Options& options = {}, simnet::RouteTable* routes = nullptr);

// ---- Serialization floor ----------------------------------------------------
//
// A cheap first tier under Bound::channel_serialization, computed from
// what each hierarchy component sends, receives and keeps inside — no
// routes, no DP. Every message between two distinct cores adds its
// bytes * repetitions to `sent` of the sender's core, `recv` of the
// receiver's core and `inner` of the deepest component holding both; one
// bottom-up pass folds each component into its parent. A component C's
// channels then carry exactly the int64 totals the DP's channel walk sums
// (simnet::RouteTable's derivation is the contract): egress sent − inner
// and ingress recv − inner, since a message crosses C's uplink iff one
// endpoint lies outside C, and, on memory levels, sent + recv − inner,
// since a message lists C's memory channel once when either endpoint lies
// in C.
//
// Entry floor: level k's egress and ingress are crossed only by messages
// that diverge at a level <= k, whose latency adds a superset of
// lat_k = base_latency + sum_{l=k}^{depth-1} 2 * link_latency_l, in the
// same order; memory channels use lat_{depth-1}. The DP's entry is
// ready + latency with ready >= the smallest job start, and rounding is
// monotone, so start + lat_k never exceeds it; bytes / capacity is the
// same division. Hence for every lane
//   floor <= Bound::channel_serialization <= Bound::lower_bound
// whenever analyze_jobs finds the binding clean.

/// Scratch of serialization_floor — per-rank component ids and the
/// per-component sums — reused across calls (tune keeps one per worker
/// slot); after a call, the per-channel byte totals the floor came from.
class ComponentSums;

/// Serialization floor of each lane: max over channels with bytes > 0 of
/// (start + lat) + bytes / capacity, undeflated (apply Bound::for_slack
/// as for the DP bound). Lanes must be same_structure() as lanes[0]; a
/// null schedule, exec or binding, a binding of the wrong size, a core,
/// message endpoint, repetition count or start time out of range throws
/// mr::invalid_argument. `sums` = nullptr uses call-local scratch.
std::vector<double> serialization_floor(
    const topo::Machine& machine,
    const std::vector<std::vector<JobBinding>>& lanes,
    ComponentSums* sums = nullptr);

class ComponentSums {
 public:
  /// Bytes lane `lane` of the last serialization_floor call put on channel
  /// `id` (simnet channel numbering); 0 for a channel no traffic crosses.
  std::int64_t channel_bytes(simnet::ChannelId id, std::size_t lane = 0) const;

 private:
  friend std::vector<double> serialization_floor(
      const topo::Machine&, const std::vector<std::vector<JobBinding>>&,
      ComponentSums*);
  // Channel totals of (component, lane) slot `at`, as derived above.
  std::int64_t egress(std::size_t at) const { return sent_[at] - inner_[at]; }
  std::int64_t ingress(std::size_t at) const { return recv_[at] - inner_[at]; }
  std::int64_t memory(std::size_t at) const { return egress(at) + recv_[at]; }
  /// Dense id of (level, 0); the last entry is the component count.
  std::vector<std::int64_t> offset_;
  std::vector<std::uint8_t> memory_;  ///< level models a memory channel.
  /// (rank, level) -> dense component id, for one job at a time.
  std::vector<std::int64_t> component_;
  /// (component, lane), lane-minor like the DP's values.
  std::vector<std::int64_t> sent_, recv_, inner_;
  std::size_t lanes_ = 0;
};

/// Stateless forwarder kept only because perfbench's traced depth8_tune
/// replay compiles against `engine.bound_cache().analyze(...)`: returns
/// analyze_jobs(machine, jobs, {load_report = false}) and reports
/// `*structure_reused = false`. New code calls analyze_jobs or
/// analyze_lanes directly.
struct BoundCache {
  static Result analyze(const topo::Machine& machine,
                        const std::vector<JobBinding>& jobs,
                        bool* structure_reused = nullptr);
};

}  // namespace mr::verify::binding
