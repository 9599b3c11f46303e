// TimedExecutor: replays compiled plans on the flow-level network
// simulator to produce durations under contention.
//
// Several jobs (e.g. one collective per subcommunicator) run simultaneously
// against one machine; each job binds its plan's communicator ranks to
// machine cores. The engine consumes the plan's precomputed execution CSR
// (mixradix/simmpi/plan.hpp) — per-round op ranges, cost inputs, message
// byte counts — and executes the plan's repetition count as a loop over
// virtual message ids, so steady-state measurements never materialize
// repeated copies of the schedule. Messages follow a LogGP-flavoured model:
//   * per-round CPU serialisation: compute time + per-message send/recv
//     overheads + local copy costs;
//   * eager messages (<= eager_threshold bytes) start their network flow as
//     soon as the sender posts; the sender completes immediately;
//   * rendezvous messages start when BOTH sides have posted; the sender
//     completes with the transfer;
//   * every flow is delayed by the topological path latency and drains at
//     the max-min fair rate of the channels it crosses (simnet).
//
// The hot path is allocation-free in steady state: message routes are
// interned once per (plan, core binding) in a per-workspace RouteTable,
// flow completions come from FlowSim's lazy deadline heap, and all engine
// scratch (message/rank state, the event heap, the flow simulator itself)
// lives in a SimWorkspace that sweeps reuse across points — one workspace
// per pool thread. ExecOptions::reference selects the pre-overhaul cost
// model (per-message route derivation, O(active-flows) completion scans,
// fresh allocations per run) with bit-identical timing, which is what
// bench/timed_hotpath measures the overhaul against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/schedule.hpp"
#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/topo/machine.hpp"

namespace mr::simnet {
class RouteTable;  // mixradix/simnet/route_table.hpp
}  // namespace mr::simnet

namespace mr::simmpi {

/// One communicator's compiled plan bound to machine cores.
struct PlanJob {
  std::shared_ptr<const Plan> plan;
  /// core_of_rank[r] = machine core hosting the plan's rank r.
  std::vector<std::int64_t> core_of_rank;
  double start_time = 0;
};

/// Legacy binding of a raw schedule (no repetition loop); run_timed wraps
/// it in an ad-hoc single-repetition plan. Prefer PlanJob — compiled plans
/// amortize the execution-structure derivation across jobs.
struct JobSpec {
  const Schedule* schedule = nullptr;
  std::vector<std::int64_t> core_of_rank;
  double start_time = 0;
};

/// Engine instrumentation for one run (bench `--cache-stats`-style output).
struct EngineStats {
  std::int64_t events_processed = 0;   ///< PostRound + StartFlow events popped.
  std::int64_t peak_event_queue = 0;   ///< high-water mark of the event heap.
  std::int64_t route_cache_hits = 0;   ///< route lookups served interned.
  std::int64_t route_cache_misses = 0; ///< route lookups that derived a path.
};

struct TimedResult {
  double makespan = 0;              ///< completion time of the last job.
  std::vector<double> job_finish;   ///< per job, absolute completion time.
  std::int64_t total_messages = 0;  ///< counts every executed repetition.
  std::int64_t total_flow_events = 0;
  simnet::FlowSim::Stats flow_stats;  ///< network-simulator event counters.
  EngineStats engine_stats;           ///< executor-level counters.
};

/// Default completion slack handed to the flow simulator (see
/// FlowSim::FlowSim): 2% merges the cascades of nearly simultaneous
/// completions that collective traffic produces — cutting event counts by
/// an order of magnitude on big collectives — while keeping the relative
/// timing error well below the variation the experiments measure. Pass 0
/// for exact max-min timing.
inline constexpr double kDefaultCompletionSlack = 0.02;

/// Reusable engine scratch arena: the flow simulator (channel lists, flow
/// arrays, completion heap), the route table, per-job message/rank state
/// and the event heap, plus the machine's channel capacities. A sweep
/// keeps one per pool thread so the 5040-order enumeration stops paying
/// allocation churn per point. Binding follows the machine: reusing a
/// workspace against a machine with a different fingerprint (name, level
/// parameters, costs) transparently rebinds; an equivalent machine keeps
/// the interned routes. Not thread-safe — one workspace per thread.
class SimWorkspace {
 public:
  SimWorkspace();
  ~SimWorkspace();
  SimWorkspace(SimWorkspace&&) noexcept;
  SimWorkspace& operator=(SimWorkspace&&) noexcept;
  SimWorkspace(const SimWorkspace&) = delete;
  SimWorkspace& operator=(const SimWorkspace&) = delete;

  /// The workspace's route table, bound to `machine` (rebinding when the
  /// machine's fingerprint changed). Callers outside the executor — tune's
  /// static bound — share it so routes stay warm across their calls.
  simnet::RouteTable& route_table(const topo::Machine& machine);

  /// Internal accessor for the executor (incomplete type elsewhere).
  struct Impl;
  Impl& impl() noexcept { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Tuning knobs for run_timed.
struct ExecOptions {
  double completion_slack = kDefaultCompletionSlack;
  /// Run the pre-overhaul reference engine: routes derived per message,
  /// O(active-flows) completion scans, private scratch (ignores
  /// `workspace`). Timing is bit-identical to the optimized engine — this
  /// exists so bench/timed_hotpath can measure the overhaul end to end.
  bool reference = false;
  /// Scratch arena to reuse across runs; nullptr = a private arena per run.
  SimWorkspace* workspace = nullptr;
  /// Run the static binding analyzer (mixradix/verify/binding.hpp) over the
  /// jobs before simulating; any Error-level finding (rank bound outside
  /// the machine, route the simulator cannot carry, happens-before cycle)
  /// throws mr::invalid_argument carrying the full diagnostic report
  /// instead of tripping an internal assertion mid-simulation. The
  /// Preverify analogue of the DataExecutor's schedule verification.
  bool preverify_binding = false;
};

namespace detail {

/// Engine event, exposed for the determinism test. The comparator is a
/// TOTAL order (time, then kind, job, a) so the pop order of simultaneous
/// events never depends on push order — std::priority_queue leaves the
/// order of equal keys unspecified, which would make event processing
/// sensitive to incidental queue history.
enum class EventKind : std::int8_t { PostRound = 0, StartFlow = 1 };

struct Event {
  double time = 0;
  EventKind kind = EventKind::PostRound;
  std::int32_t job = 0;
  std::int32_t a = 0;  ///< rank for PostRound, virtual msg for StartFlow.
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    if (job != other.job) return job > other.job;
    return a > other.a;
  }
};

}  // namespace detail

/// Run all plan jobs to completion; deterministic for identical inputs.
/// Timing is bit-identical to executing the materialized repeat() of each
/// plan's schedule.
TimedResult run_timed(const topo::Machine& machine,
                      const std::vector<PlanJob>& jobs,
                      const ExecOptions& options);
TimedResult run_timed(const topo::Machine& machine,
                      const std::vector<PlanJob>& jobs,
                      double completion_slack = kDefaultCompletionSlack);

/// Legacy schedule-pointer entry point; validates each schedule and wraps
/// it in a single-repetition plan.
TimedResult run_timed(const topo::Machine& machine,
                      const std::vector<JobSpec>& jobs,
                      const ExecOptions& options);
TimedResult run_timed(const topo::Machine& machine,
                      const std::vector<JobSpec>& jobs,
                      double completion_slack = kDefaultCompletionSlack);

/// Convenience: duration of a single collective on `machine` with the given
/// rank->core binding.
double run_timed_single(const topo::Machine& machine, const Schedule& schedule,
                        std::vector<std::int64_t> core_of_rank,
                        double completion_slack = kDefaultCompletionSlack);

/// Plan flavour of run_timed_single. The plan is borrowed for the call —
/// no shared_ptr needed (both overload families feed one non-owning
/// internal entry point).
double run_timed_plan_single(const topo::Machine& machine, const Plan& plan,
                             std::vector<std::int64_t> core_of_rank,
                             double completion_slack = kDefaultCompletionSlack);

}  // namespace mr::simmpi
