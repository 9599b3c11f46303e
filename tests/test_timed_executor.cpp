// Timing-model tests. topo::testbox() has zero latencies/overheads and
// round link speeds (node 1 GB/s, socket 2 GB/s, core 4 GB/s), so transfer
// durations are exactly predictable.
#include "mixradix/simmpi/timed_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::simmpi {
namespace {

// 1M doubles = 8 MB.
constexpr std::int64_t kBig = 1'000'000;

Schedule one_message(std::int64_t count) {
  ScheduleBuilder b(2, count);
  b.exchange(0, 0, Region{0, count}, 1, Region{0, count});
  return std::move(b).build();
}

/// `schedule` as a single-repetition plan bound to `cores`.
PlanJob job_of(const Schedule& schedule, std::vector<std::int64_t> cores,
               double start_time = 0.0) {
  return PlanJob{std::make_shared<const Plan>(make_plan(schedule)),
                 std::move(cores), start_time};
}

TEST(TimedExecutor, IntraSocketRate) {
  const auto m = topo::testbox();
  // Cores 0 -> 1 share a socket: bottleneck 4 GB/s core channels.
  const double t = run_timed(m, {job_of(one_message(kBig), {0, 1})}).makespan;
  EXPECT_NEAR(t, 8e6 / 4e9, 1e-12);
}

TEST(TimedExecutor, CrossSocketRate) {
  const auto m = topo::testbox();
  // Cores 0 -> 4: socket uplinks (2 GB/s) bottleneck.
  const double t = run_timed(m, {job_of(one_message(kBig), {0, 4})}).makespan;
  EXPECT_NEAR(t, 8e6 / 2e9, 1e-12);
}

TEST(TimedExecutor, CrossNodeRate) {
  const auto m = topo::testbox();
  // Cores 0 -> 8: node uplinks (1 GB/s) bottleneck.
  const double t = run_timed(m, {job_of(one_message(kBig), {0, 8})}).makespan;
  EXPECT_NEAR(t, 8e6 / 1e9, 1e-12);
}

TEST(TimedExecutor, NicContentionHalvesThroughput) {
  const auto m = topo::testbox();
  // Two concurrent cross-node messages share node 0's egress NIC.
  const Schedule s = one_message(kBig);
  const PlanJob j1 = job_of(s, {0, 8});
  const PlanJob j2 = job_of(s, {1, 9});
  const auto result = run_timed(m, {j1, j2});
  EXPECT_NEAR(result.makespan, 2 * 8e6 / 1e9, 1e-12);
  EXPECT_EQ(result.total_messages, 2);
}

TEST(TimedExecutor, OppositeDirectionsDoNotContend) {
  const auto m = topo::testbox();
  // Full-duplex: node0->node1 and node1->node0 use different channels.
  const Schedule s = one_message(kBig);
  const PlanJob j1 = job_of(s, {0, 8});
  const PlanJob j2 = job_of(s, {8, 0});
  const auto result = run_timed(m, {j1, j2});
  EXPECT_NEAR(result.makespan, 8e6 / 1e9, 1e-12);
}

TEST(TimedExecutor, LatencyAddsPerLevel) {
  // A machine with per-level latencies and a tiny rendezvous message:
  // the wire time is dominated by path latency.
  auto m = topo::testbox();
  topo::MessagingCosts costs = m.costs();
  costs.base_latency = 1e-6;
  m = m.with_costs(costs);
  const Schedule s = one_message(1);
  const double t_socket = run_timed(m, {job_of(s, {0, 1})}).makespan;
  const double t_node = run_timed(m, {job_of(s, {0, 8})}).makespan;
  // testbox level latencies are zero, so only base latency differs... both
  // should include exactly one base latency.
  EXPECT_NEAR(t_socket, 1e-6 + 8.0 / 4e9, 1e-12);
  EXPECT_NEAR(t_node, 1e-6 + 8.0 / 1e9, 1e-12);
}

TEST(TimedExecutor, HopLatenciesAccumulate) {
  std::vector<topo::LevelSpec> levels = {
      {"node", 2, 100e-9, 1.0e9, 0.0},
      {"socket", 2, 10e-9, 2.0e9, 0.0},
      {"core", 4, 1e-9, 4.0e9, 0.0},
  };
  topo::MessagingCosts costs;
  costs.send_overhead = costs.recv_overhead = 0.0;
  costs.base_latency = 0.0;
  costs.eager_threshold = 0;
  const topo::Machine m("latbox", std::move(levels), costs);
  // Same socket: 2 core hops = 2 ns. Cross socket: +2 socket hops = 22 ns.
  // Cross node: +2 node hops = 222 ns.
  EXPECT_NEAR(m.path_latency(0, 1), 2e-9, 1e-15);
  EXPECT_NEAR(m.path_latency(0, 4), 22e-9, 1e-15);
  EXPECT_NEAR(m.path_latency(0, 8), 222e-9, 1e-15);
  const double t = run_timed(m, {job_of(one_message(1), {0, 8})}).makespan;
  EXPECT_NEAR(t, 222e-9 + 8.0 / 1e9, 1e-15);
}

TEST(TimedExecutor, SendRecvOverheadsSerialise) {
  auto m = topo::testbox();
  topo::MessagingCosts costs = m.costs();
  costs.send_overhead = 5e-6;
  costs.recv_overhead = 3e-6;
  m = m.with_costs(costs);
  // One message: sender round pays 5 us, receiver round 3 us; the transfer
  // starts once both posted (rendezvous) = 5 us, takes 2 ms.
  const double t = run_timed(m, {job_of(one_message(kBig), {0, 1})}).makespan;
  EXPECT_NEAR(t, 5e-6 + 8e6 / 4e9, 1e-12);
}

TEST(TimedExecutor, EagerSenderDoesNotWaitForReceiver) {
  auto m = topo::testbox();
  topo::MessagingCosts costs = m.costs();
  costs.eager_threshold = 1 << 20;
  m = m.with_costs(costs);
  // Rank 0: round 0 sends a small message to rank 1 and is then done.
  // Rank 1: round 0 computes 1 ms, round 1 receives.
  ScheduleBuilder b(2, 16);
  b.message(0, 0, Region{0, 16}, 1, 1, Region{0, 16});
  b.compute(0, 1, 1e-3);
  const Schedule s = std::move(b).build();
  const auto result = run_timed(m, {job_of(s, {0, 1})});
  // The transfer (128 B at 4 GB/s = 32 ns) happened during rank 1's
  // compute; total time is the compute, not compute + transfer.
  EXPECT_NEAR(result.makespan, 1e-3, 1e-9);
}

TEST(TimedExecutor, RendezvousWaitsForReceiver) {
  const auto m = topo::testbox();  // eager_threshold 0: all rendezvous
  ScheduleBuilder b(2, kBig);
  b.message(0, 0, Region{0, kBig}, 1, 1, Region{0, kBig});
  b.compute(0, 1, 1e-3);
  const Schedule s = std::move(b).build();
  const auto result = run_timed(m, {job_of(s, {0, 1})});
  // Transfer cannot start before the receiver posts at t = 1 ms.
  EXPECT_NEAR(result.makespan, 1e-3 + 8e6 / 4e9, 1e-9);
}

TEST(TimedExecutor, ComputeRoundsChainSequentially) {
  const auto m = topo::testbox();
  ScheduleBuilder b(1, 0);
  b.compute(0, 0, 1e-3);
  b.compute(1, 0, 2e-3);
  b.compute(2, 0, 3e-3);
  const Schedule s = std::move(b).build();
  EXPECT_NEAR(run_timed(m, {job_of(s, {0})}).makespan, 6e-3, 1e-12);
}

TEST(TimedExecutor, StaggeredJobStartTimes) {
  const auto m = topo::testbox();
  const Schedule s = one_message(kBig);
  const PlanJob j1 = job_of(s, {0, 8});
  // j2 starts exactly when j1 finishes.
  const PlanJob j2 = job_of(s, {1, 9}, 8e-3);
  const auto result = run_timed(m, {j1, j2});
  ASSERT_EQ(result.job_finish.size(), 2u);
  EXPECT_NEAR(result.job_finish[0], 8e-3, 1e-12);
  EXPECT_NEAR(result.job_finish[1], 16e-3, 1e-12);
}

/// When rank r's round k of job j completed, from the run's timeline.
double round_end(const TimedResult& result, const std::vector<PlanJob>& jobs,
                 std::size_t j, std::int32_t r, std::int64_t k) {
  const PlanExec& exec = jobs[j].plan->exec;
  return result.round_finish[j][static_cast<std::size_t>(
      exec.rank_rounds_begin[static_cast<std::size_t>(r)] + k)];
}

TEST(TimedExecutor, RoundTimelineEndsAtEachJobsFinish) {
  // Three contending jobs: each one's latest last-round completion is its
  // finish time, bit for bit.
  const auto m = topo::testbox();
  const std::vector<PlanJob> jobs = {
      job_of(alltoall_pairwise(4, 4096), {0, 4, 8, 12}),
      job_of(allgather_ring(4, 8192), {1, 5, 9, 13}),
      job_of(one_message(kBig), {2, 10}, 1e-3)};
  const TimedResult result = run_timed(m, jobs);
  ASSERT_EQ(result.round_finish.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const PlanExec& exec = jobs[j].plan->exec;
    ASSERT_EQ(static_cast<std::int64_t>(result.round_finish[j].size()),
              exec.rank_rounds_begin.back());
    double last = 0;
    for (std::int32_t r = 0; r < jobs[j].plan->nranks(); ++r) {
      ASSERT_GT(exec.rounds_of(r), 0);
      last = std::max(last, round_end(result, jobs, j, r, exec.rounds_of(r) - 1));
    }
    EXPECT_EQ(last, result.job_finish[j]) << "job " << j;
  }

  // Only the first repetition is recorded: a rendezvous message looped
  // twice finishes its first copy at 8 ms and the job at 16 ms.
  const std::vector<PlanJob> twice = {
      {std::make_shared<const Plan>(make_plan(one_message(kBig), 2)), {0, 8}}};
  const TimedResult looped = run_timed(m, twice);
  EXPECT_EQ(looped.round_finish[0],
            run_timed(m, {job_of(one_message(kBig), {0, 8})}).round_finish[0]);
  EXPECT_GT(looped.job_finish[0], round_end(looped, twice, 0, 0, 0));
}

TEST(TimedExecutor, RoundTimelineLocatesAPhaseInsideAConcat) {
  // a, then a 1 s compute round, then b: the compute round keeps b's
  // messages off a's, so a's end inside the run is a's standalone makespan.
  const auto m = topo::testbox();
  const std::vector<std::int64_t> cores{0, 2, 4, 6, 8, 10, 12, 14};
  const Schedule a = alltoall_pairwise(8, 16384);
  ScheduleBuilder pause(8, 0);
  for (std::int32_t r = 0; r < 8; ++r) pause.compute(0, r, 1.0);
  const std::vector<PlanJob> whole = {job_of(
      concat({a, std::move(pause).build(), allgather_ring(8, 16384)}), cores)};
  const TimedResult result = run_timed(m, whole);
  double a_end = 0;
  for (std::int32_t r = 0; r < 8; ++r) {
    const auto a_rounds = static_cast<std::int64_t>(
        a.programs[static_cast<std::size_t>(r)].rounds.size());
    a_end = std::max(a_end, round_end(result, whole, 0, r, a_rounds - 1));
  }
  EXPECT_EQ(a_end, run_timed(m, {job_of(a, cores)}).makespan);
  EXPECT_GT(result.makespan, a_end + 1.0);
}

TEST(TimedExecutor, ValidatesJobs) {
  const auto m = topo::testbox();
  const Schedule s = one_message(4);
  EXPECT_THROW(run_timed(m, std::vector<PlanJob>{}), invalid_argument);
  EXPECT_THROW(run_timed(m, {job_of(s, {0})}), invalid_argument);
  EXPECT_THROW(run_timed(m, {PlanJob{nullptr, {0, 1}, 0.0}}), invalid_argument);
  // An out-of-range core is named with its job and rank.
  const std::vector<PlanJob> jobs = {job_of(s, {0, 1}), job_of(s, {0, 99})};
  try {
    run_timed(m, jobs);
    FAIL() << "expected mr::invalid_argument";
  } catch (const invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job 1 rank 1: core 99"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GT(run_timed(m, {jobs[0]}).makespan, 0.0);
}

// Each rank waits in round 0 for a message the peer only sends in round 1.
// The executor must not report the run as finished (makespan 0): it throws,
// naming the job and carrying the analyzer's cycle trace.
TEST(TimedExecutor, DeadlockedPlanThrowsWithCycleTrace) {
  Schedule s;
  s.nranks = 2;
  s.arena_size = 4;
  s.messages = {MsgInfo{1, 0, {0, 2}, {0, 2}, Combine::Replace},
                MsgInfo{0, 1, {2, 2}, {2, 2}, Combine::Replace}};
  s.programs.resize(2);
  s.programs[0].rounds.resize(2);
  s.programs[0].rounds[0].recvs = {RecvOp{0}};
  s.programs[0].rounds[1].sends = {SendOp{1}};
  s.programs[1].rounds.resize(2);
  s.programs[1].rounds[0].recvs = {RecvOp{1}};
  s.programs[1].rounds[1].sends = {SendOp{0}};
  const PlanJob job{std::make_shared<const Plan>(make_plan(s, 3, "inversion")),
                    {0, 8}, 0.0};
  try {
    run_timed(topo::testbox(), {job_of(one_message(4), {1, 2}), job});
    FAIL() << "deadlocked plan ran to completion";
  } catch (const invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 1 (inversion) deadlocks"), std::string::npos)
        << what;
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("message 0"), std::string::npos) << what;
  }
  // Sends one round ahead of their receives have no cycle when sends are
  // posted eagerly, but testbox sends everything by rendezvous: each
  // rank's round-0 send waits for the peer's round-1 receive.
  for (RankProgram& program : s.programs) {
    std::swap(program.rounds[0], program.rounds[1]);
  }
  try {
    run_timed(topo::testbox(), {job_of(s, {0, 8})});
    FAIL() << "rendezvous deadlock ran to completion";
  } catch (const invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rendezvous"), std::string::npos)
        << e.what();
  }
}

// Integration: collective schedules complete and scale sensibly.
TEST(TimedExecutor, AlltoallSpreadSlowerThanPackedUnderLoad) {
  const auto m = topo::testbox();  // [2, 2, 4], 16 cores
  const Schedule coll = alltoall_pairwise(4, 4096);  // 4 ranks, 32 KB blocks
  // Packed: 4 communicators, each inside one socket.
  std::vector<PlanJob> packed;
  for (int c = 0; c < 4; ++c) {
    packed.push_back(
        job_of(coll, {4 * c + 0, 4 * c + 1, 4 * c + 2, 4 * c + 3}));
  }
  // Spread: each communicator has one rank per socket.
  std::vector<PlanJob> spread;
  for (int c = 0; c < 4; ++c) {
    spread.push_back(job_of(coll, {c, 4 + c, 8 + c, 12 + c}));
  }
  const double t_packed = run_timed(m, packed).makespan;
  const double t_spread = run_timed(m, spread).makespan;
  EXPECT_LT(t_packed, t_spread);
}

TEST(TimedExecutor, SingleSpreadCommBeatsNothingButIsValid) {
  const auto m = topo::testbox();
  const Schedule coll = alltoall_pairwise(4, 4096);
  const double t_alone_spread =
      run_timed(m, {job_of(coll, {0, 4, 8, 12})}).makespan;
  const double t_alone_packed =
      run_timed(m, {job_of(coll, {0, 1, 2, 3})}).makespan;
  EXPECT_GT(t_alone_spread, 0);
  EXPECT_GT(t_alone_packed, 0);
  // Alone, the packed mapping still wins on this machine because intra-
  // socket links are faster than the NIC — matching the paper's testbox-
  // scale intuition (spread only wins once per-NIC bandwidth exceeds the
  // per-core share of intra-node links, as on Hydra with 16 procs/node).
  EXPECT_LT(t_alone_packed, t_alone_spread);
}

TEST(TimedExecutor, DeterministicAcrossRuns) {
  const auto m = topo::testbox();
  const Schedule coll = allgather_ring(8, 1024);
  const std::vector<std::int64_t> cores{0, 2, 4, 6, 8, 10, 12, 14};
  const double t1 = run_timed(m, {job_of(coll, cores)}).makespan;
  const double t2 = run_timed(m, {job_of(coll, cores)}).makespan;
  EXPECT_EQ(t1, t2);
}

TEST(TimedExecutor, CompletionSlackIsATunableParameter) {
  const auto m = topo::testbox();
  const Schedule coll = alltoall_pairwise(8, 16384);
  const std::vector<std::int64_t> cores{0, 1, 2, 3, 4, 5, 6, 7};
  // Exact timing (the default) and 2% slack must agree to within 10% on
  // this short pairwise exchange.
  const PlanJob job = job_of(coll, cores);
  const double exact = run_timed(m, {job}).makespan;
  ExecOptions options;
  options.completion_slack = 0.02;
  const double slack = run_timed(m, {job}, options).makespan;
  EXPECT_GT(exact, 0);
  EXPECT_NEAR(slack, exact, exact * 0.1);
  options.completion_slack = -0.1;
  EXPECT_THROW(run_timed(m, {job}, options), invalid_argument);
  options.completion_slack = 0.5;
  EXPECT_THROW(run_timed(m, {job}, options), invalid_argument);
}

TEST(TimedExecutor, ReportsFlowSimStats) {
  const auto m = topo::testbox();
  const Schedule coll = alltoall_pairwise(8, 16384);
  const PlanJob job = job_of(coll, {0, 1, 2, 3, 4, 5, 6, 7});
  const TimedResult result = run_timed(m, {job});
  EXPECT_GE(result.flow_stats.full_recomputes, 1);
  EXPECT_GE(result.flow_stats.pop_batches, 1);
  EXPECT_LE(result.flow_stats.pop_batches, result.total_flow_events);
}

TEST(TimedExecutorEvent, ComparatorIsATotalOrder) {
  // Every field must participate: two distinct events never compare equal
  // both ways, and the order is transitive by construction (lexicographic).
  using detail::Event;
  using detail::EventKind;
  const std::vector<Event> distinct = {
      {1.0, EventKind::PostRound, 0, 0}, {1.0, EventKind::PostRound, 0, 1},
      {1.0, EventKind::PostRound, 1, 0}, {1.0, EventKind::StartFlow, 0, 0},
      {2.0, EventKind::PostRound, 0, 0},
  };
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    for (std::size_t j = 0; j < distinct.size(); ++j) {
      if (i == j) {
        EXPECT_FALSE(distinct[i] > distinct[j]);
      } else {
        EXPECT_NE(distinct[i] > distinct[j], distinct[j] > distinct[i])
            << "events " << i << " and " << j << " must be strictly ordered";
      }
    }
  }
}

TEST(TimedExecutorEvent, PopOrderIndependentOfPushOrder) {
  // Simultaneous events (equal times) must pop in the same deterministic
  // order no matter how they were pushed — a std::priority_queue with a
  // partial order would leave ties to incidental heap history.
  using detail::Event;
  using detail::EventKind;
  std::vector<Event> events;
  for (const double time : {0.0, 1.0}) {
    for (const auto kind : {EventKind::PostRound, EventKind::StartFlow}) {
      for (std::int32_t job = 0; job < 2; ++job) {
        for (std::int32_t a = 0; a < 2; ++a) {
          events.push_back(Event{time, kind, job, a});
        }
      }
    }
  }
  auto pop_sequence = [](std::vector<Event> heap) {
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    std::vector<Event> out;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      out.push_back(heap.back());
      heap.pop_back();
    }
    return out;
  };
  const auto baseline = pop_sequence(events);
  std::vector<Event> permuted = events;
  std::mt19937 rng(12345);
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(permuted.begin(), permuted.end(), rng);
    const auto popped = pop_sequence(permuted);
    ASSERT_EQ(popped.size(), baseline.size());
    for (std::size_t i = 0; i < popped.size(); ++i) {
      EXPECT_EQ(popped[i].time, baseline[i].time);
      EXPECT_EQ(popped[i].kind, baseline[i].kind);
      EXPECT_EQ(popped[i].job, baseline[i].job);
      EXPECT_EQ(popped[i].a, baseline[i].a);
    }
  }
}

TEST(TimedExecutor, WorkspaceReuseIsBitIdenticalAndKeepsRoutes) {
  const auto m = topo::testbox();
  const Schedule coll = alltoall_pairwise(8, 16384);
  const PlanJob job = job_of(coll, {0, 2, 4, 6, 8, 10, 12, 14});
  const TimedResult fresh = run_timed(m, {job});

  SimWorkspace workspace;
  ExecOptions options;
  options.workspace = &workspace;
  const TimedResult cold = run_timed(m, {job}, options);
  const TimedResult warm = run_timed(m, {job}, options);
  EXPECT_EQ(cold.makespan, fresh.makespan);
  EXPECT_EQ(warm.makespan, fresh.makespan);
  // The cold run interns every distinct core pair; the warm run must be
  // served entirely from the table.
  EXPECT_GT(cold.engine_stats.route_cache_misses, 0);
  EXPECT_GT(warm.engine_stats.route_cache_hits, 0);
  EXPECT_EQ(warm.engine_stats.route_cache_misses, 0);
}

TEST(TimedExecutor, WorkspaceSurvivesEquivalentAndChangedMachines) {
  const Schedule coll = alltoall_pairwise(4, 4096);
  const PlanJob job = job_of(coll, {0, 1, 2, 3});
  SimWorkspace workspace;
  ExecOptions options;
  options.workspace = &workspace;

  const auto m1 = topo::testbox();
  const TimedResult first = run_timed(m1, {job}, options);
  // A fresh-but-equivalent Machine instance keeps the interned routes
  // (binding follows the fingerprint, not the object identity).
  const auto m2 = topo::testbox();
  const TimedResult equivalent = run_timed(m2, {job}, options);
  EXPECT_EQ(equivalent.makespan, first.makespan);
  EXPECT_EQ(equivalent.engine_stats.route_cache_misses, 0);

  // A machine with different parameters forces a rebind; results must
  // match a workspace-free run on that machine.
  const auto changed = topo::hydra_node();
  const TimedResult rebound = run_timed(changed, {job}, options);
  EXPECT_GT(rebound.engine_stats.route_cache_misses, 0);
  EXPECT_EQ(rebound.makespan, run_timed(changed, {job}).makespan);

  // And returning to the first machine re-interns (the table tracks ONE
  // machine), still bit-identically.
  const TimedResult back = run_timed(m1, {job}, options);
  EXPECT_EQ(back.makespan, first.makespan);
}

TEST(TimedExecutor, ReportsEngineStats) {
  const auto m = topo::testbox();
  const Schedule coll = alltoall_pairwise(8, 16384);
  const PlanJob job = job_of(coll, {0, 1, 2, 3, 4, 5, 6, 7});
  const TimedResult result = run_timed(m, {job});
  EXPECT_GT(result.engine_stats.events_processed, 0);
  EXPECT_GT(result.engine_stats.peak_event_queue, 0);
  EXPECT_GT(result.flow_stats.peak_active_flows, 0);
  // Every message looked its route up exactly once somewhere.
  EXPECT_EQ(result.engine_stats.route_cache_hits +
                result.engine_stats.route_cache_misses,
            result.total_messages);
}

}  // namespace
}  // namespace mr::simmpi
