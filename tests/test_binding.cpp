// Binding-analyzer tests. The load-bearing property: the static
// critical-path lower bound NEVER exceeds the TimedExecutor's simulated
// makespan — checked across the full registry x preset x size x engine
// matrix, in exact (slack 0) and slack-merged timing, serial and from a
// thread pool.
#include "mixradix/verify/binding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/simnet/path.hpp"
#include "mixradix/simnet/route_table.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/util/thread_pool.hpp"

namespace mr::verify::binding {
namespace {

using simmpi::ExecOptions;
using simmpi::PlanJob;

// Floating-point tolerance for "lb <= sim": both sides accumulate the same
// quantities in different orders.
constexpr double kFpSlop = 1.0 + 1e-9;

/// Identity binding: rank r on core r.
std::vector<std::int64_t> packed_cores(std::int32_t p) {
  std::vector<std::int64_t> cores(static_cast<std::size_t>(p));
  for (std::int32_t r = 0; r < p; ++r) {
    cores[static_cast<std::size_t>(r)] = r;
  }
  return cores;
}

/// Max-stride binding: ranks spread as far apart as the machine allows.
std::vector<std::int64_t> spread_cores(std::int32_t p, std::int64_t ncores) {
  std::vector<std::int64_t> cores(static_cast<std::size_t>(p));
  for (std::int32_t r = 0; r < p; ++r) {
    cores[static_cast<std::size_t>(r)] = r * (ncores / p);
  }
  return cores;
}

std::int32_t pick_p(const simmpi::AlgorithmInfo& info, std::int64_t ncores) {
  for (const std::int32_t p : {8, 4, 16, 6, 2}) {
    if (p <= ncores && info.supported(p)) return p;
  }
  return -1;
}

double run_sim(const topo::Machine& machine, const simmpi::Plan& plan,
               const std::vector<std::int64_t>& cores, double slack,
               bool reference) {
  PlanJob job;
  job.plan = std::make_shared<const simmpi::Plan>(plan);
  job.core_of_rank = cores;
  ExecOptions options;
  options.completion_slack = slack;
  options.reference = reference;
  return simmpi::run_timed(machine, {job}, options).makespan;
}

/// One matrix point: analyze + simulate in all four engine configurations,
/// returning a description of every violated bound ("" = all held).
std::string check_point(const topo::Machine& machine, const std::string& alg,
                        std::int32_t p, std::int64_t count, int repetitions,
                        const std::vector<std::int64_t>& cores) {
  const simmpi::Plan plan =
      simmpi::compile_plan(alg, p, count, 0, repetitions);
  const Result analysis = analyze(plan, machine, cores);
  if (!analysis.clean()) {
    return alg + ": analysis not clean:\n" + analysis.to_string();
  }
  std::string failures;
  for (const bool reference : {false, true}) {
    for (const double slack : {0.0, simmpi::kDefaultCompletionSlack}) {
      const double sim = run_sim(machine, plan, cores, slack, reference);
      const double lb = analysis.bound.for_slack(slack);
      if (!(lb <= sim * kFpSlop)) {
        failures += alg + " on " + machine.name() + " count=" +
                    std::to_string(count) + " slack=" + std::to_string(slack) +
                    (reference ? " reference" : " optimized") +
                    ": lower bound " + std::to_string(lb) +
                    " exceeds simulated " + std::to_string(sim) + "\n";
      }
    }
  }
  return failures;
}

TEST(BindingBound, NeverExceedsSimAcrossRegistryMatrix) {
  const topo::Machine machines[] = {topo::testbox(), topo::hydra(4),
                                    topo::lumi(2)};
  // Byte counts straddle the 16 KiB eager threshold (testbox is all
  // rendezvous regardless).
  const std::int64_t counts[] = {64, 2048, 65536};
  int points = 0;
  for (const auto& machine : machines) {
    for (const auto& info : simmpi::algorithm_registry()) {
      const std::int32_t p = pick_p(info, machine.cores());
      ASSERT_GT(p, 0) << info.name;
      for (const std::int64_t count : counts) {
        const std::string failures =
            check_point(machine, info.name, p, count, 1, packed_cores(p));
        EXPECT_EQ(failures, "");
        ++points;
      }
    }
  }
  EXPECT_GE(points, 3 * 19 * 3);  // machines x algorithms x sizes
}

TEST(BindingBound, HoldsForSpreadMappingAndRepetitions) {
  const auto machine = topo::lumi(2);
  for (const auto& info : simmpi::algorithm_registry()) {
    const std::int32_t p = pick_p(info, machine.cores());
    ASSERT_GT(p, 0) << info.name;
    EXPECT_EQ(check_point(machine, info.name, p, 4096, 3,
                          spread_cores(p, machine.cores())),
              "");
  }
}

TEST(BindingBound, HoldsUnderThreadPool) {
  // TSan target: concurrent analyses + simulations must not race.
  const auto machine = topo::hydra(4);
  const auto& registry = simmpi::algorithm_registry();
  std::mutex mu;
  std::string failures;
  util::ThreadPool pool(4);
  pool.parallel_for(registry.size(), [&](std::size_t i) {
    const auto& info = registry[i];
    const std::int32_t p = pick_p(info, machine.cores());
    const std::string f =
        check_point(machine, info.name, p, 2048, 1, packed_cores(p));
    if (!f.empty()) {
      const std::lock_guard<std::mutex> lock(mu);
      failures += f;
    }
  });
  EXPECT_EQ(failures, "");
}

TEST(BindingBound, ExactlyTightOnSerializedNicContention) {
  // Two 8 MB cross-node transfers share node 0's egress NIC (1 GB/s on
  // testbox): the channel-serialization bound equals the simulated time.
  const auto m = topo::testbox();
  constexpr std::int64_t kCount = 1'000'000;
  simmpi::ScheduleBuilder b(4, kCount);
  b.exchange(0, 0, {0, kCount}, 1, {0, kCount});
  b.exchange(0, 2, {0, kCount}, 3, {0, kCount});
  const simmpi::Plan plan = simmpi::make_plan(std::move(b).build());
  // Ranks 0,2 on node 0 (cores 0,1), ranks 1,3 on node 1 (cores 8,9).
  const std::vector<std::int64_t> cores = {0, 8, 1, 9};
  const Result r = analyze(plan, m, cores);
  ASSERT_TRUE(r.clean()) << r.report.to_string();
  const double sim = run_sim(m, plan, cores, 0.0, false);
  EXPECT_NEAR(sim, 2 * 8e6 / 1e9, 1e-12);
  EXPECT_NEAR(r.bound.lower_bound, sim, 1e-12);
  EXPECT_NEAR(r.bound.channel_serialization, sim, 1e-12);
  // Each flow alone would take 8 ms (node-link bottleneck).
  EXPECT_NEAR(r.bound.critical_path, 8e6 / 1e9, 1e-12);

  // Load report: 16 MB over one round, two flows, and the shared NIC
  // carries twice a single flow's worth -> oversubscription 2.
  EXPECT_EQ(r.load.total_bytes, 2 * 8'000'000);
  EXPECT_EQ(r.load.total_flows, 2);
  EXPECT_EQ(r.load.self_bytes, 0);
  ASSERT_EQ(r.load.rounds.size(), 1u);
  EXPECT_EQ(r.load.rounds[0].bytes, 2 * 8'000'000);
  EXPECT_EQ(r.load.rounds[0].flows, 2);
  EXPECT_NEAR(r.load.rounds[0].max_oversubscription, 2.0, 1e-12);
  ASSERT_FALSE(r.load.top_channels.empty());
  const ChannelLoad& hot = r.load.top_channels.front();
  EXPECT_NEAR(hot.serialization_seconds, 16e6 / 1e9, 1e-12);
  EXPECT_NEAR(hot.oversubscription, 2.0, 1e-12);
  // The two equally hot channels are the node uplinks.
  EXPECT_TRUE(hot.name == "node[0].egress" || hot.name == "node[1].ingress")
      << hot.name;
  EXPECT_NE(r.to_string().find("lower bound"), std::string::npos);
}

TEST(BindingBound, ForSlackDeflates) {
  Bound b;
  b.lower_bound = 1.0;
  EXPECT_EQ(b.for_slack(0.0), 1.0);
  EXPECT_EQ(b.for_slack(-1.0), 1.0);
  EXPECT_NEAR(b.for_slack(0.02), 1.0 / 1.04, 1e-15);
}

TEST(BindingDiagnostics, CoreOutOfRangeIsError) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  const Result r = analyze(plan, m, {0, 1, 2, 99});
  EXPECT_FALSE(r.clean());
  ASSERT_FALSE(r.report.diagnostics.empty());
  const auto& d = r.report.diagnostics.front();
  EXPECT_EQ(d.check, Check::Binding);
  EXPECT_EQ(d.rank, 3);
  EXPECT_NE(d.text.find("core 99"), std::string::npos) << d.text;
  // No load report or bound on a broken binding.
  EXPECT_EQ(r.bound.lower_bound, 0.0);
  EXPECT_TRUE(r.load.rounds.empty());
}

TEST(BindingDiagnostics, BindingSizeMismatchIsError) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  const Result r = analyze(plan, m, {0, 1, 2});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.diagnostics.front().text.find("3 entries"),
            std::string::npos);
}

TEST(BindingDiagnostics, DuplicateCoreIsWarningOnly) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  const Result r = analyze(plan, m, {0, 0, 1, 2});
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.report.count(Severity::Warning), 1u) << r.report.to_string();
  EXPECT_NE(r.report.diagnostics.front().text.find("share core 0"),
            std::string::npos);
  // Rank 0 -> rank 1 traffic stays off the network.
  EXPECT_GT(r.load.self_bytes, 0);
  // The bound still holds on the degenerate mapping.
  const double sim = run_sim(m, plan, {0, 0, 1, 2}, 0.0, false);
  EXPECT_LE(r.bound.lower_bound, sim * kFpSlop);
}

TEST(BindingDiagnostics, RepetitionOverflowIsError) {
  const auto m = topo::testbox();
  simmpi::ScheduleBuilder b(2, 8);
  b.exchange(0, 0, {0, 8}, 1, {0, 8});
  b.exchange(1, 1, {0, 8}, 0, {0, 8});
  const simmpi::Plan plan =
      simmpi::make_plan(std::move(b).build(), 1 << 30);
  const Result r = analyze(plan, m, {0, 1});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.diagnostics.front().text.find("overflows"),
            std::string::npos)
      << r.report.to_string();
}

TEST(BindingDiagnostics, DeadlockedBindingReportsCycleAndZeroBound) {
  // Cross-round wait cycle, built by hand so ScheduleBuilder's verification
  // (in MIXRADIX_VERIFY_SCHEDULES builds) cannot reject it first: each rank
  // waits in round 0 for a message the peer only sends in round 1.
  simmpi::Schedule s;
  s.nranks = 2;
  s.arena_size = 4;
  s.messages = {simmpi::MsgInfo{1, 0, {0, 2}, {0, 2}, simmpi::Combine::Replace},
                simmpi::MsgInfo{0, 1, {2, 2}, {2, 2}, simmpi::Combine::Replace}};
  s.programs.resize(2);
  s.programs[0].rounds.resize(2);
  s.programs[0].rounds[0].recvs = {simmpi::RecvOp{0}};
  s.programs[0].rounds[1].sends = {simmpi::SendOp{1}};
  s.programs[1].rounds.resize(2);
  s.programs[1].rounds[0].recvs = {simmpi::RecvOp{1}};
  s.programs[1].rounds[1].sends = {simmpi::SendOp{0}};
  const simmpi::Plan plan = simmpi::make_plan(std::move(s));
  const Result r = analyze(plan, topo::testbox(), {0, 1});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.to_string().find("cycle"), std::string::npos)
      << r.report.to_string();
  EXPECT_EQ(r.bound.lower_bound, 0.0);
}

TEST(BindingDiagnostics, SameRoundExchangeIsNotACycle) {
  // The classic sendrecv pattern: posts are non-blocking, so mutual
  // same-round messages must analyze clean with a finite bound.
  simmpi::ScheduleBuilder b(2, 8);
  b.exchange(0, 0, {0, 8}, 1, {0, 8});
  b.exchange(0, 1, {0, 8}, 0, {0, 8});
  const simmpi::Plan plan = simmpi::make_plan(std::move(b).build());
  const Result r = analyze(plan, topo::testbox(), {0, 8});
  EXPECT_TRUE(r.clean()) << r.report.to_string();
  EXPECT_GT(r.bound.lower_bound, 0.0);
}

TEST(BindingDiagnostics, MultiJobDiagnosticsArePrefixed) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 16);
  JobBinding good{&plan.schedule, &plan.exec, plan.repetitions, nullptr, 0};
  const std::vector<std::int64_t> ok_cores = {0, 1, 2, 3};
  const std::vector<std::int64_t> bad_cores = {0, 1, 2, 999};
  good.core_of_rank = &ok_cores;
  JobBinding bad = good;
  bad.core_of_rank = &bad_cores;
  const Result r = analyze_jobs(m, {good, bad});
  EXPECT_FALSE(r.clean());
  EXPECT_NE(r.report.diagnostics.front().text.find("job 1:"),
            std::string::npos)
      << r.report.to_string();
}

TEST(BindingDiagnostics, ConcurrentJobsBoundHolds) {
  const auto m = topo::testbox();
  const simmpi::Plan plan = simmpi::compile_plan("alltoall_pairwise", 4, 512);
  const std::vector<std::int64_t> cores_a = {0, 4, 8, 12};
  const std::vector<std::int64_t> cores_b = {1, 5, 9, 13};
  JobBinding ja{&plan.schedule, &plan.exec, plan.repetitions, &cores_a, 0.0};
  JobBinding jb{&plan.schedule, &plan.exec, plan.repetitions, &cores_b, 1e-4};
  const Result r = analyze_jobs(m, {ja, jb});
  ASSERT_TRUE(r.clean()) << r.report.to_string();

  PlanJob pa, pb;
  pa.plan = std::make_shared<const simmpi::Plan>(plan);
  pa.core_of_rank = cores_a;
  pb.plan = pa.plan;
  pb.core_of_rank = cores_b;
  pb.start_time = 1e-4;
  ExecOptions options;
  options.completion_slack = 0.0;
  const double sim = simmpi::run_timed(m, {pa, pb}, options).makespan;
  EXPECT_LE(r.bound.lower_bound, sim * kFpSlop);
  EXPECT_GT(r.bound.lower_bound, 1e-4);  // the delayed job's start counts.
}

TEST(BindingDiagnostics, EmptyJobListIsClean) {
  const Result r = analyze_jobs(topo::testbox(), {});
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.bound.lower_bound, 0.0);
}

TEST(BindingPreverify, ThrowsOnBadBindingAndPassesGoodOne) {
  const auto m = topo::testbox();
  PlanJob job;
  job.plan = std::make_shared<const simmpi::Plan>(
      simmpi::compile_plan("allgather_ring", 4, 16));
  job.core_of_rank = {0, 1, 2, 99};
  ExecOptions options;
  options.preverify_binding = true;
  EXPECT_THROW(simmpi::run_timed(m, {job}, options), mr::invalid_argument);
  try {
    simmpi::run_timed(m, {job}, options);
    FAIL() << "expected mr::invalid_argument";
  } catch (const mr::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("core 99"), std::string::npos)
        << e.what();
  }
  job.core_of_rank = {0, 1, 2, 3};
  EXPECT_GT(simmpi::run_timed(m, {job}, options).makespan, 0.0);
}

// The analyzer's channel accounting, end to end through the shared
// RouteTable, against simnet::flow_channels — the reference route
// derivation — across machines, mappings, and a rooted algorithm whose
// traffic is asymmetric.
TEST(BindingLoad, ChannelAccountingMatchesFlowChannels) {
  const topo::Machine machines[] = {topo::testbox(), topo::hydra(4, 2),
                                    topo::lumi(2)};
  constexpr std::int32_t kP = 8;
  constexpr int kReps = 2;
  for (const auto& machine : machines) {
    for (const std::string alg : {"alltoall_pairwise", "gather_linear"}) {
      for (const bool spread : {false, true}) {
        const simmpi::Plan plan = simmpi::compile_plan(alg, kP, 512, 0, kReps);
        const auto cores =
            spread ? spread_cores(kP, machine.cores()) : packed_cores(kP);
        // Reference accounting straight from flow_channels; sort+unique is
        // FlowSim's dedupe of the shared memory controller above the
        // divergence level.
        std::map<simnet::ChannelId, std::pair<std::int64_t, std::int64_t>>
            want;  // channel -> (bytes, flows)
        for (const simmpi::MsgInfo& msg : plan.schedule.messages) {
          auto chans = simnet::flow_channels(
              machine, cores[static_cast<std::size_t>(msg.src)],
              cores[static_cast<std::size_t>(msg.dst)]);
          std::sort(chans.begin(), chans.end());
          chans.erase(std::unique(chans.begin(), chans.end()), chans.end());
          for (const simnet::ChannelId id : chans) {
            want[id].first += msg.bytes() * kReps;
            want[id].second += kReps;
          }
        }
        Options options;
        options.top_k = 1 << 20;  // keep every touched channel.
        const Result result = analyze(plan, machine, cores, options);
        ASSERT_TRUE(result.clean());
        const std::string where = machine.name() + "/" + alg +
                                  (spread ? "/spread" : "/packed");
        ASSERT_EQ(result.load.top_channels.size(), want.size()) << where;
        for (const ChannelLoad& cl : result.load.top_channels) {
          const auto it = want.find(cl.channel);
          ASSERT_NE(it, want.end())
              << where << ": unexpected channel " << cl.name;
          EXPECT_EQ(cl.bytes, it->second.first) << where << " " << cl.name;
          EXPECT_EQ(cl.flows, it->second.second) << where << " " << cl.name;
        }
      }
    }
  }
}

// ---- Payload lanes vs per-payload analysis ----------------------------------
//
// analyze_lanes' contract is BIT-identity: lane l of one pass must equal
// analyze_jobs on lane l's job list alone — bound fields and diagnostics —
// across the registry, machines, payload sizes and mappings, serial and
// threaded.

/// Every bound field and diagnostic of `got` equals `want`; "" when so.
std::string compare(const Result& got, const Result& want,
                    const std::string& where) {
  std::string failures;
  if (got.bound.lower_bound != want.bound.lower_bound ||
      got.bound.critical_path != want.bound.critical_path ||
      got.bound.channel_serialization != want.bound.channel_serialization) {
    failures += where + ": bound " + std::to_string(got.bound.lower_bound) +
                " != " + std::to_string(want.bound.lower_bound) + "\n";
  }
  if (got.report.to_string() != want.report.to_string() ||
      got.machine != want.machine) {
    failures += where + ": diagnostics differ\n";
  }
  return failures;
}

/// One lane pass over `counts` (one plan per count) of one algorithm,
/// compared lane by lane against per-payload analyze_jobs. Counts whose
/// plans differ in structure from the first count's are left out.
std::string check_lanes(const topo::Machine& machine, const std::string& alg,
                        std::int32_t p, const std::vector<std::int64_t>& counts,
                        const std::vector<std::int64_t>& cores,
                        int* lanes_run = nullptr) {
  std::vector<simmpi::Plan> plans;
  for (const std::int64_t count : counts) {
    plans.push_back(simmpi::compile_plan(alg, p, count, 0, 1));
  }
  std::vector<std::vector<JobBinding>> lanes;
  std::vector<std::int64_t> lane_count;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    std::vector<JobBinding> jobs = {{&plans[i].schedule, &plans[i].exec,
                                     plans[i].repetitions, &cores, 0.0}};
    if (lanes.empty() || same_structure(lanes.front(), jobs)) {
      lanes.push_back(std::move(jobs));
      lane_count.push_back(counts[i]);
    }
  }
  Options options;
  options.load_report = false;
  const std::vector<Result> got = analyze_lanes(machine, lanes, options);
  std::string failures;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    failures += compare(got[l], analyze_jobs(machine, lanes[l], options),
                        machine.name() + "/" + alg + "/count=" +
                            std::to_string(lane_count[l]));
  }
  if (lanes_run != nullptr) *lanes_run += static_cast<int>(lanes.size());
  return failures;
}

TEST(BindingLanes, EveryLaneMatchesPerPayloadAnalysisBitExactly) {
  // Registry x {hydra, lumi} x three payload sizes x {packed, spread}; the
  // size axis straddles the 16 KiB eager threshold, so every lane must
  // carry its own eager flags, transfer floors and compute times.
  const topo::Machine machines[] = {topo::hydra(4), topo::lumi(2)};
  const std::vector<std::int64_t> counts = {64, 2048, 65536};
  std::string failures;
  int lanes = 0;
  int passes = 0;
  for (const auto& machine : machines) {
    for (const auto& info : simmpi::algorithm_registry()) {
      const std::int32_t p = pick_p(info, machine.cores());
      ASSERT_GT(p, 0) << info.name;
      for (const bool spread : {false, true}) {
        const auto cores =
            spread ? spread_cores(p, machine.cores()) : packed_cores(p);
        failures += check_lanes(machine, info.name, p, counts, cores, &lanes);
        ++passes;
      }
    }
  }
  EXPECT_EQ(failures, "");
  // Most schedule shapes are size-independent: passes really carried
  // several lanes.
  EXPECT_GT(lanes, 2 * passes);
}

TEST(BindingLanes, LoadReportsAndDiagnosticsFollowEachLane) {
  // The load report is per lane too; a duplicate-core warning is shared.
  const auto machine = topo::hydra(4);
  const simmpi::Plan small = simmpi::compile_plan("allgather_ring", 4, 64);
  const simmpi::Plan large = simmpi::compile_plan("allgather_ring", 4, 65536);
  const std::vector<std::int64_t> cores = {0, 0, 17, 40};
  const std::vector<std::vector<JobBinding>> lanes = {
      {{&small.schedule, &small.exec, small.repetitions, &cores, 0.0}},
      {{&large.schedule, &large.exec, large.repetitions, &cores, 0.0}}};
  const std::vector<Result> got = analyze_lanes(machine, lanes);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    const Result want = analyze_jobs(machine, lanes[l]);
    EXPECT_EQ(compare(got[l], want, "lane " + std::to_string(l)), "");
    EXPECT_EQ(got[l].to_string(), want.to_string());
    EXPECT_EQ(got[l].report.count(Severity::Warning), 1u);
  }
  EXPECT_LT(got[0].load.total_bytes, got[1].load.total_bytes);
}

TEST(BindingLanes, StructureChangesSplitPassesAndMismatchesAreRejected) {
  // The alltoall selector picks Bruck for small counts and pairwise for
  // large ones: their schedules differ in structure, so a grid crossing
  // the switch is never merged into one pass.
  const auto machine = topo::hydra(4);
  const auto cores = packed_cores(16);
  std::vector<simmpi::Plan> plans;
  for (const std::int64_t count : {8, 65536}) {
    plans.push_back(simmpi::compile_plan(
        simmpi::selected_algorithm(simmpi::Collective::Alltoall, 16, count,
                                   machine.costs().eager_threshold),
        16, count, 0, 1));
  }
  ASSERT_NE(plans[0].algorithm, plans[1].algorithm);
  const std::vector<JobBinding> a = {
      {&plans[0].schedule, &plans[0].exec, plans[0].repetitions, &cores, 0.0}};
  const std::vector<JobBinding> b = {
      {&plans[1].schedule, &plans[1].exec, plans[1].repetitions, &cores, 0.0}};
  EXPECT_FALSE(same_structure(a, b));
  EXPECT_THROW(analyze_lanes(machine, {a, b}), invalid_argument);

  // Same plan shape, but any other structural field differing rejects the
  // lane too.
  const simmpi::Plan ring = simmpi::compile_plan("allgather_ring", 4, 64);
  const std::vector<std::int64_t> cores_a = {0, 1, 2, 3};
  const std::vector<std::int64_t> cores_b = {0, 1, 2, 4};
  const JobBinding base{&ring.schedule, &ring.exec, ring.repetitions, &cores_a,
                        0.0};
  JobBinding moved = base;
  moved.core_of_rank = &cores_b;
  JobBinding later = base;
  later.start_time = 1e-6;
  JobBinding repeated = base;
  repeated.repetitions = 2;
  for (const JobBinding& other : {moved, later, repeated}) {
    EXPECT_FALSE(same_structure({base}, {other}));
    EXPECT_THROW(analyze_lanes(machine, {{base}, {other}}), invalid_argument);
  }
  EXPECT_FALSE(same_structure({base}, {base, base}));
  EXPECT_TRUE(same_structure({base}, {base}));
  EXPECT_THROW(analyze_lanes(machine, {}), invalid_argument);
}

TEST(BindingLanes, ThreadedPassesMatchPerPayloadAnalysis) {
  // TSan target: concurrent lane passes, each with its own route table,
  // must still match per-payload analysis bit for bit.
  const auto machine = topo::hydra(4);
  const auto& registry = simmpi::algorithm_registry();
  std::mutex mu;
  std::string failures;
  util::ThreadPool pool(4);
  pool.parallel_for(registry.size(), [&](std::size_t i) {
    const auto& info = registry[i];
    const std::int32_t p = pick_p(info, machine.cores());
    const std::string f =
        check_lanes(machine, info.name, p, {64, 2048, 65536}, packed_cores(p));
    if (!f.empty()) {
      const std::lock_guard<std::mutex> lock(mu);
      failures += f;
    }
  });
  EXPECT_EQ(failures, "");
}

TEST(BindingLanes, WarmRouteTableGivesIdenticalResults) {
  // A route table that outlives the call serves later calls from its
  // interned routes without changing a bit.
  const auto machine = topo::lumi(2);
  simnet::RouteTable routes;
  routes.bind(machine);
  const simmpi::Plan plan = simmpi::compile_plan("alltoall_pairwise", 8, 4096);
  const auto cores = spread_cores(8, machine.cores());
  const std::vector<std::vector<JobBinding>> lanes = {
      {{&plan.schedule, &plan.exec, plan.repetitions, &cores, 0.0}}};
  const Result cold = analyze_lanes(machine, lanes, {}, &routes).front();
  const std::int64_t misses = routes.stats().misses;
  const Result warm = analyze_lanes(machine, lanes, {}, &routes).front();
  EXPECT_EQ(routes.stats().misses, misses);
  EXPECT_GT(routes.stats().hits, 0);
  EXPECT_EQ(compare(warm, cold, "warm"), "");
  EXPECT_EQ(warm.to_string(), cold.to_string());
  // A table bound to another Machine instance is refused.
  const auto twin = topo::lumi(2);
  simnet::RouteTable other;
  other.bind(twin);
  EXPECT_THROW(analyze_lanes(machine, lanes, {}, &other), invalid_argument);
}

TEST(BindingDiagnostics, TooDeepRouteIsALocatedError) {
  // Seven levels with memory controllers everywhere: a route diverging at
  // the top crosses 2*7 + 2*7 = 28 channels, above FlowSim's 24. The
  // analyzer must report it with rank/round/message, not abort.
  std::vector<topo::LevelSpec> levels(7, {"", 2, 1e-7, 1e10, 2e10});
  for (std::size_t k = 0; k < levels.size(); ++k) {
    levels[k].name = std::to_string(k);
  }
  const topo::Machine deep("deep", std::move(levels));
  simmpi::ScheduleBuilder b(2, 8);
  b.exchange(0, 0, {0, 8}, 1, {0, 8});
  const simmpi::Plan plan = simmpi::make_plan(std::move(b).build());
  const Result r = analyze(plan, deep, {0, deep.cores() - 1});
  EXPECT_FALSE(r.clean());
  ASSERT_FALSE(r.report.diagnostics.empty());
  const Diagnostic& d = r.report.diagnostics.front();
  EXPECT_EQ(d.rank, 0);
  EXPECT_EQ(d.round, 0);
  EXPECT_EQ(d.msg, 0);
  EXPECT_NE(d.text.find("28 channels"), std::string::npos) << d.text;
  EXPECT_EQ(r.bound.lower_bound, 0.0);
  // Inner routes stay within the limit and analyze clean.
  EXPECT_TRUE(analyze(plan, deep, {0, 1}).clean());
  // The simulator refuses the deep route with an error, not an abort.
  PlanJob job;
  job.plan = std::make_shared<const simmpi::Plan>(plan);
  job.core_of_rank = {0, deep.cores() - 1};
  EXPECT_THROW(simmpi::run_timed(deep, {job}, ExecOptions{}),
               invalid_argument);
}

TEST(BindingCompat, BoundCacheForwardsToAnalyzeJobs) {
  const auto machine = topo::hydra(4);
  const simmpi::Plan plan = simmpi::compile_plan("allgather_ring", 4, 64);
  const auto cores = packed_cores(4);
  const std::vector<JobBinding> jobs = {
      {&plan.schedule, &plan.exec, plan.repetitions, &cores, 0.0}};
  bool reused = true;
  const Result got = BoundCache::analyze(machine, jobs, &reused);
  EXPECT_FALSE(reused);
  Options options;
  options.load_report = false;
  EXPECT_EQ(compare(got, analyze_jobs(machine, jobs, options), "forwarder"),
            "");
  EXPECT_TRUE(got.load.rounds.empty());
}

TEST(BindingChannelName, NamesFollowLevelAndKind) {
  const auto m = topo::testbox();  // ⟦2,2,4⟧: 2 nodes, 4 sockets, 16 cores.
  EXPECT_EQ(channel_name(m, 0), "node[0].egress");
  EXPECT_EQ(channel_name(m, 4), "node[1].ingress");
  EXPECT_EQ(channel_name(m, 3 * 2), "socket[0].egress");
  EXPECT_EQ(channel_name(m, 3 * 5 + 2), "socket[3].mem");
  EXPECT_EQ(channel_name(m, 3 * 6), "core[0].egress");
  EXPECT_EQ(channel_name(m, 3 * 21 + 1), "core[15].ingress");
  EXPECT_EQ(channel_name(m, -1), "channel[-1]");
}

}  // namespace
}  // namespace mr::verify::binding
