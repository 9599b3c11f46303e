// Compiled-plan tests: registry/selector consistency, the flattened
// execution CSR, and the executor's repetition loop against materialized
// repeat() schedules.
#include "mixradix/simmpi/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/generator_matrix.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::simmpi {
namespace {

/// `schedule` as a plan of `repetitions` bound to `cores`.
PlanJob job_of(Schedule schedule, int repetitions,
               std::vector<std::int64_t> cores) {
  return PlanJob{std::make_shared<const Plan>(
                     make_plan(std::move(schedule), repetitions)),
                 std::move(cores), 0.0};
}

TEST(Registry, EveryEntryHasNamePredicateAndGenerator) {
  const auto& reg = algorithm_registry();
  ASSERT_FALSE(reg.empty());
  for (const AlgorithmInfo& e : reg) {
    EXPECT_NE(e.name, nullptr);
    EXPECT_NE(e.supported, nullptr);
    EXPECT_NE(e.make, nullptr);
    EXPECT_EQ(find_algorithm(e.name), &e);
  }
}

TEST(Registry, FindUnknownReturnsNull) {
  EXPECT_EQ(find_algorithm("alltoall_quantum"), nullptr);
}

TEST(Registry, MakeAlgorithmMatchesDirectGenerators) {
  const Schedule direct = alltoall_bruck(8, 100);
  const Schedule named = make_algorithm("alltoall_bruck", 8, 100);
  EXPECT_EQ(named.nranks, direct.nranks);
  EXPECT_EQ(named.arena_size, direct.arena_size);
  EXPECT_EQ(named.messages.size(), direct.messages.size());
  EXPECT_EQ(named.total_bytes(), direct.total_bytes());
}

TEST(Registry, MakeAlgorithmValidatesArguments) {
  EXPECT_THROW(make_algorithm("no_such_algorithm", 4, 1), mr::invalid_argument);
  EXPECT_THROW(make_algorithm("allgather_recursive_doubling", 6, 1),
               mr::invalid_argument);
  EXPECT_THROW(make_algorithm("alltoall_bruck", 4, 0), mr::invalid_argument);
  EXPECT_THROW(make_algorithm("bcast_binomial", 4, 1, 4), mr::invalid_argument);
  EXPECT_THROW(make_algorithm("bcast_binomial", 4, 1, -1),
               mr::invalid_argument);
}

// The selector must only ever pick names the registry can compile — this is
// the contract that lets the harness route every collective through the
// plan cache by name.
TEST(Registry, SelectorOnlyPicksRegisteredAlgorithms) {
  const std::vector<Collective> kinds = {
      Collective::Alltoall,  Collective::Allgather, Collective::Allreduce,
      Collective::Bcast,     Collective::Reduce,    Collective::Gather,
      Collective::Scatter,   Collective::ReduceScatter,
      Collective::Scan,      Collective::Barrier,
  };
  for (const Collective kind : kinds) {
    for (const std::int32_t p : {2, 3, 16}) {
      for (const std::int64_t count : {std::int64_t{1}, std::int64_t{65536}}) {
        const std::string name = selected_algorithm(kind, p, count, 8192);
        const AlgorithmInfo* info = find_algorithm(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_TRUE(info->supported(p)) << name << " p=" << p;
      }
    }
  }
}

// The verify generator matrix delegates to the same registry: every
// registry name is a matrix name and instantiates identically.
TEST(Registry, VerifyMatrixDelegatesToRegistry) {
  const auto names = verify::algorithm_names();
  for (const AlgorithmInfo& e : algorithm_registry()) {
    EXPECT_NE(std::find(names.begin(), names.end(), e.name), names.end())
        << e.name;
    EXPECT_EQ(verify::supports(e.name, 16), e.supported(16));
    const Schedule a = verify::make_named(e.name, 4, 40, 0);
    const Schedule b = make_algorithm(e.name, 4, 40, 0);
    EXPECT_EQ(a.messages.size(), b.messages.size()) << e.name;
    EXPECT_EQ(a.total_bytes(), b.total_bytes()) << e.name;
  }
}

TEST(PlanExec, CsrMatchesSchedule) {
  const Schedule s = make_algorithm("allgather_ring", 5, 20);
  const PlanExec exec = derive_exec(s);
  ASSERT_EQ(exec.rank_rounds_begin.size(), static_cast<std::size_t>(s.nranks) + 1);
  EXPECT_EQ(exec.rank_rounds_begin.front(), 0);
  EXPECT_EQ(exec.msg_bytes.size(), s.messages.size());
  for (std::size_t m = 0; m < s.messages.size(); ++m) {
    EXPECT_EQ(exec.msg_bytes[m], s.messages[m].bytes());
  }
  std::int64_t flat = 0;
  for (std::int32_t rank = 0; rank < s.nranks; ++rank) {
    const auto& rounds = s.programs[static_cast<std::size_t>(rank)].rounds;
    EXPECT_EQ(exec.rounds_of(rank), static_cast<std::int64_t>(rounds.size()));
    for (const Round& round : rounds) {
      const auto gi = static_cast<std::size_t>(flat);
      EXPECT_EQ(exec.round_compute[gi], round.compute_seconds);
      const auto sends_begin = static_cast<std::size_t>(exec.send_begin[gi]);
      const auto recvs_begin = static_cast<std::size_t>(exec.recv_begin[gi]);
      ASSERT_EQ(exec.send_begin[gi + 1] - exec.send_begin[gi],
                static_cast<std::int64_t>(round.sends.size()));
      ASSERT_EQ(exec.recv_begin[gi + 1] - exec.recv_begin[gi],
                static_cast<std::int64_t>(round.recvs.size()));
      for (std::size_t i = 0; i < round.sends.size(); ++i) {
        EXPECT_EQ(exec.send_msg[sends_begin + i], round.sends[i].msg);
      }
      for (std::size_t i = 0; i < round.recvs.size(); ++i) {
        EXPECT_EQ(exec.recv_msg[recvs_begin + i], round.recvs[i].msg);
      }
      std::int64_t copy_doubles = 0;
      for (const CopyOp& op : round.copies) copy_doubles += op.dst.count;
      EXPECT_EQ(exec.round_copy_doubles[gi], copy_doubles);
      ++flat;
    }
  }
  EXPECT_EQ(exec.rank_rounds_begin.back(), flat);
}

TEST(Plan, MakePlanRejectsNonPositiveRepetitions) {
  EXPECT_THROW(make_plan(make_algorithm("barrier_dissemination", 4, 1), 0),
               mr::invalid_argument);
}

TEST(Plan, CompilePlanCarriesAlgorithmAndCounts) {
  const Plan plan = compile_plan("alltoall_pairwise", 8, 64, 0, 3);
  EXPECT_EQ(plan.algorithm, "alltoall_pairwise");
  EXPECT_EQ(plan.nranks(), 8);
  EXPECT_EQ(plan.repetitions, 3);
  EXPECT_EQ(plan.total_messages(), plan.messages_per_rep() * 3);
}

// Every registry algorithm passes the static analysis compile_plan runs,
// and one compile is exactly one analysis however many builder, concat or
// merge steps its generator takes.
TEST(Plan, CompilePlanAnalyzesEachCompileOnce) {
  const std::uint64_t analyzes_before = verify::analyze_call_count();
  std::uint64_t compiles = 0;
  for (const AlgorithmInfo& e : algorithm_registry()) {
    ASSERT_TRUE(e.supported(8)) << e.name;
    for (const std::int32_t p : {2, 3, 8, 12}) {
      if (!e.supported(p)) continue;
      const std::int32_t root = e.rooted ? p - 1 : 0;
      const Plan plan = compile_plan(e.name, p, 24, root, 2);
      EXPECT_EQ(plan.algorithm, e.name);
      EXPECT_EQ(plan.nranks(), p) << e.name;
      ++compiles;
    }
  }
  EXPECT_EQ(verify::analyze_call_count() - analyzes_before, compiles);
}

// The load-bearing equivalence: executing a plan's repetition count as a
// loop must reproduce the materialized repeat() schedule bit for bit —
// the sweep CSVs depend on it.
TEST(Plan, RepetitionLoopMatchesMaterializedRepeat) {
  const auto machine = topo::testbox();
  const std::vector<std::int64_t> cores = {0, 1, 4, 5, 8, 9, 12, 13};
  for (const char* name :
       {"alltoall_pairwise", "allreduce_recursive_doubling",
        "allgather_bruck", "reduce_scatter_ring"}) {
    for (const int reps : {1, 2, 5}) {
      const Schedule once = make_algorithm(name, 8, 300);
      const double expect =
          run_timed(machine, {job_of(repeat(once, reps), 1, cores)}).makespan;
      const double got =
          run_timed(machine, {job_of(once, reps, cores)}).makespan;
      EXPECT_EQ(got, expect) << name << " reps=" << reps;
    }
  }
}

TEST(Plan, RepetitionLoopMatchesRepeatUnderContention) {
  const auto machine = topo::testbox();
  const Schedule once = make_algorithm("alltoall_pairwise", 4, 2048);
  const auto plan = std::make_shared<const Plan>(make_plan(once, 3));
  const std::vector<std::vector<std::int64_t>> bindings = {
      {0, 1, 2, 3}, {8, 9, 10, 11}};

  std::vector<PlanJob> materialized;
  std::vector<PlanJob> jobs;
  for (const auto& cores : bindings) {
    materialized.push_back(job_of(repeat(once, 3), 1, cores));
    jobs.push_back(PlanJob{plan, cores, 0.0});
  }
  const TimedResult a = run_timed(machine, materialized);
  const TimedResult b = run_timed(machine, jobs);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.job_finish.size(), b.job_finish.size());
  for (std::size_t i = 0; i < a.job_finish.size(); ++i) {
    EXPECT_EQ(a.job_finish[i], b.job_finish[i]);
  }
  EXPECT_EQ(a.total_messages, b.total_messages);
}

TEST(Plan, EmptyRankProgramsFinishImmediately) {
  // A schedule where some ranks have no rounds at all must not trip the
  // repetition arithmetic (rounds_per_rep == 0).
  ScheduleBuilder b(3, 4);
  b.exchange(0, 0, Region{0, 4}, 2, Region{0, 4});  // rank 1 idle
  const auto machine = topo::testbox();
  const double t =
      run_timed(machine, {job_of(std::move(b).build(), 4, {0, 1, 2})})
          .makespan;
  EXPECT_GT(t, 0.0);
}

// make_plan is the one door from a raw Schedule to the simulator, so it
// must refuse a malformed one; build() checks nothing.
TEST(Plan, MakePlanRejectsMalformedSchedule) {
  ScheduleBuilder b(2, 8);
  b.exchange(0, 0, Region{0, 4}, 1, Region{4, 4});
  Schedule bad = std::move(b).build();
  bad.programs[1].rounds[0].recvs.clear();  // message 0 never received
  const verify::Report report = verify::analyze_structure(bad);
  ASSERT_FALSE(report.clean());
  try {
    (void)make_plan(bad);
    FAIL() << "malformed schedule became a plan";
  } catch (const invalid_argument& e) {
    // The message carries the structure report, every finding located.
    EXPECT_NE(std::string(e.what()).find("malformed schedule:\n" +
                                         report.to_string()),
              std::string::npos)
        << e.what();
  }
  bad.programs[1].rounds.clear();
  bad.messages[0].dst = 5;  // endpoint outside the schedule
  EXPECT_THROW(make_plan(bad, 2), invalid_argument);
}

TEST(Plan, DataExecutorRunsPlansWithRepetitions) {
  // allreduce twice: the second repetition re-sums the already-reduced
  // arenas, so every rank ends with p^2 * initial (initial = rank + 1,
  // summed = p(p+1)/2, then p * that... verified against the materialized
  // DataExecutor run instead of hand-arithmetic).
  const auto plan = std::make_shared<const Plan>(
      make_plan(make_algorithm("allreduce_recursive_doubling", 4, 8), 2));
  DataExecutor via_plan(plan);
  DataExecutor materialized(repeat(plan->schedule, 2));
  for (std::int32_t rank = 0; rank < 4; ++rank) {
    for (auto* ex : {&via_plan, &materialized}) {
      auto& arena = ex->arena(rank);
      std::fill(arena.begin(), arena.end(), static_cast<double>(rank + 1));
    }
  }
  via_plan.run();
  materialized.run();
  for (std::int32_t rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(via_plan.arena(rank), materialized.arena(rank)) << rank;
  }
}

}  // namespace
}  // namespace mr::simmpi
