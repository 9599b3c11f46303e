// Static schedule verification: the full generator matrix must analyze
// clean, and hand-built adversarial schedules must be rejected with
// diagnostics naming the culprit rank/round/message.
#include "mixradix/verify/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/generator_matrix.hpp"

namespace mr::verify {
namespace {

using simmpi::Combine;
using simmpi::CopyOp;
using simmpi::RecvOp;
using simmpi::Region;
using simmpi::Schedule;
using simmpi::SendOp;

// Adversarial schedules are assembled as raw IR, not via ScheduleBuilder:
// its preconditions (ranks in range, no self-messages) and its message-id
// bookkeeping cannot express most of them.
Schedule blank(std::int32_t nranks, std::int64_t arena) {
  Schedule s;
  s.nranks = nranks;
  s.arena_size = arena;
  s.programs.resize(static_cast<std::size_t>(nranks));
  return s;
}

simmpi::Round& round_of(Schedule& s, std::int32_t rank, int round) {
  auto& rounds = s.programs[static_cast<std::size_t>(rank)].rounds;
  if (rounds.size() <= static_cast<std::size_t>(round)) {
    rounds.resize(static_cast<std::size_t>(round) + 1);
  }
  return rounds[static_cast<std::size_t>(round)];
}

std::int32_t add_message(Schedule& s, std::int32_t src, int send_round,
                         Region src_region, std::int32_t dst, int recv_round,
                         Region dst_region,
                         Combine combine = Combine::Replace) {
  const auto id = static_cast<std::int32_t>(s.messages.size());
  s.messages.push_back(
      simmpi::MsgInfo{src, dst, src_region, dst_region, combine});
  round_of(s, src, send_round).sends.push_back(simmpi::SendOp{id});
  round_of(s, dst, recv_round).recvs.push_back(simmpi::RecvOp{id});
  return id;
}

bool has(const Report& report, Severity severity, Check check) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) {
                       return d.severity == severity && d.check == check;
                     });
}

const Diagnostic* first(const Report& report, Check check) {
  for (const auto& d : report.diagnostics) {
    if (d.check == check) return &d;
  }
  return nullptr;
}

// ---- Generator matrix acceptance -------------------------------------------

TEST(VerifyMatrix, EveryGeneratedScheduleAnalyzesClean) {
  const auto points =
      generator_matrix({1, 2, 3, 4, 5, 8, 13, 16}, {1, 5, 1000});
  ASSERT_GT(points.size(), 100u);
  for (const auto& point : points) {
    const Schedule s = point.make();
    const Report report = analyze(s);
    EXPECT_TRUE(report.clean())
        << point.name << " rejected:\n" << report.to_string();
  }
}

TEST(VerifyMatrix, CoversTheCompositionShapes) {
  const auto names = algorithm_names();
  for (const char* required : {"repeat", "concat", "merge", "concat_merge"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
  }
  const auto points = generator_matrix({4}, {8});
  const auto by_name = [&](const std::string& algorithm) {
    return std::any_of(points.begin(), points.end(),
                       [&](const MatrixPoint& p) {
                         return p.algorithm == algorithm;
                       });
  };
  EXPECT_TRUE(by_name("repeat"));
  EXPECT_TRUE(by_name("concat"));
  EXPECT_TRUE(by_name("merge"));
  EXPECT_TRUE(by_name("concat_merge"));
}

TEST(VerifyMatrix, MakeNamedRejectsUnsupportedPoints) {
  EXPECT_THROW(make_named("no_such_algorithm", 4, 8), invalid_argument);
  EXPECT_THROW(make_named("allgather_recursive_doubling", 6, 8),
               invalid_argument);
  EXPECT_FALSE(supports("allgather_recursive_doubling", 6));
  EXPECT_TRUE(supports("allgather_recursive_doubling", 8));
  EXPECT_TRUE(analyze(make_named("alltoall_bruck", 6, 16)).clean());
}

// Steady-state repetition overwrites the previous iteration's unread
// results by design: the analyzer must accept it (no errors) while still
// surfacing the dead writes as warnings.
TEST(VerifyMatrix, RepeatIsCleanButHasDeadWriteWarnings) {
  const Schedule s = simmpi::repeat(simmpi::allreduce_ring(4, 8), 2);
  const Report report = analyze(s);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_TRUE(has(report, Severity::Warning, Check::DeadWrite))
      << report.to_string();
}

// ---- Adversarial: deadlock -------------------------------------------------

// The classic send/recv round inversion: each rank's round-0 receive waits
// for a message the peer only posts in round 1, behind its own stuck recv.
Schedule round_inversion() {
  Schedule s = blank(2, 4);
  add_message(s, 0, 1, Region{0, 2}, 1, 0, Region{2, 2});
  add_message(s, 1, 1, Region{0, 2}, 0, 0, Region{2, 2});
  return s;
}

TEST(VerifyDeadlock, RoundInversionReportsTheFullCycle) {
  const Report report = analyze(round_inversion());
  EXPECT_FALSE(report.clean());
  const Diagnostic* d = first(report, Check::Deadlock);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->severity, Severity::Error);
  // The trace names every node of the cycle: both ranks, their stuck
  // rounds, and both messages.
  EXPECT_NE(d->text.find("cycle"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("rank 0"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("rank 1"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("message 0"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("message 1"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("round 0"), std::string::npos) << d->text;
}

TEST(VerifyDeadlock, ThreeRankCycleNamesEveryRank) {
  Schedule s = blank(3, 4);
  add_message(s, 0, 1, Region{0, 2}, 1, 0, Region{2, 2});
  add_message(s, 1, 1, Region{0, 2}, 2, 0, Region{2, 2});
  add_message(s, 2, 1, Region{0, 2}, 0, 0, Region{2, 2});
  const Report report = analyze(s);
  const Diagnostic* d = first(report, Check::Deadlock);
  ASSERT_NE(d, nullptr) << report.to_string();
  for (const char* rank : {"rank 0", "rank 1", "rank 2"}) {
    EXPECT_NE(d->text.find(rank), std::string::npos) << d->text;
  }
}

TEST(VerifyDeadlock, SelfMessageBehindItsOwnReceiveDeadlocks) {
  // Rank 0 receives message 0 in round 0 but only posts it in round 1:
  // a one-rank happens-before cycle (plus the self-message warning).
  Schedule s = blank(2, 4);
  add_message(s, 0, 1, Region{0, 2}, 0, 0, Region{2, 2});
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has(report, Severity::Error, Check::Deadlock))
      << report.to_string();
}

TEST(VerifyDeadlock, CrossRoundMessagingInTheRightDirectionIsClean) {
  // Posting early and receiving late is fine; only the inversion deadlocks.
  Schedule s = blank(2, 4);
  add_message(s, 0, 0, Region{0, 2}, 1, 1, Region{2, 2});
  add_message(s, 1, 0, Region{0, 2}, 0, 1, Region{2, 2});
  EXPECT_TRUE(analyze(s).clean());
}

// The executors' entry point runs the deadlock pass alone: the same cycle
// as analyze(), no race or dataflow findings, and no analyze() count.
TEST(VerifyDeadlock, DeadlockOnlyEntryPointSkipsTheOtherPasses) {
  const std::uint64_t analyzes_before = analyze_call_count();
  const Report cycle = analyze_deadlock(round_inversion());
  const Report full = analyze(round_inversion());
  ASSERT_EQ(cycle.count(Severity::Error), 1u) << cycle.to_string();
  ASSERT_NE(first(full, Check::Deadlock), nullptr) << full.to_string();
  EXPECT_EQ(first(cycle, Check::Deadlock)->text,
            first(full, Check::Deadlock)->text);

  Schedule racy = blank(3, 8);
  add_message(racy, 0, 0, Region{0, 4}, 1, 0, Region{4, 4});
  add_message(racy, 2, 0, Region{0, 2}, 1, 0, Region{6, 2});
  ASSERT_NE(first(analyze(racy), Check::Race), nullptr);
  const Report racy_deadlock = analyze_deadlock(racy);
  EXPECT_TRUE(racy_deadlock.diagnostics.empty()) << racy_deadlock.to_string();
  EXPECT_EQ(analyze_call_count() - analyzes_before, 2u);
}

TEST(VerifyDeadlock, ExecutorBackstopCarriesTheCycleTrace) {
  simmpi::DataExecutor exec(round_inversion());
  try {
    exec.run();
    FAIL() << "deadlocking schedule ran to completion";
  } catch (const invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("message 0"), std::string::npos)
        << e.what();
  }
}

// Both executors explain a deadlock with the same deadlock-only analysis:
// each message carries its report verbatim.
TEST(VerifyDeadlock, BothExecutorsCarryTheSameCycleTrace) {
  const std::string trace = analyze_deadlock(round_inversion()).to_string();
  ASSERT_NE(trace.find("cycle"), std::string::npos) << trace;
  const auto message_of = [](auto&& run) {
    try {
      run();
    } catch (const invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string data =
      message_of([] { simmpi::DataExecutor(round_inversion()).run(); });
  EXPECT_NE(data.find(trace), std::string::npos) << data;
  const simmpi::PlanJob job{std::make_shared<const simmpi::Plan>(
                                simmpi::make_plan(round_inversion())),
                            {0, 1}, 0.0};
  const std::string timed =
      message_of([&] { simmpi::run_timed(topo::testbox(), {job}); });
  EXPECT_NE(timed.find(trace), std::string::npos) << timed;
}

// ---- Adversarial: write races ----------------------------------------------

TEST(VerifyRace, OverlappingReplaceReceivesAreRejected) {
  Schedule s = blank(3, 8);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4});
  add_message(s, 2, 0, Region{0, 2}, 1, 0, Region{6, 2});  // overlaps [4,8)
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  const Diagnostic* d = first(report, Check::Race);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->rank, 1);
  EXPECT_EQ(d->round, 0);
  EXPECT_NE(d->text.find("message 0"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("message 1"), std::string::npos) << d->text;
}

TEST(VerifyRace, OverlappingCommutativeReceivesAreAllowed) {
  Schedule s = blank(3, 8);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4}, Combine::Sum);
  add_message(s, 2, 0, Region{0, 4}, 1, 0, Region{4, 4}, Combine::Sum);
  EXPECT_TRUE(analyze(s).clean());
}

TEST(VerifyRace, MixedCombinesOnOverlapAreRejected) {
  // sum-then-replace vs replace-then-sum differ: order-dependent.
  Schedule s = blank(3, 8);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4}, Combine::Sum);
  add_message(s, 2, 0, Region{0, 4}, 1, 0, Region{4, 4}, Combine::Replace);
  EXPECT_TRUE(has(analyze(s), Severity::Error, Check::Race));
}

TEST(VerifyRace, CopyIntoAPostedReceiveBufferIsRejected) {
  Schedule s = blank(2, 8);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4});
  round_of(s, 1, 0).copies.push_back(
      CopyOp{Region{0, 2}, Region{5, 2}, Combine::Replace});
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  const Diagnostic* d = first(report, Check::Race);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->rank, 1);
  EXPECT_NE(d->text.find("copy"), std::string::npos) << d->text;
}

TEST(VerifyRace, OverlappingLocalCopiesOnlyWarn) {
  Schedule s = blank(1, 16);
  round_of(s, 0, 0).copies.push_back(
      CopyOp{Region{0, 4}, Region{8, 4}, Combine::Replace});
  round_of(s, 0, 0).copies.push_back(
      CopyOp{Region{2, 4}, Region{10, 4}, Combine::Replace});
  const Report report = analyze(s);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_TRUE(has(report, Severity::Warning, Check::Race))
      << report.to_string();
}

TEST(VerifyRace, DisjointSameRoundWritesAreClean) {
  Schedule s = blank(3, 16);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4});
  add_message(s, 2, 0, Region{0, 4}, 1, 0, Region{8, 4});
  EXPECT_TRUE(analyze(s).clean());
}

// ---- Adversarial: conservation & structure ---------------------------------

TEST(VerifyConservation, ByteCountMismatchNamesTheMessage) {
  Schedule s = blank(2, 8);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{0, 2});
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  const Diagnostic* d = first(report, Check::Conservation);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->msg, 0);
  EXPECT_NE(d->text.find("32 B"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("16 B"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("not conserved"), std::string::npos) << d->text;
}

TEST(VerifyConservation, DoubleSendNamesRankAndMessage) {
  Schedule s = blank(2, 8);
  const auto id = add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4});
  round_of(s, 0, 1).sends.push_back(simmpi::SendOp{id});
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  const Diagnostic* d = first(report, Check::Conservation);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->msg, 0);
  EXPECT_NE(d->text.find("2 times"), std::string::npos) << d->text;
  EXPECT_NE(d->text.find("rank 0"), std::string::npos) << d->text;
}

TEST(VerifyConservation, DroppedPayloadIsRejected) {
  Schedule s = blank(2, 8);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4});
  s.programs[1].rounds[0].recvs.clear();  // payload is never received
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has(report, Severity::Error, Check::Conservation))
      << report.to_string();
}

// ---- Structure: the one check a raw schedule passes ------------------------
//
// make_plan and the DataExecutor run analyze_structure. Each corruption
// below yields located Errors, and both doors reject the schedule with the
// first one in their message.

struct Corruption {
  const char* name;
  void (*apply)(Schedule&);
  Check check;  ///< of the first Error, located at rank/round/msg.
  std::int32_t rank;
  int round;
  std::int32_t msg;
  const char* needle;  ///< in the first Error's text.
  std::size_t errors = 1;
};

// Rank 0 sends [0, 4) to [4, 8) on rank 1 in round 0; 8-double arenas.
Schedule one_exchange() {
  Schedule s = blank(2, 8);
  add_message(s, 0, 0, Region{0, 4}, 1, 0, Region{4, 4});
  return s;
}

void expect_rejected(const Schedule& bad, const Corruption& c) {
  SCOPED_TRACE(c.name);
  const Report report = analyze_structure(bad);
  ASSERT_EQ(report.count(Severity::Error), c.errors) << report.to_string();
  const Diagnostic& d = *std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& x) { return x.severity == Severity::Error; });
  EXPECT_EQ(d.check, c.check) << d.to_string();
  EXPECT_EQ(d.rank, c.rank) << d.to_string();
  EXPECT_EQ(d.round, c.round) << d.to_string();
  EXPECT_EQ(d.msg, c.msg) << d.to_string();
  EXPECT_NE(d.text.find(c.needle), std::string::npos) << d.text;
  const auto message_of = [](auto&& door) {
    try {
      door();
    } catch (const invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const std::string plan = message_of([&] { (void)simmpi::make_plan(bad); });
  EXPECT_NE(plan.find(d.to_string()), std::string::npos) << plan;
  const std::string data =
      message_of([&] { simmpi::DataExecutor exec(bad); });
  EXPECT_NE(data.find(d.to_string()), std::string::npos) << data;
}

void expect_each_rejected(const std::vector<Corruption>& cases) {
  for (const Corruption& c : cases) {
    Schedule bad = one_exchange();
    c.apply(bad);
    expect_rejected(bad, c);
  }
}

TEST(VerifyStructure, EachCorruptionIsLocatedAndRejectedByBothDoors) {
  expect_each_rejected({
      {"endpoint outside [0, nranks)",
       [](Schedule& s) {
         s.messages[0].dst = 5;
         s.programs[1].rounds[0].recvs.clear();
       },
       Check::Structure, -1, -1, 0, "endpoints 0 -> 5 outside [0, 2)"},
      {"src region outside the arena",
       [](Schedule& s) { s.messages[0].src_region = Region{6, 4}; },
       Check::Structure, 0, -1, 0,
       "source region [6, 10) leaves the arena of 8 doubles"},
      {"dst region outside the arena",
       [](Schedule& s) { s.messages[0].dst_region = Region{6, 4}; },
       Check::Structure, 1, -1, 0,
       "destination region [6, 10) leaves the arena of 8 doubles"},
      {"src/dst count mismatch",
       [](Schedule& s) { s.messages[0].dst_region.count = 2; },
       Check::Conservation, 1, -1, 0,
       "sends 32 B from rank 0 but receives 16 B on rank 1"},
      {"sent twice",
       [](Schedule& s) { s.programs[0].rounds[0].sends.push_back(SendOp{0}); },
       Check::Conservation, 0, 0, 0, "is posted 2 times by rank 0"},
      {"never received",
       [](Schedule& s) { s.programs[1].rounds[0].recvs.clear(); },
       Check::Conservation, 1, -1, 0, "is received 0 times by rank 1"},
      {"unknown message in a send op",
       [](Schedule& s) { s.programs[0].rounds[0].sends.push_back(SendOp{7}); },
       Check::Structure, 0, 0, 7,
       "send op on rank 0 round 0 references unknown message 7"},
      {"unknown message in a recv op",
       [](Schedule& s) { s.programs[1].rounds[0].recvs.push_back(RecvOp{7}); },
       Check::Structure, 1, 0, 7,
       "recv op on rank 1 round 0 references unknown message 7"},
      {"send op on a rank that does not own the message",
       [](Schedule& s) { s.programs[1].rounds[0].sends.push_back(SendOp{0}); },
       Check::Structure, 1, 0, 0, "owned by rank 0"},
      {"recv op on a rank the message is not addressed to",
       [](Schedule& s) { s.programs[0].rounds[0].recvs.push_back(RecvOp{0}); },
       Check::Structure, 0, 0, 0, "addressed to rank 1"},
      {"copy outside the arena",
       [](Schedule& s) {
         s.programs[0].rounds[0].copies.push_back(
             CopyOp{Region{0, 9}, Region{0, 9}});
       },
       Check::Structure, 0, 0, -1,
       "copy 0 on rank 0 round 0 touches [0, 9) -> [0, 9) outside the arena"},
      {"copy count mismatch",
       [](Schedule& s) {
         s.programs[0].rounds[0].copies.push_back(
             CopyOp{Region{0, 2}, Region{4, 3}});
       },
       Check::Structure, 0, 0, -1, "copies 2 doubles into a region of 3"},
      {"negative compute time",
       [](Schedule& s) { s.programs[0].rounds[0].compute_seconds = -1; },
       Check::Structure, 0, 0, -1, "negative compute time on rank 0 round 0"},
      {"program count != nranks", [](Schedule& s) { s.programs.resize(1); },
       Check::Structure, -1, -1, -1, "1 rank programs for 2 ranks"},
      {"nranks <= 0", [](Schedule& s) { s.nranks = 0; }, Check::Structure, -1,
       -1, -1, "schedule has no ranks"},
  });
}

// Offsets and counts near the int64 limits, and negative ones: neither the
// check nor its text may overflow. An offset of INT64_MAX - 1 used to wrap
// past the arena test, and the DataExecutor then wrote outside the arena.
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(VerifyStructure, ValuesNearInt64LimitsAreLocatedErrors) {
  expect_each_rejected({
      {"dst offset INT64_MAX - 1",
       [](Schedule& s) { s.messages[0].dst_region.offset = kMax - 1; },
       Check::Structure, 1, -1, 0,
       "destination region [9223372036854775806, 9223372036854775806 + 4) "
       "leaves the arena"},
      {"src offset INT64_MAX",
       [](Schedule& s) { s.messages[0].src_region.offset = kMax; },
       Check::Structure, 0, -1, 0,
       "[9223372036854775807, 9223372036854775807 + 4)"},
      {"counts INT64_MAX / 2",
       [](Schedule& s) {
         s.messages[0].src_region.count = kMax / 2;
         s.messages[0].dst_region.count = kMax / 2;
       },
       Check::Structure, 0, -1, 0,
       "(rank 0 -> rank 1, 4611686018427387903 x 8 B) source region "
       "[0, 4611686018427387903)",
       2},
      {"dst count INT64_MAX",
       [](Schedule& s) { s.messages[0].dst_region.count = kMax; },
       Check::Structure, 1, -1, 0,
       "destination region [4, 4 + 9223372036854775807)", 2},
      {"negative offset",
       [](Schedule& s) { s.messages[0].src_region.offset = -2; },
       Check::Structure, 0, -1, 0, "source region [-2, 2) leaves the arena"},
      {"negative counts",
       [](Schedule& s) {
         s.programs[0].rounds[0].copies.push_back(
             CopyOp{Region{0, -4}, Region{4, -4}});
       },
       Check::Structure, 0, 0, -1, "touches [0, -4) -> [4, 0) outside"},
      {"offset INT64_MIN, count -1",
       [](Schedule& s) {
         s.programs[0].rounds[0].copies.push_back(
             CopyOp{Region{kMin, -1}, Region{0, -1}});
       },
       Check::Structure, 0, 0, -1,
       "touches [-9223372036854775808, -9223372036854775808 + -1)"},
      {"negative arena", [](Schedule& s) { s.arena_size = -1; },
       Check::Structure, -1, -1, -1, "arena of -1 doubles"},
      {"arena too large to address in bytes",
       [](Schedule& s) { s.arena_size = kMax; }, Check::Structure, -1, -1, -1,
       "arena of 9223372036854775807 doubles"},
  });
}

// build() checks nothing: a copy outside the arena comes back from the
// builder, and each door rejects it.
TEST(VerifyStructure, BuilderOutputIsCheckedAtTheDoor) {
  simmpi::ScheduleBuilder b(2, 8);
  b.exchange(0, 0, Region{0, 4}, 1, Region{4, 4});
  b.copy(0, 0, Region{6, 4}, Region{0, 4});
  expect_rejected(std::move(b).build(),
                  {"builder copy outside the arena", nullptr, Check::Structure,
                   0, 0, -1, "touches [6, 10) -> [0, 4) outside the arena"});
}

TEST(VerifyStructure, OutOfArenaRegionNamesTheMessage) {
  Schedule s = blank(2, 8);
  add_message(s, 0, 0, Region{6, 4}, 1, 0, Region{4, 4});  // [6,10) > 8
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  const Diagnostic* d = first(report, Check::Structure);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->msg, 0);
  EXPECT_NE(d->text.find("arena"), std::string::npos) << d->text;
}

TEST(VerifyStructure, DanglingMessageReferenceShortCircuits) {
  Schedule s = blank(2, 8);
  round_of(s, 0, 0).sends.push_back(simmpi::SendOp{7});
  const Report report = analyze(s);
  EXPECT_FALSE(report.clean());
  const Diagnostic* d = first(report, Check::Structure);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->text.find("unknown message 7"), std::string::npos) << d->text;
  // Deeper passes must not run on a schedule they cannot index safely.
  EXPECT_FALSE(has(report, Severity::Error, Check::Deadlock));
}

TEST(VerifyStructure, SelfMessageOnlyWarns) {
  Schedule s = blank(2, 8);
  add_message(s, 0, 0, Region{0, 4}, 0, 0, Region{4, 4});
  const Report report = analyze(s);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_TRUE(has(report, Severity::Warning, Check::Structure))
      << report.to_string();
}

// ---- Liveness lints --------------------------------------------------------

TEST(VerifyDataflow, FullyOverwrittenUnreadWriteIsDead) {
  Schedule s = blank(1, 8);
  round_of(s, 0, 0).copies.push_back(
      CopyOp{Region{0, 2}, Region{4, 2}, Combine::Replace});
  round_of(s, 0, 1).copies.push_back(
      CopyOp{Region{2, 2}, Region{4, 2}, Combine::Replace});
  const Report report = analyze(s);
  EXPECT_TRUE(report.clean()) << report.to_string();
  const Diagnostic* d = first(report, Check::DeadWrite);
  ASSERT_NE(d, nullptr) << report.to_string();
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->round, 0);
}

TEST(VerifyDataflow, ReadOrPartialSurvivalKeepsAWriteAlive) {
  // Same shape, but the first write is read before being overwritten.
  Schedule s = blank(2, 8);
  round_of(s, 0, 0).copies.push_back(
      CopyOp{Region{0, 2}, Region{4, 2}, Combine::Replace});
  add_message(s, 0, 1, Region{4, 2}, 1, 1, Region{0, 2});  // reads [4,6)
  round_of(s, 0, 2).copies.push_back(
      CopyOp{Region{2, 2}, Region{4, 2}, Combine::Replace});
  const Report report = analyze(s);
  EXPECT_FALSE(has(report, Severity::Warning, Check::DeadWrite))
      << report.to_string();
}

TEST(VerifyDataflow, AccumulatingOverwriteReadsThePreviousValue) {
  // A Sum combine consumes the previous contents: not a dead write.
  Schedule s = blank(1, 8);
  round_of(s, 0, 0).copies.push_back(
      CopyOp{Region{0, 2}, Region{4, 2}, Combine::Replace});
  round_of(s, 0, 1).copies.push_back(
      CopyOp{Region{2, 2}, Region{4, 2}, Combine::Sum});
  EXPECT_FALSE(has(analyze(s), Severity::Warning, Check::DeadWrite));
}

TEST(VerifyDataflow, InputInferenceFollowsOptions) {
  Schedule s = blank(1, 8);
  round_of(s, 0, 0).copies.push_back(
      CopyOp{Region{0, 2}, Region{4, 2}, Combine::Replace});

  EXPECT_TRUE(analyze(s).diagnostics.empty());  // inputs assumed initialised

  Options report_inputs;
  report_inputs.report_inputs = true;
  const Report inputs = analyze(s, report_inputs);
  const Diagnostic* d = first(inputs, Check::UninitRead);
  ASSERT_NE(d, nullptr) << inputs.to_string();
  EXPECT_EQ(d->severity, Severity::Info);
  EXPECT_NE(d->text.find("[0, 2)"), std::string::npos) << d->text;

  Options strict;
  strict.assume_inputs_initialized = false;
  const Report uninit = analyze(s, strict);
  EXPECT_TRUE(has(uninit, Severity::Warning, Check::UninitRead))
      << uninit.to_string();
}

// ---- Report plumbing -------------------------------------------------------

TEST(VerifyReport, SummaryCountsAndSuppression) {
  // p overlapping Replace receives on one rank: O(p^2) conflicts, far more
  // than the diagnostic cap.
  Schedule s = blank(9, 64);
  for (std::int32_t src = 1; src < 9; ++src) {
    add_message(s, src, 0, Region{0, 8}, 0, 0, Region{8, 8});
  }
  Options options;
  options.max_diagnostics = 4;
  const Report report = analyze(s, options);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.diagnostics.size(), 5u);  // 4 kept + the suppression note
  EXPECT_NE(report.to_string().find("suppressed"), std::string::npos);
  EXPECT_NE(report.summary().find("errors"), std::string::npos);
}

TEST(VerifyReport, DiagnosticToStringCarriesLocations) {
  Diagnostic d;
  d.severity = Severity::Error;
  d.check = Check::Race;
  d.rank = 3;
  d.round = 2;
  d.msg = 7;
  d.text = "boom";
  EXPECT_EQ(d.to_string(), "error[race] rank 3 round 2 msg 7: boom");
}

TEST(VerifyReport, EmptyScheduleIsClean) {
  const Report report = analyze(blank(1, 0));
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.diagnostics.empty());
}

}  // namespace
}  // namespace mr::verify
