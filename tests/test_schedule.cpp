// Schedule representation: builder invariants and composition. The
// structure check itself is tested in test_verify.cpp.
#include "mixradix/simmpi/schedule.hpp"

#include <gtest/gtest.h>

#include <string>

#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::simmpi {
namespace {

TEST(ScheduleBuilder, BuildsAValidExchange) {
  ScheduleBuilder b(2, 8);
  b.exchange(0, 0, Region{0, 4}, 1, Region{4, 4});
  b.exchange(0, 1, Region{0, 4}, 0, Region{4, 4});
  const Schedule s = std::move(b).build();
  EXPECT_EQ(s.nranks, 2);
  EXPECT_EQ(s.messages.size(), 2u);
  EXPECT_EQ(s.total_bytes(), 2 * 4 * 8);
  EXPECT_TRUE(verify::analyze_structure(s).clean());
}

TEST(ScheduleBuilder, RejectsSelfMessages) {
  ScheduleBuilder b(2, 8);
  EXPECT_THROW(b.exchange(0, 0, Region{0, 4}, 0, Region{4, 4}), invalid_argument);
}

TEST(ScheduleBuilder, RejectsBadRanksAndRounds) {
  ScheduleBuilder b(2, 8);
  EXPECT_THROW(b.compute(0, 2, 1.0), invalid_argument);
  EXPECT_THROW(b.compute(-1, 0, 1.0), invalid_argument);
  EXPECT_THROW(b.compute(0, 0, -1.0), invalid_argument);
}

TEST(ScheduleBuilder, LazyRoundCreationKeepsProgramsAligned) {
  ScheduleBuilder b(3, 4);
  b.compute(5, 1, 1e-6);  // creates rounds 0..5 for rank 1 only
  const Schedule s = std::move(b).build();
  EXPECT_EQ(s.programs[1].rounds.size(), 6u);
  EXPECT_EQ(s.programs[0].rounds.size(), 0u);  // others stay empty
  EXPECT_TRUE(verify::analyze_structure(s).clean());
}

TEST(DataExecutor, DetectsDeadlock) {
  // Rank 0 waits (round 0 recv) for a message rank 1 only sends in its
  // round 1, but rank 1's round 0 waits for rank 0's round-1 send: cycle.
  // build() checks nothing and the structure is sound, so the executor's
  // own deadlock check throws.
  EXPECT_THROW(
      {
        ScheduleBuilder b(2, 4);
        b.message(1, 0, Region{0, 2}, 0, 1, Region{2, 2});  // 0 sends in round 1
        b.message(1, 1, Region{0, 2}, 0, 0, Region{2, 2});  // 1 sends in round 1
        const Schedule s = std::move(b).build();
        // Each rank's round 0 has only the recv; the matching sends sit in
        // round 1 behind those recvs.
        DataExecutor exec(s);
        exec.run();
      },
      invalid_argument);
}

TEST(Concat, SequencesPartsWithoutBarriers) {
  const auto part = [] {
    ScheduleBuilder b(2, 4);
    b.exchange(0, 0, Region{0, 2}, 1, Region{2, 2});
    return std::move(b).build();
  };
  const Schedule s = concat({part(), part(), part()});
  EXPECT_EQ(s.messages.size(), 3u);
  EXPECT_EQ(s.programs[0].rounds.size(), 3u);
  EXPECT_TRUE(verify::analyze_structure(s).clean());
  DataExecutor exec(s);
  exec.arena(0)[0] = 42;
  exec.arena(0)[1] = 43;
  exec.run();
  EXPECT_DOUBLE_EQ(exec.arena(1)[2], 42);
  EXPECT_DOUBLE_EQ(exec.arena(1)[3], 43);
}

TEST(Concat, RejectsMismatchedRankCounts) {
  ScheduleBuilder a(2, 4), b(3, 4);
  a.exchange(0, 0, Region{0, 2}, 1, Region{2, 2});
  b.exchange(0, 0, Region{0, 2}, 1, Region{2, 2});
  EXPECT_THROW(concat({std::move(a).build(), std::move(b).build()}),
               invalid_argument);
}

// concat and merge index a part's programs and endpoints, so a malformed
// part must throw before it is read, naming the part and the message.
TEST(Concat, RejectsPartWithTooFewPrograms) {
  ScheduleBuilder b(2, 4);
  b.exchange(0, 0, Region{0, 2}, 1, Region{2, 2});
  const Schedule good = std::move(b).build();
  Schedule bad = good;
  bad.programs.resize(1);
  try {
    (void)concat({good, bad});
    FAIL() << "concat read a part with one program for two ranks";
  } catch (const invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "concat part 1 has 1 rank programs for 2 ranks"),
              std::string::npos)
        << e.what();
  }
}

TEST(Merge, RejectsPartWithBadEndpointsOrTooFewPrograms) {
  ScheduleBuilder b(2, 4);
  b.exchange(0, 0, Region{0, 2}, 1, Region{2, 2});
  const Schedule good = std::move(b).build();
  const auto message_of = [&](const Schedule& bad) {
    try {
      (void)merge({good, bad}, {{0, 1}, {2, 3}}, 4);
    } catch (const invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  Schedule bad = good;
  bad.messages[0].dst = 5;
  const std::string endpoints = message_of(bad);
  EXPECT_NE(endpoints.find("merge part 1 message 0 has endpoints 0 -> 5 "
                           "outside [0, 2)"),
            std::string::npos)
      << endpoints;
  bad = good;
  bad.programs.resize(1);
  const std::string programs = message_of(bad);
  EXPECT_NE(programs.find("merge part 1 has 1 rank programs for 2 ranks"),
            std::string::npos)
      << programs;
}

TEST(Repeat, RejectsNonPositiveCounts) {
  ScheduleBuilder b(2, 4);
  b.exchange(0, 0, Region{0, 2}, 1, Region{2, 2});
  const Schedule s = std::move(b).build();
  EXPECT_THROW(repeat(s, 0), invalid_argument);
  EXPECT_THROW(repeat(s, -1), invalid_argument);
}

}  // namespace
}  // namespace mr::simmpi
