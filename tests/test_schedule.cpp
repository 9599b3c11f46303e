// Schedule representation: builder invariants and structural validation.
#include "mixradix/simmpi/schedule.hpp"

#include <gtest/gtest.h>

#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/util/expect.hpp"

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
  EXPECT_TRUE(s.validate().empty());
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
  EXPECT_TRUE(s.validate().empty());
}

TEST(ScheduleValidate, CatchesCorruption) {
  ScheduleBuilder b(2, 8);
  b.exchange(0, 0, Region{0, 4}, 1, Region{4, 4});
  Schedule s = std::move(b).build();

  Schedule bad = s;
  bad.messages[0].src_region.count = 100;  // out of arena
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.messages[0].dst = 5;  // bad endpoint
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.messages[0].dst_region.count = 2;  // src/dst mismatch
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.programs[0].rounds[0].sends.push_back(SendOp{0});  // sent twice
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.programs[1].rounds[0].recvs.clear();  // never received
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.programs[1].rounds[0].recvs[0].msg = 7;  // dangling reference
  EXPECT_FALSE(bad.validate().empty());

  bad = s;
  bad.programs[0].rounds[0].compute_seconds = -1;
  EXPECT_FALSE(bad.validate().empty());
}

// Each structural failure branch must name the offending message/rank so a
// generator bug is locatable from the diagnostic alone.
TEST(ScheduleValidate, DiagnosticsNameTheCulprit) {
  ScheduleBuilder b(2, 8);
  b.exchange(0, 0, Region{0, 4}, 1, Region{4, 4});
  const Schedule s = std::move(b).build();
  const auto expect_mentions = [](const std::string& diagnostic,
                                  std::initializer_list<const char*> needles) {
    for (const char* needle : needles) {
      EXPECT_NE(diagnostic.find(needle), std::string::npos)
          << "\"" << diagnostic << "\" does not mention \"" << needle << "\"";
    }
  };

  Schedule bad = s;
  bad.messages[0].dst = 5;
  expect_mentions(bad.validate(), {"message 0", "bad endpoints"});

  bad = s;
  bad.messages[0].src_region = Region{6, 4};
  expect_mentions(bad.validate(), {"message 0", "region out of arena"});

  bad = s;
  bad.messages[0].dst_region.count = 2;
  expect_mentions(bad.validate(), {"message 0", "src/dst count mismatch"});

  bad = s;
  bad.programs[0].rounds[0].sends.push_back(SendOp{0});
  expect_mentions(bad.validate(), {"message 0", "rank 0", "sent 2 times"});

  bad = s;
  bad.programs[1].rounds[0].recvs.clear();
  expect_mentions(bad.validate(), {"message 0", "received 0 times"});

  bad = s;
  bad.programs[0].rounds[0].sends[0].msg = 7;
  expect_mentions(bad.validate(),
                  {"rank 0", "round 0", "unknown message 7"});

  bad = s;
  bad.programs[1].rounds[0].recvs[0].msg = 7;
  expect_mentions(bad.validate(),
                  {"rank 1", "round 0", "unknown message 7"});

  bad = s;
  bad.programs[1].rounds[0].recvs[0] = RecvOp{0};
  bad.programs[0].rounds[0].recvs.push_back(RecvOp{0});
  expect_mentions(bad.validate(), {"rank 0", "round 0", "addressed to rank 1"});

  bad = s;
  bad.programs[0].rounds[0].copies.push_back(CopyOp{Region{0, 9}, Region{0, 9}});
  expect_mentions(bad.validate(), {"rank 0", "round 0", "out of arena"});

  bad = s;
  bad.programs[0].rounds[0].copies.push_back(CopyOp{Region{0, 2}, Region{4, 3}});
  expect_mentions(bad.validate(), {"rank 0", "round 0", "mismatched src/dst"});

  bad = s;
  bad.programs[0].rounds[0].compute_seconds = -1;
  expect_mentions(bad.validate(),
                  {"negative compute time", "rank 0", "round 0"});
}

TEST(ScheduleValidate, WrongOwnerDetected) {
  ScheduleBuilder b(3, 8);
  b.exchange(0, 0, Region{0, 4}, 1, Region{4, 4});
  Schedule s = std::move(b).build();
  // Move the send op to rank 2's program: message owned by rank 0.
  s.programs[2].rounds.resize(1);
  s.programs[2].rounds[0].sends = s.programs[0].rounds[0].sends;
  s.programs[0].rounds[0].sends.clear();
  EXPECT_NE(s.validate().find("owned by rank"), std::string::npos);
}

TEST(DataExecutor, DetectsDeadlock) {
  // Rank 0 waits (round 0 recv) for a message rank 1 only sends in its
  // round 1, but rank 1's round 0 waits for rank 0's round-1 send: cycle.
  // build() only validates structure, so the executor's dynamic check
  // throws.
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
  EXPECT_TRUE(s.validate().empty());
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

TEST(Repeat, RejectsNonPositiveCounts) {
  ScheduleBuilder b(2, 4);
  b.exchange(0, 0, Region{0, 2}, 1, Region{2, 2});
  const Schedule s = std::move(b).build();
  EXPECT_THROW(repeat(s, 0), invalid_argument);
  EXPECT_THROW(repeat(s, -1), invalid_argument);
}

}  // namespace
}  // namespace mr::simmpi
