// CLI parsing shared by the figure benches (bench/bench_common.hpp).
#include "bench/bench_common.hpp"

#include <gtest/gtest.h>

namespace bench {
namespace {

TEST(BenchOptions, DefaultsReproduceThePaperAxes) {
  const Options o = Options::parse_args({});
  EXPECT_EQ(o.max_size, 512ll << 20);
  EXPECT_EQ(o.repetitions, 2);
  EXPECT_EQ(o.threads, 0);  // auto
  EXPECT_TRUE(o.csv_path.empty());
}

TEST(BenchOptions, ParsesEveryFlag) {
  const Options o = Options::parse_args(
      {"--max-size=1048576", "--reps=5", "--threads=4", "--csv=out.csv"});
  EXPECT_EQ(o.max_size, 1048576);
  EXPECT_EQ(o.repetitions, 5);
  EXPECT_EQ(o.threads, 4);
  EXPECT_EQ(o.csv_path, "out.csv");
}

TEST(BenchOptions, RejectsUnknownFlags) {
  EXPECT_THROW(Options::parse_args({"--frobnicate=1"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"extra"}), cli::InputError);
}

TEST(BenchOptions, RejectsMalformedIntegers) {
  EXPECT_THROW(Options::parse_args({"--threads=four"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--threads=4x"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--threads="}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--reps=2.5"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--max-size=1e6"}), cli::InputError);
}

TEST(BenchOptions, RejectsOutOfRangeValues) {
  EXPECT_THROW(Options::parse_args({"--threads=0"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--threads=-2"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--reps=0"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--max-size=0"}), cli::InputError);
  EXPECT_THROW(Options::parse_args({"--max-size=-1"}), cli::InputError);
}

TEST(BenchOptions, LastFlagWins) {
  const Options o = Options::parse_args({"--reps=3", "--reps=9"});
  EXPECT_EQ(o.repetitions, 9);
}

}  // namespace
}  // namespace bench
