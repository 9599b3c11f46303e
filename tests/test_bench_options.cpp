// CLI parsing and --tune=K screening shared by the figure benches
// (bench/bench_common.hpp).
#include "bench/bench_common.hpp"

#include <gtest/gtest.h>

#include "mixradix/topo/presets.hpp"

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

TEST(BenchTune, ScreensTheSweepsWorkloadToTheTunersTopK) {
  // --tune=K sweeps exactly the top K of the tune query that mirrors the
  // sweep (collective, comm size, sizes as payloads, concurrency,
  // repetitions, slack), best first, in either concurrency.
  mr::Engine engine;
  const auto machine = mr::topo::testbox();
  mr::harness::SweepConfig sweep;
  sweep.sizes = {64 << 10, 1 << 20};
  sweep.comm_size = 4;
  sweep.threads = 1;
  for (const bool all_comms : {false, true}) {
    sweep.all_comms = all_comms;
    mr::tune::TuneQuery query;
    query.comm_sizes = {4};
    query.total_bytes = {64 << 10, 1 << 20};
    query.concurrency = all_comms ? mr::tune::Concurrency::AllComms
                                  : mr::tune::Concurrency::SingleComm;
    query.k = 2;
    query.completion_slack = sweep.completion_slack;
    query.threads = 1;
    const mr::tune::TuneReport report = mr::tune::tune(engine, machine, query);
    const std::vector<mr::Order> orders =
        tuned_orders(engine, machine, sweep, 2);
    ASSERT_EQ(orders.size(), 2u);
    for (std::size_t rank = 0; rank < orders.size(); ++rank) {
      EXPECT_EQ(orders[rank], report.candidates[report.top[rank]].order)
          << "all_comms " << all_comms << " rank " << rank;
    }
  }
}

}  // namespace
}  // namespace bench
