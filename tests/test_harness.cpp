// The §4.1 micro-benchmark protocol and its reporting.
#include "mixradix/harness/microbench.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "mixradix/engine/engine.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::harness {
namespace {

topo::Machine small_hydra() { return topo::hydra(2); }  // 64 procs

MicrobenchConfig base_config() {
  MicrobenchConfig c;
  c.order = parse_order("0-1-2-3");
  c.comm_size = 16;
  c.collective = simmpi::Collective::Alltoall;
  c.total_bytes = 1 << 20;
  c.repetitions = 1;
  return c;
}

TEST(Microbench, ProducesPositiveBandwidth) {
  Engine engine;
  const auto result = run_microbench(engine, small_hydra(), base_config());
  EXPECT_GT(result.mean_bandwidth, 0);
  EXPECT_GT(result.mean_seconds_per_op, 0);
  EXPECT_NEAR(result.mean_bandwidth * result.mean_seconds_per_op,
              static_cast<double>(base_config().total_bytes),
              static_cast<double>(base_config().total_bytes) * 1e-6);
  EXPECT_EQ(result.algorithm, "alltoall_pairwise");
}

TEST(Microbench, SingleCommIsNoSlowerThanAllComms) {
  // Running every subcommunicator at once can only add contention.
  Engine engine;
  auto config = base_config();
  config.all_comms = false;
  const double alone =
      run_microbench(engine, small_hydra(), config).mean_seconds_per_op;
  config.all_comms = true;
  const double together =
      run_microbench(engine, small_hydra(), config).mean_seconds_per_op;
  EXPECT_LE(alone, together * (1 + 1e-9));
}

TEST(Microbench, DecilesBracketTheMean) {
  Engine engine;
  auto config = base_config();
  config.all_comms = true;
  const auto result = run_microbench(engine, small_hydra(), config);
  EXPECT_LE(result.bw_p10, result.mean_bandwidth * (1 + 1e-9));
  EXPECT_GE(result.bw_p90, result.mean_bandwidth * (1 - 1e-9));
}

TEST(Microbench, PackedOrderIsContentionImmune) {
  // The paper's headline: packed mappings perform identically with 1 or
  // all communicators.
  Engine engine;
  auto config = base_config();
  config.order = parse_order("3-2-1-0");
  config.all_comms = false;
  const double alone =
      run_microbench(engine, small_hydra(), config).mean_seconds_per_op;
  config.all_comms = true;
  const double together =
      run_microbench(engine, small_hydra(), config).mean_seconds_per_op;
  EXPECT_NEAR(alone, together, alone * 0.05);
}

TEST(Microbench, ValidatesInputs) {
  Engine engine;
  auto config = base_config();
  config.comm_size = 24;  // does not divide 64
  EXPECT_THROW(run_microbench(engine, small_hydra(), config), invalid_argument);
  config = base_config();
  config.total_bytes = 0;
  EXPECT_THROW(run_microbench(engine, small_hydra(), config), invalid_argument);
  config = base_config();
  config.repetitions = 0;
  EXPECT_THROW(run_microbench(engine, small_hydra(), config), invalid_argument);
  config = base_config();
  config.comm_size = 1;
  EXPECT_THROW(run_microbench(engine, small_hydra(), config), invalid_argument);
}

TEST(PaperSizes, MatchesTheFiguresAxes) {
  const auto sizes = paper_sizes();
  ASSERT_EQ(sizes.size(), 6u);
  EXPECT_EQ(sizes.front(), 16ll << 10);
  EXPECT_EQ(sizes.back(), 512ll << 20);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[i - 1] * 8);
  }
  EXPECT_EQ(paper_sizes(1 << 20).size(), 3u);  // 16K, 128K, 1M
}

TEST(PaperSizes, EdgeCasesAroundTheFirstTick) {
  // Caps below the 16 KB first tick leave no valid size: the sweep's
  // precondition (non-empty sizes) then reports the misconfiguration.
  EXPECT_TRUE(paper_sizes(0).empty());
  EXPECT_TRUE(paper_sizes(1).empty());
  EXPECT_TRUE(paper_sizes((16 << 10) - 1).empty());
  EXPECT_TRUE(paper_sizes(-(16ll << 10)).empty());
  // Exactly the first tick is inclusive.
  ASSERT_EQ(paper_sizes(16 << 10).size(), 1u);
  EXPECT_EQ(paper_sizes(16 << 10).front(), 16ll << 10);
  // One byte below the next tick still yields only the first.
  EXPECT_EQ(paper_sizes((128 << 10) - 1).size(), 1u);
}

TEST(Sweep, SeriesCarryLegendsAndResults) {
  Engine engine;
  SweepConfig config;
  config.orders = {parse_order("0-1-2-3"), parse_order("3-2-1-0")};
  config.sizes = {16 << 10, 128 << 10};
  config.comm_size = 16;
  config.collective = simmpi::Collective::Allgather;
  config.repetitions = 1;
  const auto series = run_sweep(engine, small_hydra(), config);
  ASSERT_EQ(series.size(), 2u);
  for (const auto& s : series) {
    EXPECT_EQ(s.sizes, config.sizes);
    EXPECT_EQ(s.results.size(), 2u);
    EXPECT_EQ(s.character.pair_pct.size(), 4u);
  }
  EXPECT_EQ(order_to_string(series[0].character.order), "0-1-2-3");
}

TEST(Sweep, ParallelAndSerialResultsAreBitIdentical) {
  // The determinism guarantee of the parallel sweep engine: every (order,
  // size) point owns its simulator, results merge in input order, so the
  // thread count must not change a single bit — including the CSV bytes —
  // with completion slack (the default) and in exact timing alike.
  Engine engine;
  SweepConfig config;
  config.orders = {parse_order("0-1-2-3"), parse_order("1-3-2-0"),
                   parse_order("3-2-1-0")};
  config.sizes = {16 << 10, 128 << 10, 1 << 20};
  config.comm_size = 16;
  config.collective = simmpi::Collective::Alltoall;
  config.all_comms = true;
  config.repetitions = 1;

  for (const double slack : {simmpi::kDefaultCompletionSlack, 0.0}) {
    config.completion_slack = slack;
    config.threads = 1;
    const auto serial = run_sweep(engine, small_hydra(), config);
    config.threads = 4;
    const auto parallel = run_sweep(engine, small_hydra(), config);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
      EXPECT_EQ(serial[s].character.order, parallel[s].character.order);
      EXPECT_EQ(serial[s].character.ring_cost,
                parallel[s].character.ring_cost);
      EXPECT_EQ(serial[s].character.pair_pct, parallel[s].character.pair_pct);
      EXPECT_EQ(serial[s].sizes, parallel[s].sizes);
      ASSERT_EQ(serial[s].results.size(), parallel[s].results.size());
      for (std::size_t r = 0; r < serial[s].results.size(); ++r) {
        const auto& a = serial[s].results[r];
        const auto& b = parallel[s].results[r];
        // EXPECT_EQ, not NEAR: identical inputs must give identical bits.
        EXPECT_EQ(a.mean_seconds_per_op, b.mean_seconds_per_op) << slack;
        EXPECT_EQ(a.mean_bandwidth, b.mean_bandwidth) << slack;
        EXPECT_EQ(a.bw_p10, b.bw_p10) << slack;
        EXPECT_EQ(a.bw_p90, b.bw_p90) << slack;
        EXPECT_EQ(a.algorithm, b.algorithm);
      }
    }

    std::ostringstream serial_csv, parallel_csv;
    write_figure_csv(serial_csv, "det", serial, {});
    write_figure_csv(parallel_csv, "det", parallel, {});
    EXPECT_EQ(serial_csv.str(), parallel_csv.str()) << "slack " << slack;
  }
}

TEST(Sweep, DefaultThreadCountMatchesTheForcedSerialPath) {
  // threads = 0 resolves to hardware_concurrency (or MIXRADIX_THREADS);
  // whatever it picks, the output must equal the serial path's.
  Engine engine;
  SweepConfig config;
  config.orders = {parse_order("2-1-0-3")};
  config.sizes = {16 << 10, 128 << 10};
  config.comm_size = 16;
  config.repetitions = 1;
  config.threads = 0;
  const auto auto_threads = run_sweep(engine, small_hydra(), config);
  config.threads = 1;
  const auto serial = run_sweep(engine, small_hydra(), config);
  ASSERT_EQ(auto_threads.size(), serial.size());
  for (std::size_t r = 0; r < serial[0].results.size(); ++r) {
    EXPECT_EQ(auto_threads[0].results[r].mean_bandwidth,
              serial[0].results[r].mean_bandwidth);
  }
}

TEST(Sweep, RejectsNegativeThreads) {
  Engine engine;
  SweepConfig config;
  config.orders = {parse_order("0-1-2-3")};
  config.sizes = {16 << 10};
  config.comm_size = 16;
  config.threads = -1;
  EXPECT_THROW(run_sweep(engine, small_hydra(), config), invalid_argument);
}

TEST(Report, PrintFigureContainsLegendAndRows) {
  Engine engine;
  SweepConfig config;
  config.orders = {parse_order("3-2-1-0")};
  config.sizes = {16 << 10};
  config.comm_size = 16;
  config.repetitions = 1;
  const auto single = run_sweep(engine, small_hydra(), config);
  config.all_comms = true;
  const auto simultaneous = run_sweep(engine, small_hydra(), config);
  std::ostringstream os;
  print_figure(os, "Test figure", single, simultaneous);
  const std::string text = os.str();
  EXPECT_NE(text.find("Test figure"), std::string::npos);
  EXPECT_NE(text.find("3-2-1-0 ("), std::string::npos);
  EXPECT_NE(text.find("16 KB"), std::string::npos);
  EXPECT_NE(text.find("1 simultaneous comm."), std::string::npos);
  EXPECT_NE(text.find("all simultaneous comms."), std::string::npos);
}

TEST(Report, LegendListsEveryPlottedOrderOnce) {
  // With --tune=K the blocks plot the top K of their own workloads: every
  // order either block plots gets one legend line, single-comm first.
  Engine engine;
  SweepConfig config;
  config.sizes = {16 << 10};
  config.comm_size = 16;
  config.repetitions = 1;
  config.orders = {parse_order("0-1-2-3"), parse_order("3-2-1-0")};
  const auto single = run_sweep(engine, small_hydra(), config);
  config.all_comms = true;
  config.orders = {parse_order("3-2-1-0"), parse_order("1-3-2-0")};
  const auto simultaneous = run_sweep(engine, small_hydra(), config);
  std::ostringstream os;
  print_figure(os, "Test figure", single, simultaneous);
  const std::string text = os.str();
  const std::string legend =
      text.substr(0, text.find("bandwidth in MB/s:"));
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = legend.find(needle); at != std::string::npos;
         at = legend.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\n  0-1-2-3 ("), 1u) << legend;
  EXPECT_EQ(count("\n  3-2-1-0 ("), 1u) << legend;
  EXPECT_EQ(count("\n  1-3-2-0 ("), 1u) << legend;
  EXPECT_LT(legend.find("0-1-2-3 ("), legend.find("3-2-1-0 ("));
  EXPECT_LT(legend.find("3-2-1-0 ("), legend.find("1-3-2-0 ("));
}

TEST(Report, CsvIsWellFormed) {
  Engine engine;
  SweepConfig config;
  config.orders = {parse_order("0-1-2-3")};
  config.sizes = {16 << 10, 128 << 10};
  config.comm_size = 16;
  config.repetitions = 1;
  const auto single = run_sweep(engine, small_hydra(), config);
  std::ostringstream os;
  write_figure_csv(os, "figX", single, {});
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "figure,scenario,order,ring_cost,size_bytes,bandwidth_mbs,"
            "bw_p10_mbs,bw_p90_mbs,seconds_per_op,algorithm");
  int rows = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 9) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 2);
}

}  // namespace
}  // namespace mr::harness
