// The NAS-CG proxy (Fig. 9 substrate).
#include "mixradix/apps/cg.hpp"

#include <gtest/gtest.h>

#include "mixradix/mr/core_select.hpp"
#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::apps::cg {
namespace {

TEST(CgClass, NpbGeometries) {
  EXPECT_EQ(cg_class('S').n, 1400);
  EXPECT_EQ(cg_class('A').n, 14000);
  EXPECT_EQ(cg_class('B').n, 75000);
  EXPECT_EQ(cg_class('C').n, 150000);
  EXPECT_EQ(cg_class('C').iterations, 75);
  EXPECT_GT(cg_class('C').nnz, cg_class('B').nnz);
  EXPECT_THROW(cg_class('D'), invalid_argument);
}

TEST(NpbGrid, PowerOfTwoFactorisation) {
  for (const auto& [p, rows, cols] :
       {std::tuple{1, 1, 1}, std::tuple{2, 2, 1}, std::tuple{4, 2, 2},
        std::tuple{8, 4, 2}, std::tuple{16, 4, 4}, std::tuple{32, 8, 4},
        std::tuple{64, 8, 8}, std::tuple{128, 16, 8}}) {
    const Grid g = npb_grid(p);
    EXPECT_EQ(g.rows, rows) << "p=" << p;
    EXPECT_EQ(g.cols, cols) << "p=" << p;
  }
  EXPECT_THROW(npb_grid(12), invalid_argument);
  EXPECT_THROW(npb_grid(0), invalid_argument);
}

TEST(ProcessMemBandwidth, SharingDividesDomains) {
  const auto m = topo::lumi_node();  // socket mem 190, numa 48, l3 32, core 20
  // Alone: limited only by the core's own streaming rate.
  EXPECT_DOUBLE_EQ(process_mem_bandwidth(m, {0}, 0), 20e9);
  // Two cores in one L3: the L3 port (32) splits to 16 each.
  EXPECT_DOUBLE_EQ(process_mem_bandwidth(m, {0, 1}, 0), 16e9);
  // Two cores in one NUMA but different L3s: NUMA 48/2 = 24, core 20 binds.
  EXPECT_DOUBLE_EQ(process_mem_bandwidth(m, {0, 8}, 0), 20e9);
  // All 8 cores of one L3: 32/8 = 4.
  std::vector<std::int64_t> l3_full{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_DOUBLE_EQ(process_mem_bandwidth(m, l3_full, 0), 4e9);
  // A full socket (64 cores): the socket controller (190/64 ~ 2.97) is
  // slightly tighter than the per-NUMA share (48/16 = 3).
  std::vector<std::int64_t> socket_full;
  for (std::int64_t c = 0; c < 64; ++c) socket_full.push_back(c);
  EXPECT_DOUBLE_EQ(process_mem_bandwidth(m, socket_full, 0), 190e9 / 64);
}

TEST(ProcessMemBandwidth, ValidatesMembership) {
  const auto m = topo::lumi_node();
  EXPECT_THROW(process_mem_bandwidth(m, {1, 2}, 0), invalid_argument);
  EXPECT_THROW(process_mem_bandwidth(m, {}, 0), invalid_argument);
}

TEST(ComputeSeconds, MemoryBoundScalesWithBandwidth) {
  const auto klass = cg_class('C');
  const double slow = compute_seconds(klass, 8, 39e9, 4e9);
  const double fast = compute_seconds(klass, 8, 39e9, 20e9);
  EXPECT_NEAR(slow / fast, 5.0, 1e-9);  // memory-bound: inversely in bw
  // More processes, less work each.
  EXPECT_GT(compute_seconds(klass, 8, 39e9, 20e9),
            compute_seconds(klass, 16, 39e9, 20e9));
}

TEST(CgSchedule, IsWellFormedAndDataClean) {
  const auto klass = cg_class('S');
  for (std::int32_t p : {1, 2, 4, 8, 16}) {
    const std::vector<double> compute(static_cast<std::size_t>(p), 1e-6);
    const auto schedule = cg_schedule(klass, p, compute, 2);
    EXPECT_TRUE(verify::analyze_structure(schedule).clean()) << "p=" << p;
    simmpi::DataExecutor exec(schedule);
    exec.run();  // must be deadlock-free
  }
  EXPECT_THROW(cg_schedule(klass, 6, std::vector<double>(6, 0.0), 1),
               invalid_argument);
}

TEST(SimulateCg, OneCorePerL3BeatsPacked) {
  const auto m = topo::lumi_node();
  const auto klass = cg_class('C');
  // 8 processes: one core per L3 of socket 0 vs the first 8 cores (one L3).
  const auto spread = select_cores(m.hierarchy(), parse_order("2-1-0-3"), 8);
  const auto packed = select_cores(m.hierarchy(), parse_order("3-2-1-0"), 8);
  const double t_spread = simulate_cg(m, klass, spread).seconds;
  const double t_packed = simulate_cg(m, klass, packed).seconds;
  EXPECT_LT(t_spread, t_packed * 0.5) << "memory-bound CG must prefer "
                                         "one core per L3";
}

TEST(SimulateCg, ScalingStallsBeyondSixteenProcesses) {
  // The paper: from 16 processes on, parallel efficiency collapses on one
  // node. Efficiency = serial / (p * T_p).
  const auto m = topo::lumi_node();
  const auto klass = cg_class('C');
  const double serial = serial_seconds(m, klass);
  const auto best_time = [&](std::int64_t nproc) {
    double best = 1e300;
    for (const auto& outcome : enumerate_selections(m.hierarchy(), nproc)) {
      best = std::min(best, simulate_cg(m, klass, outcome.core_list).seconds);
    }
    return best;
  };
  const double eff8 = serial / (8 * best_time(8));
  const double eff64 = serial / (64 * best_time(64));
  EXPECT_GT(eff8, 0.85);
  EXPECT_LT(eff64, 0.5);
}

TEST(SimulateCg, MoreProcessesBadlyPlacedLoseToFewerWellPlaced) {
  // Paper: 32 processes with the Slurm default mapping lose to 8 processes
  // with the best mapping.
  const auto m = topo::lumi_node();
  const auto klass = cg_class('C');
  const auto best8 = select_cores(m.hierarchy(), parse_order("1-2-0-3"), 8);
  const auto slurm32 = select_cores(m.hierarchy(), parse_order("3-2-1-0"), 32);
  EXPECT_LT(simulate_cg(m, klass, best8).seconds,
            simulate_cg(m, klass, slurm32).seconds);
}

TEST(SimulateCg, SingleProcessMatchesSerialEstimate) {
  const auto m = topo::lumi_node();
  const auto klass = cg_class('B');
  const auto result = simulate_cg(m, klass, {0});
  EXPECT_DOUBLE_EQ(result.seconds, serial_seconds(m, klass));
  EXPECT_DOUBLE_EQ(result.comm_seconds, 0);
}

}  // namespace
}  // namespace mr::apps::cg
