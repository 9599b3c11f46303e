// The Splatt CPD proxy (Fig. 8 substrate). Full-scale (1024-process)
// simulations live in the bench; tests run a scaled-down cluster.
#include "mixradix/apps/splatt.hpp"

#include <gtest/gtest.h>

#include <set>

#include "mixradix/apps/cg.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::apps::splatt {
namespace {

TEST(TensorSpec, Nell1Shape) {
  const auto spec = nell1_like();
  EXPECT_EQ(spec.dims[0], 2902330);
  EXPECT_EQ(spec.dims[1], 2143368);
  EXPECT_EQ(spec.dims[2], 25495389);
  EXPECT_EQ(spec.nnz, 143599552);
}

TEST(DefaultGrid, BalancedFactorisation) {
  const Grid3 g1024 = default_grid(1024);
  EXPECT_EQ(g1024.p[0], 16);
  EXPECT_EQ(g1024.p[1], 8);
  EXPECT_EQ(g1024.p[2], 8);
  const Grid3 g64 = default_grid(64);
  EXPECT_EQ(g64.p[0], 4);
  EXPECT_EQ(g64.p[1], 4);
  EXPECT_EQ(g64.p[2], 4);
  const Grid3 g12 = default_grid(12);
  EXPECT_EQ(g12.nprocs(), 12);
  EXPECT_GE(g12.p[0], g12.p[1]);
  EXPECT_GE(g12.p[1], g12.p[2]);
}

TEST(LayerComms, CoverEveryRankOncePerMode) {
  const Grid3 grid = default_grid(64);
  for (int mode = 0; mode < 3; ++mode) {
    const auto comms = layer_comms(grid, mode);
    EXPECT_EQ(static_cast<std::int32_t>(comms.size()),
              grid.nprocs() / grid.p[mode]);
    std::set<std::int32_t> seen;
    for (const auto& comm : comms) {
      EXPECT_EQ(static_cast<std::int32_t>(comm.size()), grid.p[mode]);
      for (std::int32_t rank : comm) {
        EXPECT_TRUE(seen.insert(rank).second) << "rank " << rank;
      }
    }
    EXPECT_EQ(static_cast<std::int32_t>(seen.size()), grid.nprocs());
  }
}

TEST(LayerComms, Observed64CommsOf16At1024Ranks) {
  // The mpisee observation the proxy reproduces.
  const auto comms = layer_comms(default_grid(1024), 0);
  EXPECT_EQ(comms.size(), 64u);
  EXPECT_EQ(comms.front().size(), 16u);
}

TEST(LayerVolumes, DeterministicSkewedAndZeroDiagonal) {
  const auto spec = nell1_like();
  const Grid3 grid = default_grid(64);
  const auto a = layer_volumes(spec, grid, 0, 3, 16);
  const auto b = layer_volumes(spec, grid, 0, 3, 16);
  EXPECT_EQ(a, b);  // deterministic in (seed, mode, layer)
  const auto other_layer = layer_volumes(spec, grid, 0, 4, 16);
  EXPECT_NE(a, other_layer);  // layers are imbalanced differently
  std::int64_t lo = INT64_MAX, hi = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i][i], 0);
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (i == j) continue;
      lo = std::min(lo, a[i][j]);
      hi = std::max(hi, a[i][j]);
      EXPECT_EQ(a[i][j] % 16, 0);  // whole factor rows
    }
  }
  EXPECT_GT(hi, 2 * lo) << "volumes should be visibly skewed";
}

/// A miniature tensor so data-level executions stay cheap: nell-1's
/// volumes run to gigabytes per layer, fine for the timing simulator
/// (which only counts bytes) but not for actually copying doubles.
TensorSpec tiny_tensor() {
  TensorSpec spec;
  spec.dims[0] = spec.dims[1] = spec.dims[2] = 4000;
  spec.nnz = 200000;
  spec.seed = 7;
  return spec;
}

TEST(CpdIterationSchedule, WellFormedAndDataClean) {
  const auto machine = topo::hydra(2);  // 64 cores
  CpdConfig config;
  const auto schedule =
      cpd_iteration_schedule(machine, tiny_tensor(), default_grid(64), config);
  EXPECT_TRUE(verify::analyze_structure(schedule).clean());
  simmpi::DataExecutor exec(schedule);
  exec.run();
}

// Application schedules become plans through make_plan, never through
// compile_plan, so outside this test only the analyzer's structure pass
// runs on them: the full-scale CPD mode block (hydra(32), nell-1), the
// mode-0 layer alltoallv merge it opens with, and one class-C CG iteration
// on 64 ranks.
TEST(AppSchedules, AnalyzeClean) {
  const auto machine = topo::hydra(32, 1);
  const TensorSpec spec = nell1_like(1);
  const Grid3 grid = default_grid(static_cast<std::int32_t>(machine.cores()));
  const CpdConfig config;
  const verify::Report cpd =
      verify::analyze(cpd_iteration_schedule(machine, spec, grid, config));
  EXPECT_TRUE(cpd.clean()) << cpd.to_string();

  const auto comms = layer_comms(grid, 0);
  std::vector<simmpi::Schedule> parts;
  for (std::size_t layer = 0; layer < comms.size(); ++layer) {
    parts.push_back(simmpi::alltoallv_pairwise(
        layer_volumes(spec, grid, 0, static_cast<std::int64_t>(layer),
                      config.factor_rank)));
  }
  const verify::Report merged =
      verify::analyze(simmpi::merge(parts, comms, grid.nprocs()));
  EXPECT_TRUE(merged.clean()) << merged.to_string();

  const verify::Report cg = verify::analyze(
      cg::cg_schedule(cg::cg_class('C'), 64, std::vector<double>(64, 1e-3), 1));
  EXPECT_TRUE(cg.clean()) << cg.to_string();
}

TEST(SimulateCpd, ReorderingChangesDurationNotCompute) {
  const auto machine = topo::hydra(2);
  const auto spec = tiny_tensor();
  CpdConfig config;
  config.iterations = 4;
  config.sim_iterations = 1;
  const auto packed = simulate_cpd(machine, spec, parse_order("3-2-1-0"), config);
  const auto spread = simulate_cpd(machine, spec, parse_order("0-1-2-3"), config);
  EXPECT_DOUBLE_EQ(packed.compute_seconds, spread.compute_seconds);
  EXPECT_NE(packed.seconds, spread.seconds);
  EXPECT_GT(packed.alltoallv_seconds, 0);
  EXPECT_GE(packed.seconds, packed.compute_seconds);
}

TEST(SimulateCpd, RunsAtTheProxysCompletionSlack) {
  // The proxy is the library's one completion-slack user: its CPD
  // duration is the 2%-slack simulation of the iteration schedule, which
  // on this placement differs from the exact default.
  const auto machine = topo::hydra(2);
  const auto spec = tiny_tensor();
  CpdConfig config;
  config.iterations = 4;
  config.sim_iterations = 1;
  const auto placement =
      placement_of_new_ranks(machine.hierarchy(), parse_order("0-1-2-3"));
  simmpi::PlanJob job;
  job.plan = std::make_shared<const simmpi::Plan>(simmpi::make_plan(
      cpd_iteration_schedule(machine, spec,
                             default_grid(static_cast<std::int32_t>(
                                 machine.cores())),
                             config),
      1, "cpd_mode_block"));
  job.core_of_rank.assign(placement.begin(), placement.end());
  const double scale = 3.0 * config.iterations / config.sim_iterations;
  const auto seconds_at = [&](double slack) {
    simmpi::ExecOptions options;
    options.completion_slack = slack;
    return simmpi::run_timed(machine, {job}, options).makespan * scale;
  };
  const CpdResult result =
      simulate_cpd_placement(machine, spec, job.core_of_rank, config);
  EXPECT_EQ(result.seconds, seconds_at(0.02));
  EXPECT_NE(result.seconds, seconds_at(0.0));
}

TEST(SimulateCpd, AlltoallvTimeMatchesStandaloneRun) {
  // The alltoallv time comes from the CPD block's own run. The MTTKRP
  // round keeps the later phases off the alltoallv, so for every order it
  // is the proxy-slack run of the merged mode-0 layer alltoallv alone, bit
  // for bit, and it does not depend on how many iterations are simulated.
  const auto machine = topo::hydra(2);
  const auto spec = tiny_tensor();
  const Grid3 grid = default_grid(static_cast<std::int32_t>(machine.cores()));
  CpdConfig config;
  config.iterations = 4;
  config.sim_iterations = 1;
  CpdConfig twice = config;
  twice.sim_iterations = 2;
  const auto comms = layer_comms(grid, 0);
  std::vector<simmpi::Schedule> parts;
  for (std::size_t layer = 0; layer < comms.size(); ++layer) {
    parts.push_back(simmpi::alltoallv_pairwise(
        layer_volumes(spec, grid, 0, static_cast<std::int64_t>(layer),
                      config.factor_rank)));
  }
  const auto alltoallv = std::make_shared<const simmpi::Plan>(
      simmpi::make_plan(simmpi::merge(parts, comms, grid.nprocs())));
  simmpi::ExecOptions options;
  options.completion_slack = 0.02;
  for (const Order& order : all_orders_lexicographic(machine.depth())) {
    const auto placement = placement_of_new_ranks(machine.hierarchy(), order);
    const simmpi::PlanJob job{
        alltoallv, std::vector<std::int64_t>(placement.begin(), placement.end())};
    const double standalone = simmpi::run_timed(machine, {job}, options).makespan *
                              (3.0 * config.iterations);
    EXPECT_EQ(simulate_cpd(machine, spec, order, config).alltoallv_seconds,
              standalone)
        << order_to_string(order);
    EXPECT_EQ(simulate_cpd(machine, spec, order, twice).alltoallv_seconds,
              standalone)
        << order_to_string(order);
  }
}

TEST(SimulateCpd, RefillStaysLocal) {
  // The Fig-8 CPD block under order 0-1-2-3 keeps ~390 flows active, but a
  // flow that starts or finishes shares channels with only ~14 of them: a
  // refill must stay in the changed components, not refill every flow.
  const auto machine = topo::hydra(32, 1);
  const TensorSpec spec = nell1_like(1);
  const Grid3 grid = default_grid(static_cast<std::int32_t>(machine.cores()));
  const CpdConfig config;
  simmpi::PlanJob job;
  job.plan = std::make_shared<const simmpi::Plan>(simmpi::make_plan(
      cpd_iteration_schedule(machine, spec, grid, config), 1, "cpd_mode_block"));
  const auto placement =
      placement_of_new_ranks(machine.hierarchy(), parse_order("0-1-2-3"));
  job.core_of_rank.assign(placement.begin(), placement.end());
  // At the proxy's 2% completion slack, as simulate_cpd runs it.
  simmpi::ExecOptions options;
  options.completion_slack = 0.02;
  const auto stats = simmpi::run_timed(machine, {job}, options).flow_stats;
  ASSERT_GT(stats.full_recomputes, 0);
  EXPECT_GT(stats.peak_active_flows, 256);
  EXPECT_LE(stats.refilled_flows, 64 * stats.full_recomputes)
      << stats.refilled_flows << " flows over " << stats.full_recomputes
      << " refills";
}

TEST(Pearson, KnownValues) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {1, -1, 1, -1}), -0.4472135955, 1e-6);
  EXPECT_THROW(pearson({1}, {1}), invalid_argument);
  EXPECT_THROW(pearson({1, 1}, {1, 2}), invalid_argument);  // constant x
}

}  // namespace
}  // namespace mr::apps::splatt
