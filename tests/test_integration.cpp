// Cross-module integration tests: the paper's pipelines end to end, plus
// monotonicity properties of the timed simulation.
#include <gtest/gtest.h>

#include <string>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/core_select.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/reorder.hpp"
#include "mixradix/simmpi/world.hpp"
#include "mixradix/slurm/distribution.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

namespace mr {
namespace {

// Pipeline 1 (§3.2 + §4.1): reorder -> split -> measure. Orders that are
// SameSetsAndInternal-equivalent must produce byte-identical simulated
// performance — the justification for deduplicating before benchmarking.
TEST(Integration, EquivalentOrdersTimeIdentically) {
  Engine engine;
  const auto machine = topo::hydra(4);  // 128 procs
  const auto classes = classify_orders(engine, machine.hierarchy(), 16,
                                       Equivalence::SameSetsAndInternal);
  harness::MicrobenchConfig config;
  config.comm_size = 16;
  config.collective = simmpi::Collective::Allgather;
  config.total_bytes = 1 << 18;
  config.all_comms = true;
  config.repetitions = 1;
  int checked = 0;
  for (const auto& cls : classes) {
    if (cls.members.size() < 2) continue;
    config.order = cls.members[0];
    const harness::MicrobenchResult first =
        run_microbench(engine, machine, config);
    for (std::size_t m = 1; m < cls.members.size(); ++m) {
      config.order = cls.members[m];
      const harness::MicrobenchResult other =
          run_microbench(engine, machine, config);
      // Exact max-min timing (the default) is invariant under exchanging
      // whole communicators, so every member matches bit for bit.
      const std::string pair = order_to_string(cls.members[0]) + " vs " +
                               order_to_string(cls.members[m]);
      EXPECT_EQ(first.mean_seconds_per_op, other.mean_seconds_per_op) << pair;
      EXPECT_EQ(first.mean_bandwidth, other.mean_bandwidth) << pair;
      EXPECT_EQ(first.bw_p10, other.bw_p10) << pair;
      EXPECT_EQ(first.bw_p90, other.bw_p90) << pair;
      ++checked;
    }
  }
  EXPECT_GE(checked, 1);
}

// Pipeline 2: orders differing ONLY in intra-communicator rank order (same
// pair percentages, different ring cost) behave identically for Alltoall
// but can differ for ring-based Allgather — §4.1.3's observation.
TEST(Integration, RankOrderMattersForAllgatherNotAlltoall) {
  Engine engine;
  const auto machine = topo::hydra(16);
  // From Fig. 3's legend: [1,3,0,2] and [3,1,0,2] share percentages
  // (46.7, 0, 53.3, 0) but have ring costs 45 vs 17.
  const Order high_ring = parse_order("1-3-0-2");
  const Order low_ring = parse_order("3-1-0-2");

  harness::MicrobenchConfig config;
  config.comm_size = 16;
  config.total_bytes = 4 << 20;
  config.all_comms = false;
  config.repetitions = 1;

  config.collective = simmpi::Collective::Alltoall;
  config.order = high_ring;
  const double a2a_high =
      run_microbench(engine, machine, config).mean_seconds_per_op;
  config.order = low_ring;
  const double a2a_low =
      run_microbench(engine, machine, config).mean_seconds_per_op;
  // Exact timing: the two single communicators differ at most in the
  // last bits of their sums.
  EXPECT_NEAR(a2a_high, a2a_low, a2a_low * 1e-12);

  config.collective = simmpi::Collective::Allgather;
  config.order = high_ring;
  const double ag_high =
      run_microbench(engine, machine, config).mean_seconds_per_op;
  config.order = low_ring;
  const double ag_low =
      run_microbench(engine, machine, config).mean_seconds_per_op;
  EXPECT_LT(ag_low, ag_high * 0.999)
      << "the sequential rank order (ring cost 17) must beat the "
         "round-robin one (ring cost 45) for the ring allgather";
}

// Pipeline 3 (§3.4): Slurm-equivalent order -> same core mapping -> same
// simulated time as the explicit distribution's task map.
TEST(Integration, SlurmDistributionAndOrderAgreeEndToEnd) {
  const auto machine = topo::testbox();
  const Hierarchy& h = machine.hierarchy();
  const auto dist = slurm::Distribution::parse("cyclic:block");
  const auto order = slurm::equivalent_order(h, dist);
  ASSERT_TRUE(order.has_value());
  const auto from_order = placement_of_new_ranks(h, *order);
  const auto from_slurm =
      slurm::task_map(slurm::MachineView::from_hierarchy(h), dist);
  EXPECT_EQ(from_order, from_slurm);
}

// Monotonicity: more bytes never finish faster; adding concurrent
// communicators never helps the first one.
TEST(Integration, TimedSimulationIsMonotone) {
  Engine engine;
  const auto machine = topo::hydra(2);
  const simmpi::World world(engine, machine);
  const auto comms = world.reordered(parse_order("0-1-2-3")).split_blocks(8);
  double last = 0;
  for (std::int64_t count : {1 << 8, 1 << 12, 1 << 16, 1 << 20}) {
    const double t =
        comms[0].time_collective(simmpi::Collective::Alltoall, count);
    EXPECT_GT(t, last);
    last = t;
  }
  std::vector<simmpi::Communicator> two(comms.begin(), comms.begin() + 2);
  const double alone =
      comms[0].time_collective(simmpi::Collective::Alltoall, 1 << 16);
  const double with_two = simmpi::Communicator::time_concurrent(
      two, simmpi::Collective::Alltoall, 1 << 16);
  const double with_all = simmpi::Communicator::time_concurrent(
      comms, simmpi::Collective::Alltoall, 1 << 16);
  EXPECT_LE(alone, with_two * (1 + 1e-9));
  EXPECT_LE(with_two, with_all * (1 + 1e-9));
}

// Fake levels (§3.2): splitting a level must preserve the total and allow
// strictly more orders, and the coarse orders must remain reachable.
TEST(Integration, FakeLevelExpandsTheOrderSpace) {
  const Hierarchy coarse{4, 2, 16};
  const Hierarchy fine = coarse.with_split_level(2, 2);  // [4, 2, 2, 8]
  EXPECT_EQ(fine.total(), coarse.total());
  EXPECT_GT(factorial(fine.depth()), factorial(coarse.depth()));
  // Every coarse placement is realised by some fine order: check one —
  // coarse [2,1,0] (identity) == fine [3,2,1,0] (identity).
  EXPECT_EQ(reorder_all_ranks(coarse, {2, 1, 0}),
            reorder_all_ranks(fine, {3, 2, 1, 0}));
  // And a genuinely new mapping exists: the fake level enumerated first.
  const auto novel = reorder_all_ranks(fine, {2, 3, 1, 0});
  bool found = false;
  for_each_order(3, [&](const Order& o) {
    if (reorder_all_ranks(coarse, o) == novel) found = true;
    return !found;
  });
  EXPECT_FALSE(found) << "the fake level should unlock unreachable mappings";
}

// Network levels (§3.2): the full hierarchy's constraint — total must
// equal procs — and metrics stay consistent on 6-level hierarchies.
TEST(Integration, NetworkLevelsWork) {
  const Hierarchy full = Hierarchy{2, 2, 8}.with_prefix_levels({2, 3});
  EXPECT_EQ(full.depth(), 5);
  EXPECT_EQ(full.total(), 192);
  const auto ch = characterize_order(full, identity_order(5), 6);
  EXPECT_EQ(ch.pair_pct.size(), 5u);
  EXPECT_GE(ch.ring_cost, 5);
}

// Core selection then reordering (§3.4's two-step process): selecting a
// rectangular set yields a sub-hierarchy usable for a second reordering.
TEST(Integration, SelectThenReorder) {
  const Hierarchy node{2, 4, 2, 8};  // LUMI node
  const auto cores = select_cores(node, parse_order("1-2-0-3"), 16);
  const auto set = sorted_core_set(cores);
  const auto sub = selected_hierarchy(node, set);
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->total(), 16);
  // The sub-hierarchy admits its own full set of reorderings.
  for (const Order& order : all_orders_lexicographic(sub->depth())) {
    auto map = reorder_all_ranks(*sub, order);
    std::sort(map.begin(), map.end());
    for (std::int64_t r = 0; r < sub->total(); ++r) {
      ASSERT_EQ(map[static_cast<std::size_t>(r)], r);
    }
  }
}

}  // namespace
}  // namespace mr
