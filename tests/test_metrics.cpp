// Golden tests for the §3.3 metrics: every ring cost and pair-percentage
// tuple printed in the paper's figure legends is a pure function of
// (hierarchy, order, communicator size) and is reproduced here bit-exactly
// (percentages compared after the paper's 1-decimal rounding).
#include "mixradix/mr/metrics.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "mixradix/engine/engine.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/util/prng.hpp"

namespace mr {
namespace {

Hierarchy hydra16() { return Hierarchy({16, 2, 2, 8}); }   // 512 procs
Hierarchy lumi16() { return Hierarchy({16, 2, 4, 2, 8}); } // 2048 procs

TEST(HopCost, CountsCrossedLevels) {
  const Hierarchy h{2, 2, 4};
  EXPECT_EQ(hop_cost(h, {0, 0, 0}, {0, 0, 1}), 1);  // same socket
  EXPECT_EQ(hop_cost(h, {0, 0, 0}, {0, 1, 0}), 2);  // cross socket
  EXPECT_EQ(hop_cost(h, {0, 0, 0}, {1, 0, 0}), 3);  // cross node
  EXPECT_EQ(hop_cost(h, {1, 0, 2}, {1, 0, 2}), 0);  // same core
}

TEST(InnermostCommonLevel, MatchesHopCost) {
  const Hierarchy h{2, 2, 4};
  EXPECT_EQ(innermost_common_level(h, {0, 0, 0}, {0, 0, 3}), 2);
  EXPECT_EQ(innermost_common_level(h, {0, 0, 0}, {0, 1, 3}), 1);
  EXPECT_EQ(innermost_common_level(h, {0, 0, 0}, {1, 0, 0}), 0);
  EXPECT_THROW(innermost_common_level(h, {0, 0, 0}, {0, 0, 0}), invalid_argument);
}

// §3.3: on [2,2,4] with communicators of 4, order [0,1,2] has ring cost 9
// and order [1,0,2] has ring cost 7 with pair percentages [0, 33.3, 66.7];
// order [2,1,0] has percentages [100, 0, 0].
TEST(Metrics, Section33Examples) {
  const Hierarchy h{2, 2, 4};
  const auto c012 = characterize_order(h, {0, 1, 2}, 4);
  EXPECT_EQ(c012.ring_cost, 9);

  const auto c102 = characterize_order(h, {1, 0, 2}, 4);
  EXPECT_EQ(c102.ring_cost, 7);
  ASSERT_EQ(c102.pair_pct.size(), 3u);
  EXPECT_NEAR(c102.pair_pct[0], 0.0, 1e-9);
  EXPECT_NEAR(c102.pair_pct[1], 100.0 / 3.0, 1e-9);
  EXPECT_NEAR(c102.pair_pct[2], 200.0 / 3.0, 1e-9);

  const auto c210 = characterize_order(h, {2, 1, 0}, 4);
  EXPECT_NEAR(c210.pair_pct[0], 100.0, 1e-9);
  EXPECT_NEAR(c210.pair_pct[1], 0.0, 1e-9);
  EXPECT_NEAR(c210.pair_pct[2], 0.0, 1e-9);
}

// Orders [0,1,2] and [1,0,2] place the first communicator on the same set
// of cores (same percentages), but number ranks differently (different
// ring costs) — the paper's motivating observation for having two metrics.
TEST(Metrics, MetricsAreIndependent) {
  const Hierarchy h{2, 2, 4};
  const auto a = characterize_order(h, {0, 1, 2}, 4);
  const auto b = characterize_order(h, {1, 0, 2}, 4);
  EXPECT_EQ(a.pair_pct, b.pair_pct);
  EXPECT_NE(a.ring_cost, b.ring_cost);
}

struct LegendCase {
  const char* figure;
  Hierarchy hierarchy;
  std::int64_t comm_size;
  const char* legend;  // exact paper text: "order (ring - pcts)"
};

class FigureLegends : public ::testing::TestWithParam<LegendCase> {};

TEST_P(FigureLegends, MatchesPaper) {
  const auto& p = GetParam();
  const std::string text = p.legend;
  const Order order = parse_order(text.substr(0, text.find(' ')));
  const auto character = characterize_order(p.hierarchy, order, p.comm_size);
  EXPECT_EQ(character.to_string(), text) << "figure " << p.figure;
}

INSTANTIATE_TEST_SUITE_P(
    Fig3AlltoallHydraComm16, FigureLegends,
    ::testing::Values(
        LegendCase{"3", hydra16(), 16, "0-1-2-3 (60 - 0.0, 0.0, 0.0, 100.0)"},
        LegendCase{"3", hydra16(), 16, "2-1-0-3 (40 - 0.0, 6.7, 13.3, 80.0)"},
        LegendCase{"3", hydra16(), 16, "1-3-0-2 (45 - 46.7, 0.0, 53.3, 0.0)"},
        LegendCase{"3", hydra16(), 16, "1-3-2-0 (45 - 46.7, 0.0, 53.3, 0.0)"},
        LegendCase{"3", hydra16(), 16, "3-1-0-2 (17 - 46.7, 0.0, 53.3, 0.0)"},
        LegendCase{"3", hydra16(), 16, "3-2-1-0 (16 - 46.7, 53.3, 0.0, 0.0)"}));

INSTANTIATE_TEST_SUITE_P(
    Fig4AlltoallHydraComm128, FigureLegends,
    ::testing::Values(
        LegendCase{"4", hydra16(), 128, "0-1-2-3 (508 - 0.8, 1.6, 3.1, 94.5)"},
        LegendCase{"4", hydra16(), 128, "2-1-0-3 (348 - 0.8, 1.6, 3.1, 94.5)"},
        LegendCase{"4", hydra16(), 128, "1-3-0-2 (388 - 5.5, 0.0, 6.3, 88.2)"},
        LegendCase{"4", hydra16(), 128, "3-1-0-2 (164 - 5.5, 0.0, 6.3, 88.2)"},
        LegendCase{"4", hydra16(), 128, "1-3-2-0 (384 - 5.5, 6.3, 12.6, 75.6)"},
        LegendCase{"4", hydra16(), 128, "3-2-1-0 (152 - 5.5, 6.3, 12.6, 75.6)"}));

INSTANTIATE_TEST_SUITE_P(
    Fig5AlltoallLumiComm16, FigureLegends,
    ::testing::Values(
        LegendCase{"5", lumi16(), 16, "0-1-2-3-4 (75 - 0.0, 0.0, 0.0, 0.0, 100.0)"},
        LegendCase{"5", lumi16(), 16, "1-2-3-0-4 (60 - 0.0, 6.7, 40.0, 53.3, 0.0)"},
        LegendCase{"5", lumi16(), 16, "3-2-1-4-0 (38 - 0.0, 6.7, 40.0, 53.3, 0.0)"},
        LegendCase{"5", lumi16(), 16, "3-4-0-1-2 (30 - 46.7, 53.3, 0.0, 0.0, 0.0)"},
        LegendCase{"5", lumi16(), 16, "4-3-2-1-0 (16 - 46.7, 53.3, 0.0, 0.0, 0.0)"}));

INSTANTIATE_TEST_SUITE_P(
    Fig6AllreduceHydraComm64, FigureLegends,
    ::testing::Values(
        LegendCase{"6", hydra16(), 64, "0-1-2-3 (252 - 0.0, 1.6, 3.2, 95.2)"},
        LegendCase{"6", hydra16(), 64, "2-1-0-3 (172 - 0.0, 1.6, 3.2, 95.2)"},
        LegendCase{"6", hydra16(), 64, "1-3-0-2 (192 - 11.1, 0.0, 12.7, 76.2)"},
        LegendCase{"6", hydra16(), 64, "3-1-0-2 (80 - 11.1, 0.0, 12.7, 76.2)"},
        LegendCase{"6", hydra16(), 64, "1-3-2-0 (190 - 11.1, 12.7, 25.4, 50.8)"},
        LegendCase{"6", hydra16(), 64, "3-2-1-0 (74 - 11.1, 12.7, 25.4, 50.8)"}));

INSTANTIATE_TEST_SUITE_P(
    Fig7AllgatherLumiComm256, FigureLegends,
    ::testing::Values(
        LegendCase{"7", lumi16(), 256, "0-1-2-3-4 (1275 - 0.0, 0.4, 2.4, 3.1, 94.1)"},
        LegendCase{"7", lumi16(), 256, "1-2-3-0-4 (1035 - 0.0, 0.4, 2.4, 3.1, 94.1)"},
        LegendCase{"7", lumi16(), 256, "3-4-0-1-2 (555 - 2.7, 3.1, 0.0, 0.0, 94.1)"},
        LegendCase{"7", lumi16(), 256, "3-2-1-4-0 (669 - 2.7, 3.1, 18.8, 25.1, 50.2)"},
        LegendCase{"7", lumi16(), 256, "4-3-2-1-0 (305 - 2.7, 3.1, 18.8, 25.1, 50.2)"}));

TEST(PairPercentages, SumToOneHundred) {
  const Hierarchy h = hydra16();
  for (std::int64_t comm_size : {2, 4, 16, 64, 128, 512}) {
    for (const Order& order :
         {Order{0, 1, 2, 3}, Order{3, 2, 1, 0}, Order{1, 3, 0, 2}}) {
      const auto pct = characterize_order(h, order, comm_size).pair_pct;
      const double sum = std::accumulate(pct.begin(), pct.end(), 0.0);
      EXPECT_NEAR(sum, 100.0, 1e-9);
    }
  }
}

TEST(RingCost, BoundsHold) {
  // Ring cost of p members lies in [(p-1)*1, (p-1)*depth].
  const Hierarchy h = hydra16();
  for (std::int64_t comm_size : {4, 16, 64}) {
    for (const Order& order :
         {Order{0, 1, 2, 3}, Order{3, 2, 1, 0}, Order{2, 0, 3, 1}}) {
      const auto c = characterize_order(h, order, comm_size);
      EXPECT_GE(c.ring_cost, comm_size - 1);
      EXPECT_LE(c.ring_cost, (comm_size - 1) * h.depth());
    }
  }
}

TEST(SubcommunicatorCoords, ValidatesInputs) {
  const Hierarchy h{2, 2, 4};
  EXPECT_THROW(subcommunicator_coords(h, {0, 1, 2}, 0, 3), invalid_argument);
  EXPECT_THROW(subcommunicator_coords(h, {0, 1, 2}, 4, 4), invalid_argument);
  EXPECT_THROW(subcommunicator_coords(h, {0, 1, 2}, -1, 4), invalid_argument);
}

TEST(SubcommunicatorCoords, EveryCommunicatorIsDisjoint) {
  const Hierarchy h{2, 2, 4};
  for (const Order& order : {Order{0, 1, 2}, Order{2, 0, 1}}) {
    std::vector<Coords> all;
    for (std::int64_t c = 0; c < 4; ++c) {
      const auto members = subcommunicator_coords(h, order, c, 4);
      all.insert(all.end(), members.begin(), members.end());
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      for (std::size_t j = i + 1; j < all.size(); ++j) {
        EXPECT_NE(all[i], all[j]);
      }
    }
  }
}

TEST(Metrics, SingletonCommunicatorHasNoHopsAndNoPairs) {
  const Hierarchy h{2, 2, 4};
  EXPECT_EQ(ring_cost(h, {Coords{0, 1, 2}}), 0);
  EXPECT_TRUE(pair_percentages(h, {Coords{0, 1, 2}}).empty());
  EXPECT_THROW(ring_cost(h, {}), invalid_argument);
  EXPECT_THROW(pair_percentages(h, {}), invalid_argument);
  for (MetricsImpl impl : {MetricsImpl::Fast, MetricsImpl::Reference}) {
    const auto c = characterize_order(h, {2, 0, 1}, 1, impl);
    EXPECT_EQ(c.ring_cost, 0);
    EXPECT_TRUE(c.pair_pct.empty());
    EXPECT_EQ(c.to_string(), "2-0-1 (0)");
  }
  EXPECT_EQ(ring_cost_closed_form(h, {0, 1, 2}, 1), 0);
  EXPECT_TRUE(pair_percentages_closed_form(h, {0, 1, 2}, 1).empty());
}

// The closed-form kernels must agree with the brute-force reference not
// just approximately but bit-for-bit (EXPECT_EQ on the doubles): both
// compute the same integer pair counts and feed them through the same
// floating expression, so the classification and legend strings built on
// top are byte-identical regardless of the MetricsImpl.
TEST(ClosedForm, MatchesReferenceOnPaperMachinesExhaustively) {
  struct Case {
    Hierarchy hierarchy;
    std::vector<std::int64_t> comm_sizes;
  };
  const std::vector<Case> cases = {
      {hydra16(), {2, 16, 64, 128, 512}},  // figs 3, 4, 6 + edge sizes
      {lumi16(), {16, 256, 2048}},         // figs 5, 7 + full machine
  };
  for (const auto& c : cases) {
    for (const std::int64_t comm_size : c.comm_sizes) {
      for (const Order& order : all_orders_lexicographic(c.hierarchy.depth())) {
        const auto fast =
            characterize_order(c.hierarchy, order, comm_size, MetricsImpl::Fast);
        const auto ref = characterize_order(c.hierarchy, order, comm_size,
                                            MetricsImpl::Reference);
        EXPECT_EQ(fast.ring_cost, ref.ring_cost)
            << order_to_string(order) << " s=" << comm_size;
        EXPECT_EQ(fast.pair_pct, ref.pair_pct)
            << order_to_string(order) << " s=" << comm_size;
      }
    }
  }
}

TEST(ClosedForm, MatchesReferenceOnRandomHierarchies) {
  // Seeded, platform-independent randomness (util::Xoshiro256): random
  // radix vectors up to depth 8, random orders, random divisor comm sizes.
  util::Xoshiro256 rng(0x6d72656e756dULL);  // "mrenum"
  for (int trial = 0; trial < 60; ++trial) {
    const int depth = 2 + static_cast<int>(rng.next_below(7));  // 2..8
    std::vector<int> radices;
    for (int i = 0; i < depth; ++i) {
      radices.push_back(2 + static_cast<int>(rng.next_below(3)));  // 2..4
    }
    const Hierarchy h(radices);

    Order order(static_cast<std::size_t>(depth));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size() - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }

    // A random divisor of total(): the product of a random subset of the
    // radices, capped so the O(s^2) reference stays test-sized.
    std::int64_t comm_size = 1;
    for (const int radix : radices) {
      if (rng.next_below(2) == 1 && comm_size * radix <= 512) {
        comm_size *= radix;
      }
    }

    for (const std::int64_t s : {std::int64_t{1}, comm_size}) {
      const auto fast = characterize_order(h, order, s, MetricsImpl::Fast);
      const auto ref = characterize_order(h, order, s, MetricsImpl::Reference);
      EXPECT_EQ(fast.ring_cost, ref.ring_cost)
          << h.to_string() << " " << order_to_string(order) << " s=" << s;
      EXPECT_EQ(fast.pair_pct, ref.pair_pct)
          << h.to_string() << " " << order_to_string(order) << " s=" << s;
    }
  }
}

// characterize_orders fans the per-order kernel over the engine's pool:
// each result must equal its own characterize_order call bit for bit, at
// any thread count and with either kernel.
TEST(CharacterizeOrders, MatchesPerOrderCallsAtAnyThreadCount) {
  Engine engine;
  const Hierarchy h{2, 2, 2, 3, 3, 4};  // 720 orders, 288 procs
  const std::vector<Order> orders = all_orders_lexicographic(h.depth());
  const std::int64_t comm_size = 24;
  for (const MetricsImpl impl : {MetricsImpl::Fast, MetricsImpl::Reference}) {
    for (const int threads : {1, 4}) {
      const std::vector<OrderCharacter> got =
          characterize_orders(engine, h, orders, comm_size, threads, impl);
      ASSERT_EQ(got.size(), orders.size());
      for (std::size_t i = 0; i < orders.size(); ++i) {
        const OrderCharacter want =
            characterize_order(h, orders[i], comm_size, impl);
        EXPECT_EQ(got[i].order, want.order) << "threads " << threads;
        EXPECT_EQ(got[i].ring_cost, want.ring_cost)
            << order_to_string(orders[i]) << " threads " << threads;
        EXPECT_EQ(got[i].pair_pct, want.pair_pct)
            << order_to_string(orders[i]) << " threads " << threads;
      }
    }
  }
  EXPECT_THROW(characterize_orders(engine, h, orders, comm_size, -1),
               invalid_argument);
}

TEST(Spreadness, PackedIsZeroSpreadIsOne) {
  const Hierarchy h = hydra16();
  const auto packed = subcommunicator_coords(h, {3, 2, 1, 0}, 0, 8);
  EXPECT_NEAR(spreadness(h, packed), 0.0, 1e-9);
  const auto spread = subcommunicator_coords(h, {0, 1, 2, 3}, 0, 16);
  EXPECT_NEAR(spreadness(h, spread), 1.0, 1e-9);
}

}  // namespace
}  // namespace mr
