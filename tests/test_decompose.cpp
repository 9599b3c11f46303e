#include "mixradix/mr/decompose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "mixradix/mr/permutation.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/util/prng.hpp"

namespace mr {
namespace {

// §3.1, Fig. 1: rank 10 on [2,2,4] is node 1, socket 0, core 2.
TEST(Decompose, PaperRank10Example) {
  const Hierarchy h{2, 2, 4};
  EXPECT_EQ(decompose(h, 10), (Coords{1, 0, 2}));
}

// Knuth's time example (§3.1): 3 weeks, 2 days, 9 hours, 22 minutes,
// 32 seconds = 2 020 952 seconds; coordinates listed innermost-first in
// the paper ([32, 22, 9, 2, 3]) are our coords reversed.
TEST(Decompose, KnuthTimeExample) {
  // Outermost level = weeks-within-some-bound; weeks radix only needs to
  // exceed 3, pick 52.
  const Hierarchy time{52, 7, 24, 60, 60};
  const Coords c = decompose(time, 2020952);
  EXPECT_EQ(c, (Coords{3, 2, 9, 22, 32}));
  EXPECT_EQ(compose(time, c), 2020952);
}

// §3.1's image-indexing example: pixel (x=12, y=20), colour 2, width w,
// 3 colour channels, enumerated by line, pixel, colour value:
// index = 2 + 12*3 + 20*w*3.
TEST(Decompose, ImageIndexingExample) {
  const int w = 640;
  const Hierarchy image{480, w, 3};  // rows, pixels per row, channels
  const Coords c{20, 12, 2};
  EXPECT_EQ(compose(image, c), 2 + 12 * 3 + 20 * w * 3);
}

TEST(Decompose, AllRanksRoundTrip) {
  const Hierarchy h{2, 2, 4};
  for (std::int64_t r = 0; r < h.total(); ++r) {
    EXPECT_EQ(compose(h, decompose(h, r)), r) << "rank " << r;
  }
}

TEST(Decompose, RejectsOutOfRangeRank) {
  const Hierarchy h{2, 2, 4};
  EXPECT_THROW(decompose(h, -1), invalid_argument);
  EXPECT_THROW(decompose(h, 16), invalid_argument);
}

TEST(Compose, RejectsBadCoordinates) {
  const Hierarchy h{2, 2, 4};
  EXPECT_THROW(compose(h, Coords{0, 0}), invalid_argument);        // too short
  EXPECT_THROW(compose(h, Coords{0, 2, 0}), invalid_argument);     // coord >= radix
  EXPECT_THROW(compose(h, Coords{0, -1, 0}), invalid_argument);    // negative
  EXPECT_THROW(compose(h, Coords{0, 0, 0}, {0, 0, 1}), invalid_argument);
}

// Table 1 of the paper: new rank of rank 10 on [2,2,4] under all 6 orders.
struct Table1Row {
  const char* order;
  std::int64_t new_rank;
};

// Prints the row's values, not its pointer bytes, so the discovered ctest
// names stay the same from build to build.
void PrintTo(const Table1Row& row, std::ostream* os) {
  *os << row.order << " -> " << row.new_rank;
}

class Table1 : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1, NewRankMatchesPaper) {
  const Hierarchy h{2, 2, 4};
  const Order order = parse_order(GetParam().order);
  EXPECT_EQ(reorder_rank(h, 10, order), GetParam().new_rank);
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, Table1,
    ::testing::Values(Table1Row{"0-1-2", 9}, Table1Row{"0-2-1", 5},
                      Table1Row{"1-0-2", 10}, Table1Row{"1-2-0", 12},
                      Table1Row{"2-0-1", 6}, Table1Row{"2-1-0", 10}),
    [](const auto& info) {
      std::string name = info.param.order;
      std::replace(name.begin(), name.end(), '-', '_');
      return "order_" + name;
    });

// "The inverse of Algorithm 1 is Algorithm 2 applied with the order
// [2, 1, 0]" (§3.1) — i.e. the reversed identity keeps every rank in place.
TEST(Compose, ReversedOrderIsIdentityReordering) {
  const Hierarchy h{2, 2, 4};
  const Order reversed = inverse_of_decompose_order(h.depth());
  EXPECT_EQ(reversed, (Order{2, 1, 0}));
  for (std::int64_t r = 0; r < h.total(); ++r) {
    EXPECT_EQ(reorder_rank(h, r, reversed), r);
  }
}

TEST(Reorder, AllRanksFormAPermutation) {
  // reorder_all_ranks walks the ranks as one mixed-radix odometer; every
  // entry must still be that rank's own reorder_rank, on a small
  // hierarchy and on a depth-6 mixed one (720 orders).
  for (const Hierarchy& h :
       {Hierarchy{3, 2, 5}, Hierarchy{2, 3, 2, 2, 4, 2}}) {
    for (const Order& order : all_orders_lexicographic(h.depth())) {
      auto map = reorder_all_ranks(h, order);
      ASSERT_EQ(map.size(), static_cast<std::size_t>(h.total()));
      for (std::int64_t r = 0; r < h.total(); ++r) {
        ASSERT_EQ(map[static_cast<std::size_t>(r)], reorder_rank(h, r, order))
            << h.to_string() << " order " << order_to_string(order)
            << " rank " << r;
      }
      std::sort(map.begin(), map.end());
      for (std::int64_t r = 0; r < h.total(); ++r) {
        ASSERT_EQ(map[static_cast<std::size_t>(r)], r)
            << "order " << order_to_string(order);
      }
    }
  }
  const Hierarchy h{2, 2, 4};
  EXPECT_THROW(reorder_all_ranks(h, {0, 1}), invalid_argument);
  EXPECT_THROW(reorder_all_ranks(h, {0, 1, 1}), invalid_argument);
  EXPECT_THROW(reorder_all_ranks(h, {0, 1, 3}), invalid_argument);
}

TEST(Reorder, PlacementInvertsReordering) {
  const Hierarchy h{2, 3, 4};
  for (const Order& order : all_orders_lexicographic(h.depth())) {
    const auto forward = reorder_all_ranks(h, order);
    const auto placement = placement_of_new_ranks(h, order);
    for (std::int64_t r = 0; r < h.total(); ++r) {
      EXPECT_EQ(placement[static_cast<std::size_t>(
                    forward[static_cast<std::size_t>(r)])],
                r);
    }
  }
}

// Property sweep: random hierarchies, random orders, round trips hold.
class DecomposeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecomposeProperty, RandomHierarchyRoundTrips) {
  util::Xoshiro256 rng(GetParam());
  const int depth = 1 + static_cast<int>(rng.next_below(5));
  std::vector<int> radices;
  for (int i = 0; i < depth; ++i) {
    radices.push_back(2 + static_cast<int>(rng.next_below(6)));
  }
  const Hierarchy h(radices);

  // Random order.
  Order order = identity_order(depth);
  for (int i = depth - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }

  // decompose/compose round trip on every rank.
  for (std::int64_t r = 0; r < h.total(); ++r) {
    ASSERT_EQ(compose(h, decompose(h, r)), r);
  }

  // A reordering followed by the reordering of the inverse-composed order
  // must be the identity: new = compose(c, order) enumerates the permuted
  // hierarchy, so reordering under `order` is a bijection.
  auto map = reorder_all_ranks(h, order);
  std::vector<bool> seen(map.size(), false);
  for (auto v : map) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, h.total());
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }

  // Coordinates read back through the permuted hierarchy agree. Table 1's
  // "permuted hierarchy" column lists radices in enumeration order (σ(0)
  // first, the fastest-varying digit); a Hierarchy is outermost-first, so
  // the permuted base viewed as a Hierarchy is that column reversed.
  const auto permuted = h.permuted(order).radices();
  const Hierarchy hp(std::vector<int>(permuted.rbegin(), permuted.rend()));
  for (std::int64_t r = 0; r < h.total(); ++r) {
    const Coords c = decompose(h, r);
    const std::int64_t nr = compose(h, c, order);
    const Coords cp = decompose(hp, nr);
    // decompose peels innermost-first and compose() makes order[0] the
    // fastest-varying digit, so cp reversed matches c permuted by order.
    for (int i = 0; i < depth; ++i) {
      ASSERT_EQ(cp[static_cast<std::size_t>(depth - 1 - i)],
                c[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposeProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace mr
