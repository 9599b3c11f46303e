#include "mixradix/mr/permutation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "mixradix/util/expect.hpp"

namespace mr {
namespace {

TEST(ParseOrder, AcceptsPaperNotations) {
  EXPECT_EQ(parse_order("1-3-2-0"), (Order{1, 3, 2, 0}));
  EXPECT_EQ(parse_order("1,3,2,0"), (Order{1, 3, 2, 0}));
  EXPECT_EQ(parse_order("[1, 3, 2, 0]"), (Order{1, 3, 2, 0}));
  EXPECT_EQ(parse_order("0"), (Order{0}));
}

TEST(ParseOrder, RejectsNonPermutations) {
  EXPECT_THROW(parse_order("0-0-1"), invalid_argument);
  EXPECT_THROW(parse_order("0-2"), invalid_argument);
  EXPECT_THROW(parse_order("0-1-x"), invalid_argument);
  EXPECT_THROW(parse_order(""), invalid_argument);
}

TEST(OrderToString, RoundTripsWithParse) {
  const Order o{3, 1, 0, 2};
  EXPECT_EQ(o, parse_order(order_to_string(o)));
  EXPECT_EQ(order_to_string(o), "3-1-0-2");
}

TEST(InverseOrder, Involution) {
  const Order o{3, 1, 0, 2};
  const Order inv = inverse_order(o);
  EXPECT_EQ(inverse_order(inv), o);
  for (std::size_t i = 0; i < o.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(o[i])], static_cast<int>(i));
  }
}

TEST(ComposeOrders, InverseComposesToIdentity) {
  const Order o{2, 0, 3, 1};
  const Order id{0, 1, 2, 3};
  EXPECT_EQ(compose_orders(o, inverse_order(o)), id);
  EXPECT_EQ(compose_orders(inverse_order(o), o), id);
}

TEST(ComposeOrders, Associativity) {
  const Order a{1, 2, 0}, b{2, 0, 1}, c{0, 2, 1};
  EXPECT_EQ(compose_orders(compose_orders(a, b), c),
            compose_orders(a, compose_orders(b, c)));
}

TEST(Factorial, KnownValues) {
  EXPECT_EQ(factorial(0), 1);
  EXPECT_EQ(factorial(1), 1);
  EXPECT_EQ(factorial(4), 24);
  EXPECT_EQ(factorial(6), 720);
  EXPECT_EQ(factorial(20), 2432902008176640000LL);
  EXPECT_THROW(factorial(21), invalid_argument);
  EXPECT_THROW(factorial(-1), invalid_argument);
}

class AllOrders : public ::testing::TestWithParam<int> {};

TEST_P(AllOrders, LexicographicIsCompleteSortedAndUnique) {
  const int n = GetParam();
  const auto orders = all_orders_lexicographic(n);
  EXPECT_EQ(static_cast<long long>(orders.size()), factorial(n));
  EXPECT_TRUE(std::is_sorted(orders.begin(), orders.end()));
  const std::set<Order> unique(orders.begin(), orders.end());
  EXPECT_EQ(unique.size(), orders.size());
  for (const auto& o : orders) EXPECT_TRUE(is_permutation_of_iota(o));
}

TEST_P(AllOrders, HeapGeneratesTheSameSet) {
  const int n = GetParam();
  auto heap = all_orders_heap(n);
  EXPECT_EQ(static_cast<long long>(heap.size()), factorial(n));
  // Heap's algorithm changes exactly one transposition per step.
  for (std::size_t i = 1; i < heap.size(); ++i) {
    int diffs = 0;
    for (std::size_t j = 0; j < heap[i].size(); ++j) {
      if (heap[i][j] != heap[i - 1][j]) ++diffs;
    }
    EXPECT_EQ(diffs, 2) << "step " << i;
  }
  std::sort(heap.begin(), heap.end());
  EXPECT_EQ(heap, all_orders_lexicographic(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllOrders, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST_P(AllOrders, NthOrderUnranksEveryIndex) {
  const int n = GetParam();
  const auto orders = all_orders_lexicographic(n);
  for (std::size_t i = 0; i < orders.size(); ++i) {
    EXPECT_EQ(nth_order_lexicographic(n, static_cast<long long>(i)), orders[i])
        << "index " << i;
  }
}

TEST(NthOrder, WorksBeyondTheMaterialisationGuard) {
  // all_orders_lexicographic refuses n > 12; unranking has no such limit.
  EXPECT_EQ(nth_order_lexicographic(14, 0),
            (Order{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}));
  EXPECT_EQ(nth_order_lexicographic(14, factorial(14) - 1),
            (Order{13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
  // The second block of 13! indices starts by swapping the two slowest
  // levels, exactly like next_permutation would.
  EXPECT_EQ(nth_order_lexicographic(14, factorial(13))[0], 1);
}

TEST(NthOrder, RejectsOutOfRangeIndices) {
  EXPECT_THROW(nth_order_lexicographic(3, -1), invalid_argument);
  EXPECT_THROW(nth_order_lexicographic(3, 6), invalid_argument);
  EXPECT_THROW(nth_order_lexicographic(0, 0), invalid_argument);
}

TEST(OrderIndex, ShardsPartitionTheOrderSet) {
  // The mrenum --shard contract: strided unranking over shards 0..n-1
  // visits every order exactly once.
  const int depth = 5;
  for (const long long nshards : {1ll, 3ll, 7ll}) {
    std::vector<Order> seen;
    for (long long shard = 0; shard < nshards; ++shard) {
      for (long long idx = shard; idx < factorial(depth); idx += nshards) {
        seen.push_back(nth_order_lexicographic(depth, idx));
      }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, all_orders_lexicographic(depth)) << nshards << " shards";
  }
}

TEST(IsPermutationOfIota, HandlesWideOrders) {
  // n > 64 falls back to the seen-vector path.
  Order wide(100);
  std::iota(wide.begin(), wide.end(), 0);
  std::reverse(wide.begin(), wide.end());
  EXPECT_TRUE(is_permutation_of_iota(wide));
  wide[99] = 99;  // duplicates wide[0]
  EXPECT_FALSE(is_permutation_of_iota(wide));
  wide[99] = 100;  // out of range
  EXPECT_FALSE(is_permutation_of_iota(wide));
}

TEST(ForEachOrder, VisitsLexicographicallyAndStopsEarly) {
  std::vector<Order> seen;
  for_each_order(3, [&](const Order& o) {
    seen.push_back(o);
    return seen.size() < 4;
  });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (Order{0, 1, 2}));
  EXPECT_EQ(seen[1], (Order{0, 2, 1}));
  EXPECT_EQ(seen[2], (Order{1, 0, 2}));
  EXPECT_EQ(seen[3], (Order{1, 2, 0}));
}

TEST(AllOrders, MaterialisationGuard) {
  EXPECT_THROW(all_orders_lexicographic(13), invalid_argument);
  EXPECT_THROW(all_orders_heap(0), invalid_argument);
}

}  // namespace
}  // namespace mr
