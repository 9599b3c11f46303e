#include "mixradix/mr/decompose.hpp"

#include <numeric>

#include "mixradix/util/expect.hpp"

namespace mr {

std::vector<int> identity_order(int depth) {
  MR_EXPECT(depth >= 1, "depth must be positive");
  std::vector<int> order(static_cast<std::size_t>(depth));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

std::vector<int> inverse_of_decompose_order(int depth) {
  MR_EXPECT(depth >= 1, "depth must be positive");
  std::vector<int> order(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) order[static_cast<std::size_t>(i)] = depth - 1 - i;
  return order;
}

Coords decompose(const Hierarchy& h, std::int64_t rank) {
  MR_EXPECT(rank >= 0 && rank < h.total(),
            "rank " + std::to_string(rank) + " out of range for " + h.to_string());
  Coords coords(static_cast<std::size_t>(h.depth()));
  // Algorithm 1: peel radices from the innermost level outward.
  for (int i = h.depth() - 1; i >= 0; --i) {
    const int radix = h.radix(i);
    coords[static_cast<std::size_t>(i)] = static_cast<int>(rank % radix);
    rank /= radix;
  }
  return coords;
}

std::int64_t compose(const Hierarchy& h, const Coords& coords,
                     const std::vector<int>& order) {
  MR_EXPECT(static_cast<int>(coords.size()) == h.depth(),
            "coordinate count must equal hierarchy depth");
  MR_EXPECT(static_cast<int>(order.size()) == h.depth(),
            "order length must equal hierarchy depth");
  std::vector<bool> seen(order.size(), false);
  std::int64_t rank = 0;
  std::int64_t factor = 1;
  // Algorithm 2: the level enumerated first (σ(0)) varies fastest.
  for (int i = 0; i < h.depth(); ++i) {
    const int level = order[static_cast<std::size_t>(i)];
    MR_EXPECT(level >= 0 && level < h.depth(), "order entry out of range");
    MR_EXPECT(!seen[static_cast<std::size_t>(level)], "order is not a permutation");
    seen[static_cast<std::size_t>(level)] = true;
    const int c = coords[static_cast<std::size_t>(level)];
    MR_EXPECT(c >= 0 && c < h.radix(level), "coordinate out of range for its level");
    rank += c * factor;
    factor *= h.radix(level);
  }
  return rank;
}

std::int64_t compose(const Hierarchy& h, const Coords& coords) {
  return compose(h, coords, inverse_of_decompose_order(h.depth()));
}

std::int64_t reorder_rank(const Hierarchy& h, std::int64_t rank,
                          const std::vector<int>& order) {
  return compose(h, decompose(h, rank), order);
}

std::vector<std::int64_t> reorder_all_ranks(const Hierarchy& h,
                                            const std::vector<int>& order) {
  const std::vector<int>& radix = h.radices();
  const std::size_t depth = radix.size();
  MR_EXPECT(order.size() == depth, "order length must equal hierarchy depth");
  // Algorithm 2's factor of each level's coordinate in the new rank; 0
  // marks a level the order has not named yet (every factor is >= 1).
  std::vector<std::int64_t> weight(depth, 0);
  std::int64_t factor = 1;
  for (const int level : order) {
    MR_EXPECT(level >= 0 && level < static_cast<int>(depth),
              "order entry out of range");
    const auto k = static_cast<std::size_t>(level);
    MR_EXPECT(weight[k] == 0, "order is not a permutation");
    weight[k] = factor;
    factor *= radix[k];
  }
  // Mixed-radix odometer over the old ranks: the innermost coordinate
  // turns fastest, as Algorithm 1 peels it, and the new rank moves by the
  // turned coordinate's factor (a carry rewinds the wrapped coordinates).
  std::vector<int> coord(depth, 0);
  std::vector<std::int64_t> out(static_cast<std::size_t>(h.total()));
  std::int64_t rank = 0;
  for (std::int64_t& slot : out) {
    slot = rank;
    for (std::size_t k = depth; k-- > 0;) {
      if (++coord[k] < radix[k]) {
        rank += weight[k];
        break;
      }
      coord[k] = 0;
      rank -= (radix[k] - 1) * weight[k];
    }
  }
  return out;
}

std::vector<std::int64_t> placement_of_new_ranks(const Hierarchy& h,
                                                 const std::vector<int>& order) {
  const auto forward = reorder_all_ranks(h, order);
  std::vector<std::int64_t> inverse(forward.size());
  for (std::size_t old_rank = 0; old_rank < forward.size(); ++old_rank) {
    inverse[static_cast<std::size_t>(forward[old_rank])] =
        static_cast<std::int64_t>(old_rank);
  }
  return inverse;
}

}  // namespace mr
