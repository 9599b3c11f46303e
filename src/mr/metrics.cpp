#include "mixradix/mr/metrics.hpp"

#include <algorithm>

#include "mixradix/engine/engine.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/util/strings.hpp"

namespace mr {

namespace {

/// First level (outermost-first index) where two coordinate vectors differ,
/// or h.depth() when identical.
int first_diff_level(const Hierarchy& h, const Coords& a, const Coords& b) {
  MR_EXPECT(static_cast<int>(a.size()) == h.depth() &&
                static_cast<int>(b.size()) == h.depth(),
            "coordinates must match the hierarchy depth");
  for (int level = 0; level < h.depth(); ++level) {
    if (a[static_cast<std::size_t>(level)] != b[static_cast<std::size_t>(level)]) {
      return level;
    }
  }
  return h.depth();
}

}  // namespace

int hop_cost(const Hierarchy& h, const Coords& a, const Coords& b) {
  return h.depth() - first_diff_level(h, a, b);
}

int innermost_common_level(const Hierarchy& h, const Coords& a, const Coords& b) {
  const int level = first_diff_level(h, a, b);
  MR_EXPECT(level < h.depth(), "cores must be distinct");
  return level;
}

std::int64_t ring_cost(const Hierarchy& h, const std::vector<Coords>& members) {
  MR_EXPECT(!members.empty(), "ring cost needs at least one member");
  std::int64_t total = 0;
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    total += hop_cost(h, members[i], members[i + 1]);
  }
  return total;
}

std::vector<double> pair_percentages(const Hierarchy& h,
                                     const std::vector<Coords>& members) {
  MR_EXPECT(!members.empty(), "pair percentages need at least one member");
  if (members.size() == 1) return {};  // no pairs: percentages are undefined.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(h.depth()), 0);
  std::int64_t pairs = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      const int level = first_diff_level(h, members[i], members[j]);
      MR_EXPECT(level < h.depth(), "duplicate core in communicator");
      counts[static_cast<std::size_t>(level)] += 1;
      ++pairs;
    }
  }
  // counts is indexed outermost-first; the paper's legends list lowest-first.
  std::vector<double> pct(static_cast<std::size_t>(h.depth()));
  for (int level = 0; level < h.depth(); ++level) {
    const auto lowest_first = static_cast<std::size_t>(h.depth() - 1 - level);
    pct[lowest_first] =
        100.0 * static_cast<double>(counts[static_cast<std::size_t>(level)]) /
        static_cast<double>(pairs);
  }
  return pct;
}

std::vector<Coords> subcommunicator_coords(const Hierarchy& h, const Order& order,
                                           std::int64_t comm_index,
                                           std::int64_t comm_size) {
  MR_EXPECT(comm_size >= 1 && comm_size <= h.total(), "bad communicator size");
  MR_EXPECT(h.total() % comm_size == 0,
            "communicator size must divide the number of processes");
  MR_EXPECT(comm_index >= 0 && comm_index < h.total() / comm_size,
            "communicator index out of range");
  const auto placement = placement_of_new_ranks(h, order);
  std::vector<Coords> members;
  members.reserve(static_cast<std::size_t>(comm_size));
  for (std::int64_t j = 0; j < comm_size; ++j) {
    const std::int64_t core = placement[static_cast<std::size_t>(comm_index * comm_size + j)];
    members.push_back(decompose(h, core));
  }
  return members;
}

namespace {

/// Shared preconditions of the closed-form kernels: `order` permutes the
/// levels and `comm_size` tiles the machine (same checks the reference
/// path performs inside subcommunicator_coords/compose).
void expect_valid_block(const Hierarchy& h, const Order& order,
                        std::int64_t comm_size) {
  MR_EXPECT(static_cast<int>(order.size()) == h.depth() &&
                is_permutation_of_iota(order),
            "order must be a permutation of the hierarchy levels");
  MR_EXPECT(comm_size >= 1 && comm_size <= h.total(), "bad communicator size");
  MR_EXPECT(h.total() % comm_size == 0,
            "communicator size must divide the number of processes");
}

}  // namespace

std::int64_t ring_cost_closed_form(const Hierarchy& h, const Order& order,
                                   std::int64_t comm_size) {
  expect_valid_block(h, order, comm_size);
  // The s-1 ring hops are the mixed-radix increments 1..s-1 in the
  // permuted base. Increment r has >= k carries iff the product of the k
  // fastest permuted radices divides r, so exactly-k-carry increments
  // number floor((s-1)/P_k) - floor((s-1)/P_{k+1}), and each such hop
  // changes levels {order[0..k]}, costing depth - min(order[0..k]).
  const std::int64_t last = comm_size - 1;
  std::int64_t cost = 0;
  std::int64_t radix_product = 1;  // P_k
  int min_level = h.depth();
  for (int k = 0; k < h.depth(); ++k) {
    const int level = order[static_cast<std::size_t>(k)];
    min_level = std::min(min_level, level);
    const std::int64_t at_least_k = last / radix_product;
    if (at_least_k == 0) break;  // no increment carries this deep.
    radix_product *= h.radix(level);
    const std::int64_t at_least_k1 = last / radix_product;
    cost += (at_least_k - at_least_k1) * (h.depth() - min_level);
  }
  return cost;
}

std::vector<double> pair_percentages_closed_form(const Hierarchy& h,
                                                 const Order& order,
                                                 std::int64_t comm_size) {
  expect_valid_block(h, order, comm_size);
  if (comm_size == 1) return {};  // no pairs: percentages are undefined.
  // agree(T) = number of x != y in [0, s)^2 whose permuted digits match at
  // every level in T, counted by a most-significant-first DP whose state is
  // which of (x, y) still sits on the s-1 bound. Both metrics only ever
  // need T = {levels < L} for L = 0..depth, and those sets are nested, so
  // the first-diff-level histogram is agree(S_L) - agree(S_{L+1}).
  const int depth = h.depth();
  // Permuted digits of s-1: the digit at position `pos` (pos 0 fastest) is
  // the bound below which a still-tight coordinate goes free in the DP.
  std::vector<std::int64_t> bound_digit(static_cast<std::size_t>(depth));
  {
    std::int64_t rest = comm_size - 1;
    for (int pos = 0; pos < depth; ++pos) {
      const int radix = h.radix(order[static_cast<std::size_t>(pos)]);
      bound_digit[static_cast<std::size_t>(pos)] = rest % radix;
      rest /= radix;
    }
  }
  const auto ordered_pairs_agreeing_below = [&](int level_bound) {
    using u128 = unsigned __int128;
    u128 both_tight = 1, one_tight = 0, both_free = 0;  // one_tight: x or y.
    for (int pos = depth - 1; pos >= 0; --pos) {
      const int level = order[static_cast<std::size_t>(pos)];
      const auto radix = static_cast<u128>(h.radix(level));
      const auto digit = static_cast<u128>(bound_digit[static_cast<std::size_t>(pos)]);
      if (level < level_bound) {
        // Digits must be equal: below the bound digit, both go free.
        both_free = both_free * radix + one_tight * digit + both_tight * digit;
        // both_tight and one_tight survive only on the bound digit itself.
      } else {
        // Digits independent: each tight coordinate picks < digit (goes
        // free) or == digit (stays tight); free coordinates pick anything.
        both_free = both_free * radix * radix + one_tight * digit * radix +
                    both_tight * digit * digit;
        one_tight = one_tight * radix + both_tight * digit * 2;
      }
    }
    const u128 ordered = both_tight + one_tight + both_free;
    return ordered - static_cast<u128>(comm_size);  // drop the x == y diagonal.
  };
  // counts[L] (outermost-first) = pairs agreeing at all levels < L but not
  // at L; halving the ordered counts yields the unordered pair counts the
  // reference kernel produces, so the doubles below are bit-identical.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(depth));
  unsigned __int128 agreeing = ordered_pairs_agreeing_below(0);
  const auto pairs =
      static_cast<std::int64_t>(agreeing / 2);  // s*(s-1)/2, checked to fit.
  MR_EXPECT(pairs >= 0 && static_cast<unsigned __int128>(pairs) * 2 == agreeing,
            "pair count overflows 64 bits");
  for (int level = 0; level < depth; ++level) {
    const unsigned __int128 next = ordered_pairs_agreeing_below(level + 1);
    counts[static_cast<std::size_t>(level)] =
        static_cast<std::int64_t>((agreeing - next) / 2);
    agreeing = next;
  }
  MR_ASSERT_INTERNAL(agreeing == 0);  // agreeing everywhere means x == y.
  std::vector<double> pct(static_cast<std::size_t>(depth));
  for (int level = 0; level < depth; ++level) {
    const auto lowest_first = static_cast<std::size_t>(depth - 1 - level);
    pct[lowest_first] =
        100.0 * static_cast<double>(counts[static_cast<std::size_t>(level)]) /
        static_cast<double>(pairs);
  }
  return pct;
}

std::string OrderCharacter::to_string() const {
  if (pair_pct.empty()) {
    return order_to_string(order) + " (" + std::to_string(ring_cost) + ")";
  }
  std::vector<std::string> pcts;
  pcts.reserve(pair_pct.size());
  for (double p : pair_pct) pcts.push_back(util::format_fixed(p, 1));
  return order_to_string(order) + " (" + std::to_string(ring_cost) + " - " +
         util::join(pcts, ", ") + ")";
}

OrderCharacter characterize_order(const Hierarchy& h, const Order& order,
                                  std::int64_t comm_size, MetricsImpl impl) {
  OrderCharacter out;
  out.order = order;
  if (impl == MetricsImpl::Fast) {
    out.ring_cost = ring_cost_closed_form(h, order, comm_size);
    out.pair_pct = pair_percentages_closed_form(h, order, comm_size);
  } else {
    const auto members = subcommunicator_coords(h, order, 0, comm_size);
    out.ring_cost = ring_cost(h, members);
    out.pair_pct = pair_percentages(h, members);
  }
  return out;
}

std::vector<OrderCharacter> characterize_orders(Engine& engine,
                                                const Hierarchy& h,
                                                const std::vector<Order>& orders,
                                                std::int64_t comm_size,
                                                int threads, MetricsImpl impl) {
  std::vector<OrderCharacter> out(orders.size());
  fan_out(engine, orders.size(), resolve_workers(threads), [&](std::size_t i) {
    out[i] = characterize_order(h, orders[i], comm_size, impl);
  });
  return out;
}

double spreadness(const Hierarchy& h, const std::vector<Coords>& members) {
  const auto pct = pair_percentages(h, members);
  // pct is lowest-first; a pair at lowest level crosses 0 extra levels,
  // a pair at the outermost crosses depth-1.
  double crossed = 0.0;
  for (std::size_t j = 0; j < pct.size(); ++j) {
    crossed += pct[j] / 100.0 * static_cast<double>(j);
  }
  return h.depth() > 1 ? crossed / static_cast<double>(h.depth() - 1) : 0.0;
}

}  // namespace mr
