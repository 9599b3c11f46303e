#include "mixradix/mr/equivalence.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>

#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/util/expect.hpp"

namespace mr {

namespace {

using Key = std::vector<std::int64_t>;

// A key's first word says how it was formed; its second, how many words
// follow. A digit key never equals a signature key, and keys concatenated
// over several comm sizes (tune's stage 1) split back unambiguously.
constexpr std::int64_t kDigitTag = 0;
constexpr std::int64_t kSignatureTag = 1;

void validate(const Hierarchy& h, const Order& order, std::int64_t comm_size) {
  MR_EXPECT(static_cast<int>(order.size()) == h.depth() &&
                is_permutation_of_iota(order),
            "order must be a permutation of the hierarchy's levels");
  MR_EXPECT(comm_size >= 1 && h.total() % comm_size == 0,
            "communicator size must divide the number of processes");
}

Key tagged(std::int64_t tag, const Key& payload) {
  Key key{tag, static_cast<std::int64_t>(payload.size())};
  key.insert(key.end(), payload.begin(), payload.end());
  return key;
}

/// Where comm_size cuts the permuted space: the first `full` positions of
/// the order run through all their digits, and position `full` through m
/// of its values (m = 1: not at all).
struct Cut {
  int full = 0;
  std::int64_t m = 1;
  bool aligned = true;
};

Cut cut_of(const Hierarchy& h, const Order& order, std::int64_t comm_size) {
  Cut cut;
  std::int64_t p = 1;
  while (cut.full < h.depth() &&
         comm_size % (p * h.radix(order[static_cast<std::size_t>(cut.full)])) ==
             0) {
    p *= h.radix(order[static_cast<std::size_t>(cut.full++)]);
  }
  cut.m = comm_size / p;
  cut.aligned =
      cut.m == 1 ||
      h.radix(order[static_cast<std::size_t>(cut.full)]) % cut.m == 0;
  return cut;
}

/// The digit key of an aligned cut at a set granularity.
Key digit_key(const Order& order, const Cut& cut, Equivalence granularity) {
  Key key{kDigitTag, 0, cut.m};
  const auto full = static_cast<std::ptrdiff_t>(cut.full);
  key.insert(key.end(), order.begin(), order.begin() + full);
  if (granularity == Equivalence::SameSetsOnly) {
    std::sort(key.begin() + 3, key.end());
  }
  if (cut.m > 1) key.push_back(order[static_cast<std::size_t>(cut.full)]);
  key[1] = static_cast<std::int64_t>(key.size()) - 2;
  return key;
}

}  // namespace

std::vector<std::int64_t> canonical_signature(const Hierarchy& h,
                                              const Order& order,
                                              std::int64_t comm_size,
                                              Equivalence granularity) {
  validate(h, order, comm_size);
  Key placement = placement_of_new_ranks(h, order);
  if (granularity == Equivalence::ExactPlacement) return placement;
  const auto size = static_cast<std::ptrdiff_t>(comm_size);
  const auto block = [&](std::size_t c) {
    return placement.begin() + static_cast<std::ptrdiff_t>(c) * size;
  };
  const std::size_t ncomms = placement.size() / static_cast<std::size_t>(size);
  if (granularity == Equivalence::SameSetsOnly) {
    for (std::size_t c = 0; c < ncomms; ++c) {
      std::sort(block(c), block(c) + size);
    }
  }
  // Communicators are interchangeable: compare them as a multiset.
  std::vector<std::size_t> comms(ncomms);
  std::iota(comms.begin(), comms.end(), std::size_t{0});
  std::sort(comms.begin(), comms.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(block(a), block(a) + size, block(b),
                                        block(b) + size);
  });
  Key sig;
  sig.reserve(placement.size());
  for (const std::size_t c : comms) {
    sig.insert(sig.end(), block(c), block(c) + size);
  }
  return sig;
}

std::vector<std::int64_t> class_key(const Hierarchy& h, const Order& order,
                                    std::int64_t comm_size,
                                    Equivalence granularity) {
  validate(h, order, comm_size);
  if (granularity == Equivalence::ExactPlacement) {
    return tagged(kDigitTag, Key(order.begin(), order.end()));
  }
  const Cut cut = cut_of(h, order, comm_size);
  if (cut.aligned) return digit_key(order, cut, granularity);
  return tagged(kSignatureTag,
                canonical_signature(h, order, comm_size, granularity));
}

std::vector<std::int64_t> first_comm_key(const Hierarchy& h,
                                         const Order& order,
                                         std::int64_t comm_size) {
  validate(h, order, comm_size);
  const Cut cut = cut_of(h, order, comm_size);
  if (cut.aligned) {
    return digit_key(order, cut, Equivalence::SameSetsAndInternal);
  }
  Key first = placement_of_new_ranks(h, order);
  first.resize(static_cast<std::size_t>(comm_size));
  return tagged(kSignatureTag, first);
}

std::vector<OrderClass> classify_orders(Engine& engine, const Hierarchy& h,
                                        std::int64_t comm_size,
                                        Equivalence granularity, int threads,
                                        MetricsImpl impl, ClassifyStats* stats) {
  MR_EXPECT(comm_size >= 1 && h.total() % comm_size == 0,
            "communicator size must divide the number of processes");
  const unsigned workers = resolve_workers(threads);
  const std::vector<Order> orders = all_orders_lexicographic(h.depth());

  // One key per order (parallel), then grouping in lexicographic visit
  // order (serial): classes come out sorted by their first member, members
  // in lexicographic order, for every thread count.
  std::vector<Key> keys(orders.size());
  fan_out(engine, orders.size(), workers, [&](std::size_t i) {
    keys[i] = impl == MetricsImpl::Fast
                  ? class_key(h, orders[i], comm_size, granularity)
                  : canonical_signature(h, orders[i], comm_size, granularity);
  });
  std::vector<OrderClass> classes;
  std::map<Key, std::size_t> class_of;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const auto [it, inserted] =
        class_of.try_emplace(std::move(keys[i]), classes.size());
    if (inserted) classes.emplace_back();
    classes[it->second].members.push_back(orders[i]);
  }
  fan_out(engine, classes.size(), workers, [&](std::size_t c) {
    classes[c].representative =
        characterize_order(h, classes[c].members.front(), comm_size, impl);
  });
  if (stats != nullptr) {
    stats->orders = static_cast<std::int64_t>(orders.size());
    stats->classes = static_cast<std::int64_t>(classes.size());
  }
  return classes;
}

std::vector<Order> distinct_orders(Engine& engine, const Hierarchy& h,
                                   std::int64_t comm_size,
                                   Equivalence granularity, int threads,
                                   MetricsImpl impl) {
  std::vector<Order> out;
  for (const auto& cls :
       classify_orders(engine, h, comm_size, granularity, threads, impl)) {
    out.push_back(cls.members.front());
  }
  return out;
}

}  // namespace mr
