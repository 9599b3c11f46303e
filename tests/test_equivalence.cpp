// Order equivalence classes (§3.3's "similar orders" discussion).
#include "mixradix/mr/equivalence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

namespace mr {
namespace {

// §3.3's worked example on [2,2,4] with communicators of 4:
// [2,0,1] and [2,1,0] map communicators to the same core sets (only
// exchanging whole communicators); [0,1,2] and [1,0,2] share core sets but
// differ in the internal rank order.
TEST(Equivalence, PaperExamplesOnFig2) {
  Engine engine;
  const Hierarchy h{2, 2, 4};

  const auto same_sets =
      classify_orders(engine, h, 4, Equivalence::SameSetsOnly);
  const auto class_of = [&](const Order& order) -> const OrderClass* {
    for (const auto& cls : same_sets) {
      for (const auto& member : cls.members) {
        if (member == order) return &cls;
      }
    }
    return nullptr;
  };
  EXPECT_EQ(class_of({2, 0, 1}), class_of({2, 1, 0}));
  EXPECT_EQ(class_of({0, 1, 2}), class_of({1, 0, 2}));
  EXPECT_NE(class_of({0, 1, 2}), class_of({2, 1, 0}));

  // At the finer granularity, [0,1,2] and [1,0,2] separate (their ring
  // costs are 9 vs 7) while [2,0,1] and [2,1,0] stay together (each
  // communicator keeps its internal order; only the sockets swap).
  const auto internal =
      classify_orders(engine, h, 4, Equivalence::SameSetsAndInternal);
  const auto class_of_internal = [&](const Order& order) -> const OrderClass* {
    for (const auto& cls : internal) {
      for (const auto& member : cls.members) {
        if (member == order) return &cls;
      }
    }
    return nullptr;
  };
  EXPECT_NE(class_of_internal({0, 1, 2}), class_of_internal({1, 0, 2}));
  EXPECT_EQ(class_of_internal({2, 0, 1}), class_of_internal({2, 1, 0}));
}

TEST(Equivalence, GranularitiesAreNested) {
  Engine engine;
  const Hierarchy h{2, 2, 4};
  for (std::int64_t comm_size : {2, 4, 8}) {
    const auto exact =
        classify_orders(engine, h, comm_size, Equivalence::ExactPlacement);
    const auto internal =
        classify_orders(engine, h, comm_size, Equivalence::SameSetsAndInternal);
    const auto sets =
        classify_orders(engine, h, comm_size, Equivalence::SameSetsOnly);
    EXPECT_GE(exact.size(), internal.size());
    EXPECT_GE(internal.size(), sets.size());
    // Every order appears in exactly one class at each granularity.
    for (const auto& classes : {exact, internal, sets}) {
      std::set<Order> seen;
      for (const auto& cls : classes) {
        for (const auto& member : cls.members) {
          EXPECT_TRUE(seen.insert(member).second);
        }
      }
      EXPECT_EQ(static_cast<long long>(seen.size()), factorial(h.depth()));
    }
  }
}

TEST(Equivalence, ExactPlacementMergesOrdersWithIdenticalMaps) {
  // On [2,2,4], exact placement classes number fewer than 3! = 6 only when
  // two orders produce the same map — which never happens for distinct
  // radix patterns... with equal radices at two levels it can. Check a
  // hierarchy with repeated radices where swapping equal levels changes
  // the map anyway (levels are positional, not value-based).
  Engine engine;
  const Hierarchy h{2, 2, 2};
  const auto exact = classify_orders(engine, h, 2, Equivalence::ExactPlacement);
  std::size_t members = 0;
  for (const auto& cls : exact) members += cls.members.size();
  EXPECT_EQ(members, 6u);
}

TEST(Equivalence, DistinctOrdersReturnsRepresentatives) {
  Engine engine;
  const Hierarchy h{16, 2, 2, 8};
  const auto reps =
      distinct_orders(engine, h, 16, Equivalence::SameSetsAndInternal);
  EXPECT_LT(reps.size(), 24u);  // must actually deduplicate
  EXPECT_GE(reps.size(), 6u);
  const std::set<Order> unique(reps.begin(), reps.end());
  EXPECT_EQ(unique.size(), reps.size());
}

TEST(Equivalence, RepresentativeMetricsMatchMembers) {
  // Pair percentages are a class invariant at SameSetsOnly granularity.
  Engine engine;
  const Hierarchy h{2, 2, 4};
  for (const auto& cls :
       classify_orders(engine, h, 4, Equivalence::SameSetsOnly)) {
    for (const auto& member : cls.members) {
      EXPECT_EQ(characterize_order(h, member, 4).pair_pct,
                cls.representative.pair_pct)
          << order_to_string(member);
    }
  }
}

TEST(Equivalence, ValidatesCommSize) {
  Engine engine;
  const Hierarchy h{2, 2, 4};
  EXPECT_THROW(classify_orders(engine, h, 3, Equivalence::SameSetsOnly),
               invalid_argument);
  EXPECT_THROW(classify_orders(engine, h, 0, Equivalence::SameSetsOnly),
               invalid_argument);
}

TEST(Equivalence, RejectsNegativeThreads) {
  Engine engine;
  const Hierarchy h{2, 2, 4};
  EXPECT_THROW(classify_orders(engine, h, 4, Equivalence::SameSetsOnly, -1),
               invalid_argument);
}

constexpr Equivalence kGranularities[] = {Equivalence::ExactPlacement,
                                          Equivalence::SameSetsAndInternal,
                                          Equivalence::SameSetsOnly};

// Byte-level equality of two classifications: same classes in the same
// order, same members, and bit-identical representative characters.
void expect_same_classes(const std::vector<OrderClass>& a,
                         const std::vector<OrderClass>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members) << "class " << i;
    EXPECT_EQ(a[i].representative.order, b[i].representative.order);
    EXPECT_EQ(a[i].representative.ring_cost, b[i].representative.ring_cost);
    EXPECT_EQ(a[i].representative.pair_pct, b[i].representative.pair_pct);
  }
}

// The digit-key classifier must reproduce the map-based reference exactly —
// including on a depth-6 hierarchy with repeated radices and a comm size
// (4) that cuts inside its radix-3 digits, and for every granularity.
TEST(DigitClassifier, MatchesReferenceClassifier) {
  Engine engine;
  struct Case {
    Hierarchy hierarchy;
    std::vector<std::int64_t> comm_sizes;
  };
  const std::vector<Case> cases = {
      {Hierarchy{2, 2, 4}, {2, 4, 8, 16}},
      {Hierarchy{16, 2, 2, 8}, {16, 128}},
      {Hierarchy{2, 2, 2, 3, 3, 4}, {4, 24, 288}},  // depth 6, 288 procs
  };
  for (const auto& c : cases) {
    for (const std::int64_t comm_size : c.comm_sizes) {
      for (const Equivalence granularity : kGranularities) {
        ClassifyStats fast_stats;
        const auto fast =
            classify_orders(engine, c.hierarchy, comm_size, granularity, 1,
                            MetricsImpl::Fast, &fast_stats);
        ClassifyStats ref_stats;
        const auto ref =
            classify_orders(engine, c.hierarchy, comm_size, granularity, 1,
                            MetricsImpl::Reference, &ref_stats);
        expect_same_classes(fast, ref);

        const long long orders = factorial(c.hierarchy.depth());
        EXPECT_EQ(fast_stats.orders, orders);
        EXPECT_EQ(fast_stats.classes, static_cast<long long>(fast.size()));
        EXPECT_EQ(ref_stats.orders, orders);
        EXPECT_EQ(ref_stats.classes, static_cast<long long>(ref.size()));
      }
    }
  }
}

// Determinism guarantee under TSan: the keys and the characters fan out
// over the shared pool, yet the classification must be byte-identical to
// the serial path for every granularity and both kernel impls — up to
// depth 7 at the granularity the tuner dedups all-comms queries by.
TEST(DigitClassifier, DeterministicAcrossThreadCounts) {
  Engine engine;
  struct Input {
    Hierarchy h;
    std::int64_t comm_size;
    std::vector<Equivalence> granularities;
  };
  const Input inputs[] = {
      {Hierarchy{2, 2, 2, 3, 3, 4},  // 720 orders
       24,
       {std::begin(kGranularities), std::end(kGranularities)}},
      {Hierarchy{4, 2, 2, 2, 2, 2, 8},  // 5040 orders, 1024 processes
       64,
       {Equivalence::SameSetsAndInternal}},
  };
  for (const Input& in : inputs) {
    for (const Equivalence granularity : in.granularities) {
      const auto serial = classify_orders(engine, in.h, in.comm_size,
                                          granularity, 1, MetricsImpl::Fast);
      const auto threaded = classify_orders(engine, in.h, in.comm_size,
                                            granularity, 4, MetricsImpl::Fast);
      expect_same_classes(serial, threaded);
      const auto ref_threaded =
          classify_orders(engine, in.h, in.comm_size, granularity, 4,
                          MetricsImpl::Reference);
      expect_same_classes(serial, ref_threaded);
    }
  }
}

TEST(DigitClassifier, SingletonCommunicatorsClassify) {
  // comm_size 1: every communicator is one core, so the core-set multiset
  // is the whole machine for every order — a single class at both set
  // granularities — while exact placement still separates orders.
  Engine engine;
  const Hierarchy h{2, 2, 4};
  for (const MetricsImpl impl : {MetricsImpl::Fast, MetricsImpl::Reference}) {
    const auto sets =
        classify_orders(engine, h, 1, Equivalence::SameSetsOnly, 0, impl);
    ASSERT_EQ(sets.size(), 1u);
    EXPECT_EQ(sets[0].members.size(), 6u);
    EXPECT_EQ(sets[0].representative.ring_cost, 0);
    EXPECT_TRUE(sets[0].representative.pair_pct.empty());
    const auto internal = classify_orders(
        engine, h, 1, Equivalence::SameSetsAndInternal, 0, impl);
    EXPECT_EQ(internal.size(), 1u);
    const auto exact =
        classify_orders(engine, h, 1, Equivalence::ExactPlacement, 0, impl);
    EXPECT_EQ(exact.size(), 6u);
  }
}

TEST(DigitClassifier, DistinctOrdersAgreesAcrossImpls) {
  Engine engine;
  const Hierarchy h{16, 2, 2, 8};
  EXPECT_EQ(
      distinct_orders(engine, h, 16, Equivalence::SameSetsAndInternal, 0,
                      MetricsImpl::Fast),
      distinct_orders(engine, h, 16, Equivalence::SameSetsAndInternal, 0,
                      MetricsImpl::Reference));
}

// The exposed canonical signature is the placement itself, cut into
// communicators and canonicalised per granularity; class_key is tested
// against it and falls back to it, so it must equal the direct
// construction from placement_of_new_ranks for every order.
TEST(CanonicalSignature, IsThePlacementCutIntoCommunicators) {
  for (const Hierarchy& h :
       {Hierarchy{2, 2, 4}, Hierarchy{2, 2, 2, 8}, Hierarchy{3, 2, 4}}) {
    for (const Order& order : all_orders_lexicographic(h.depth())) {
      const std::vector<std::int64_t> placement =
          placement_of_new_ranks(h, order);
      for (std::int64_t comm_size = 1; comm_size <= h.total(); ++comm_size) {
        if (h.total() % comm_size != 0) continue;
        std::vector<std::vector<std::int64_t>> internal, sets;
        for (auto it = placement.begin(); it != placement.end();
             it += comm_size) {
          internal.emplace_back(it, it + comm_size);
          sets.push_back(internal.back());
          std::sort(sets.back().begin(), sets.back().end());
        }
        std::sort(internal.begin(), internal.end());
        std::sort(sets.begin(), sets.end());
        const auto flat = [](const std::vector<std::vector<std::int64_t>>& v) {
          std::vector<std::int64_t> out;
          for (const auto& block : v) {
            out.insert(out.end(), block.begin(), block.end());
          }
          return out;
        };
        const std::string at =
            order_to_string(order) + " comm " + std::to_string(comm_size);
        EXPECT_EQ(canonical_signature(h, order, comm_size,
                                      Equivalence::ExactPlacement),
                  placement)
            << at;
        EXPECT_EQ(canonical_signature(h, order, comm_size,
                                      Equivalence::SameSetsAndInternal),
                  flat(internal))
            << at;
        EXPECT_EQ(canonical_signature(h, order, comm_size,
                                      Equivalence::SameSetsOnly),
                  flat(sets))
            << at;
      }
    }
  }
  const Hierarchy h{2, 2, 4};
  EXPECT_THROW(canonical_signature(h, {0, 1, 2}, 3, Equivalence::ExactPlacement),
               invalid_argument);
  EXPECT_THROW(canonical_signature(h, {0, 1}, 4, Equivalence::ExactPlacement),
               invalid_argument);
  EXPECT_THROW(canonical_signature(h, {0, 1, 1}, 4, Equivalence::ExactPlacement),
               invalid_argument);
}

/// Numbers each order by the first order whose key equals its own, in
/// lexicographic order: two key functions partition the orders alike iff
/// their label vectors are equal.
template <class KeyFn>
std::vector<std::size_t> labels_by(const std::vector<Order>& orders,
                                   const KeyFn& key_of) {
  std::map<decltype(key_of(orders.front())), std::size_t> first;
  std::vector<std::size_t> labels;
  labels.reserve(orders.size());
  for (const Order& order : orders) {
    labels.push_back(first.try_emplace(key_of(order), first.size()).first->second);
  }
  return labels;
}

/// A canonical signature in 16 bits per core, so that the depth-8 tree's
/// 40,320 placements fit in a map.
std::vector<std::uint16_t> packed(const std::vector<std::int64_t>& sig) {
  return {sig.begin(), sig.end()};
}

/// Whether comm_size cuts the permuted space at a digit boundary (the rule
/// class_key documents): the fastest digits cover P | comm_size, and the
/// remaining m = comm_size / P is 1 or divides the next radix.
bool aligned(const Hierarchy& h, const Order& order, std::int64_t comm_size) {
  std::int64_t p = 1;
  std::size_t i = 0;
  while (i < order.size() && comm_size % (p * h.radix(order[i])) == 0) {
    p *= h.radix(order[i++]);
  }
  const std::int64_t m = comm_size / p;
  return m == 1 || h.radix(order[i]) % m == 0;
}

// The O(h) digit keys partition the orders exactly as the canonical
// signatures do, at every granularity and for the first communicator
// alone: on every preset shape, the depth-8 binary tree, and mixed radices
// whose comm sizes cut inside a digit (⟦3,2,4⟧ at 2, ⟦6,4⟧, ⟦4,6,2⟧), where
// aligned orders and unaligned ones (which fall back to the signature)
// share one partition.
TEST(ClassKey, PartitionsOrdersAsTheCanonicalSignatureDoes) {
  struct Case {
    Hierarchy h;
    std::vector<std::int64_t> comm_sizes;  ///< empty: every divisor.
  };
  const std::vector<Case> cases = {
      {topo::testbox().hierarchy(), {}},
      {topo::hydra(2).hierarchy(), {}},
      {topo::hydra(16).hierarchy(), {}},
      {topo::hydra_node().hierarchy(), {}},
      {topo::lumi(2).hierarchy(), {}},
      {topo::lumi_node().hierarchy(), {}},
      {topo::generic(3, 2, 6).hierarchy(), {}},
      {Hierarchy{2, 2, 2, 2, 2, 2, 2, 2}, {16}},
      {Hierarchy{3, 2, 4}, {}},
      {Hierarchy{6, 4}, {}},
      {Hierarchy{4, 6, 2}, {}},
  };
  int mixed = 0;
  for (const Case& c : cases) {
    const Hierarchy& h = c.h;
    ASSERT_LE(h.total(), 1 << 16);
    const std::vector<Order> orders = all_orders_lexicographic(h.depth());
    std::vector<std::int64_t> sizes = c.comm_sizes;
    for (std::int64_t s = 1; c.comm_sizes.empty() && s <= h.total(); ++s) {
      if (h.total() % s == 0) sizes.push_back(s);
    }
    for (const std::int64_t comm_size : sizes) {
      const std::string at = h.to_string() + " comm " + std::to_string(comm_size);
      std::size_t unaligned = 0;
      for (const Order& order : orders) {
        unaligned += aligned(h, order, comm_size) ? 0 : 1;
      }
      if (unaligned != 0 && unaligned != orders.size()) ++mixed;
      for (const Equivalence granularity : kGranularities) {
        EXPECT_EQ(labels_by(orders,
                            [&](const Order& o) {
                              return class_key(h, o, comm_size, granularity);
                            }),
                  labels_by(orders,
                            [&](const Order& o) {
                              return packed(canonical_signature(
                                  h, o, comm_size, granularity));
                            }))
            << at << " granularity " << static_cast<int>(granularity);
      }
      EXPECT_EQ(labels_by(orders,
                          [&](const Order& o) {
                            return first_comm_key(h, o, comm_size);
                          }),
                labels_by(orders,
                          [&](const Order& o) {
                            std::vector<std::int64_t> first =
                                placement_of_new_ranks(h, o);
                            first.resize(static_cast<std::size_t>(comm_size));
                            return first;
                          }))
          << at << " first communicator";
    }
  }
  // ⟦3,2,4⟧ at 2, ⟦6,4⟧ at 4 and 8, ⟦4,6,2⟧ at 4, 8, ... mix both kinds.
  EXPECT_GE(mixed, 3);
}

TEST(ClassKey, RejectsBadOrdersAndCommSizes) {
  const Hierarchy h{2, 2, 4};
  for (const Equivalence granularity : kGranularities) {
    EXPECT_THROW(class_key(h, {0, 1, 2}, 3, granularity), invalid_argument);
    EXPECT_THROW(class_key(h, {0, 1, 2}, 0, granularity), invalid_argument);
    EXPECT_THROW(class_key(h, {0, 1}, 4, granularity), invalid_argument);
    EXPECT_THROW(class_key(h, {0, 1, 1}, 4, granularity), invalid_argument);
  }
  EXPECT_THROW(first_comm_key(h, {0, 1, 2}, 32), invalid_argument);
  EXPECT_THROW(first_comm_key(h, {2, 1, 0, 3}, 4), invalid_argument);
}

// §3.3's worked example read off the digits: on ⟦2,2,4⟧ with
// communicators of 4, [2,0,1] and [2,1,0] both run through the radix-4
// level first, so they share the SameSetsAndInternal key; [0,1,2] and
// [1,0,2] run through levels {0, 1} in different sequences, so they share
// only the SameSetsOnly key.
TEST(ClassKey, ReadsThePaperExampleOffTheDigits) {
  const Hierarchy h{2, 2, 4};
  const auto key = [&](const Order& order, Equivalence granularity) {
    return class_key(h, order, 4, granularity);
  };
  EXPECT_EQ(key({2, 0, 1}, Equivalence::SameSetsAndInternal),
            key({2, 1, 0}, Equivalence::SameSetsAndInternal));
  EXPECT_NE(key({0, 1, 2}, Equivalence::SameSetsAndInternal),
            key({1, 0, 2}, Equivalence::SameSetsAndInternal));
  EXPECT_EQ(key({0, 1, 2}, Equivalence::SameSetsOnly),
            key({1, 0, 2}, Equivalence::SameSetsOnly));
  EXPECT_NE(key({0, 1, 2}, Equivalence::SameSetsOnly),
            key({2, 1, 0}, Equivalence::SameSetsOnly));
  EXPECT_EQ(first_comm_key(h, {2, 0, 1}, 4), first_comm_key(h, {2, 1, 0}, 4));
  EXPECT_NE(first_comm_key(h, {0, 1, 2}, 4), first_comm_key(h, {1, 0, 2}, 4));
}

// Where the comm size cuts the permuted space at a digit boundary the key
// holds a tag, a length, m and at most h levels, never a placement: on the
// preset shapes, whose radices nest, every order at every comm size.
TEST(ClassKey, StaysOrderSizedWhereTheCutIsAligned) {
  for (const topo::Machine& machine :
       {topo::testbox(), topo::hydra(16), topo::lumi(2)}) {
    const Hierarchy& h = machine.hierarchy();
    const auto most = static_cast<std::size_t>(h.depth()) + 3;
    for (const Order& order : all_orders_lexicographic(h.depth())) {
      for (std::int64_t comm_size = 1; comm_size <= h.total(); ++comm_size) {
        if (h.total() % comm_size != 0) continue;
        ASSERT_TRUE(aligned(h, order, comm_size));
        for (const Equivalence granularity : kGranularities) {
          EXPECT_LE(class_key(h, order, comm_size, granularity).size(), most);
        }
        EXPECT_LE(first_comm_key(h, order, comm_size).size(), most);
      }
    }
  }
}

// Every radix is >= 2, so no two orders share a placement: the
// ExactPlacement partition is h! singletons, even with repeated radices
// and comm sizes that cut inside a digit.
TEST(ClassKey, ExactPlacementSeparatesEveryOrder) {
  Engine engine;
  for (const Hierarchy& h : {Hierarchy{2, 2, 2, 2}, Hierarchy{3, 2, 4},
                             Hierarchy{2, 2, 2, 3, 3, 4}}) {
    for (const std::int64_t comm_size : {std::int64_t{1}, std::int64_t{4}}) {
      const auto exact =
          classify_orders(engine, h, comm_size, Equivalence::ExactPlacement, 1,
                          MetricsImpl::Reference);
      EXPECT_EQ(static_cast<long long>(exact.size()), factorial(h.depth()))
          << h.to_string() << " comm " << comm_size;
    }
  }
}

}  // namespace
}  // namespace mr
