// Order equivalence classes (§3.3's "similar orders" discussion).
#include "mixradix/mr/equivalence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/decompose.hpp"
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

// The hashed two-pass classifier must reproduce the map-based reference
// exactly — including on a depth-6 hierarchy with repeated radices (the
// regime the hash path exists for) and for every granularity.
TEST(HashedClassifier, MatchesReferenceClassifier) {
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
        EXPECT_EQ(fast_stats.signatures_hashed, orders);
        EXPECT_EQ(fast_stats.classes, static_cast<long long>(fast.size()));
        EXPECT_EQ(fast_stats.hash_collisions, 0);
        EXPECT_EQ(ref_stats.orders, orders);
        EXPECT_EQ(ref_stats.signatures_hashed, 0);  // map path: no hashing
      }
    }
  }
}

// Determinism guarantee under TSan: the pass-1 hash and pass-2 verify fan
// out over the shared pool, yet the classification must be byte-identical
// to the serial path for every granularity and both kernel impls — up to
// depth 7 at the granularity the tuner dedups all-comms queries by.
TEST(HashedClassifier, DeterministicAcrossThreadCounts) {
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

TEST(HashedClassifier, SingletonCommunicatorsClassify) {
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

TEST(HashedClassifier, DistinctOrdersAgreesAcrossImpls) {
  Engine engine;
  const Hierarchy h{16, 2, 2, 8};
  EXPECT_EQ(
      distinct_orders(engine, h, 16, Equivalence::SameSetsAndInternal, 0,
                      MetricsImpl::Fast),
      distinct_orders(engine, h, 16, Equivalence::SameSetsAndInternal, 0,
                      MetricsImpl::Reference));
}

void expect_classes_equal(const std::vector<OrderClass>& got,
                          const std::vector<OrderClass>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].members, want[c].members) << "class " << c;
    EXPECT_EQ(got[c].representative.order, want[c].representative.order);
    EXPECT_EQ(got[c].representative.ring_cost,
              want[c].representative.ring_cost);
    EXPECT_EQ(got[c].representative.pair_pct, want[c].representative.pair_pct);
  }
}

TEST(CoarsenClasses, MatchesDirectClassificationAtBothGranularities) {
  Engine engine;
  for (const Hierarchy& h : {Hierarchy{2, 2, 4}, Hierarchy{2, 2, 2, 4}}) {
    for (const std::int64_t comm_size : {h.total() / 2, h.total()}) {
      const auto exact =
          classify_orders(engine, h, comm_size, Equivalence::ExactPlacement);
      for (const Equivalence coarser :
           {Equivalence::SameSetsAndInternal, Equivalence::SameSetsOnly}) {
        expect_classes_equal(
            coarsen_classes(h, comm_size, exact, coarser),
            classify_orders(engine, h, comm_size, coarser));
      }
    }
  }
}

// The exposed canonical signature is the placement itself, cut into
// communicators and canonicalised per granularity; harness::sound_class_key
// builds the sweep's dedup key from it, so it must equal the direct
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

TEST(CoarsenClasses, ExactGranularityIsIdentity) {
  Engine engine;
  const Hierarchy h{2, 2, 4};
  const auto exact = classify_orders(engine, h, 4, Equivalence::ExactPlacement);
  expect_classes_equal(
      coarsen_classes(h, 4, exact, Equivalence::ExactPlacement), exact);
}

}  // namespace
}  // namespace mr
