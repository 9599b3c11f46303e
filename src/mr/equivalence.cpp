#include "mixradix/mr/equivalence.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/util/expect.hpp"

namespace mr {

namespace {

using CommSequence = std::vector<std::int64_t>;   // core ids in comm-rank order
using Signature = std::vector<CommSequence>;      // sorted multiset of comms

Signature signature_of(const Hierarchy& h, const Order& order,
                       std::int64_t comm_size, Equivalence granularity) {
  const auto placement = placement_of_new_ranks(h, order);
  const std::int64_t ncomms = h.total() / comm_size;
  Signature sig;
  sig.reserve(static_cast<std::size_t>(ncomms));
  for (std::int64_t c = 0; c < ncomms; ++c) {
    CommSequence seq(static_cast<std::size_t>(comm_size));
    for (std::int64_t j = 0; j < comm_size; ++j) {
      seq[static_cast<std::size_t>(j)] =
          placement[static_cast<std::size_t>(c * comm_size + j)];
    }
    if (granularity == Equivalence::SameSetsOnly) {
      std::sort(seq.begin(), seq.end());
    }
    sig.push_back(std::move(seq));
  }
  if (granularity != Equivalence::ExactPlacement) {
    // Communicators are interchangeable: compare as a multiset.
    std::sort(sig.begin(), sig.end());
  }
  return sig;
}

// ---- Map-based reference classifier (the pre-hashing baseline) -------------

std::vector<OrderClass> classify_reference(Engine& engine, const Hierarchy& h,
                                           std::int64_t comm_size,
                                           Equivalence granularity,
                                           unsigned workers,
                                           ClassifyStats* stats) {
  // Phase 1 (parallel): one signature per order, indexed slots. Phase 2
  // (serial): bucket in lexicographic visit order, so class membership
  // lists and representatives are independent of the thread count.
  const std::vector<Order> orders = all_orders_lexicographic(h.depth());
  std::vector<Signature> signatures(orders.size());
  fan_out(engine, orders.size(), workers, [&](std::size_t i) {
    signatures[i] = signature_of(h, orders[i], comm_size, granularity);
  });

  std::map<Signature, std::vector<Order>> buckets;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    buckets[std::move(signatures[i])].push_back(orders[i]);
  }

  std::vector<OrderClass> classes;
  classes.reserve(buckets.size());
  for (auto& [sig, members] : buckets) {
    OrderClass cls;
    cls.members = std::move(members);  // lexicographic within each bucket
    classes.push_back(std::move(cls));
  }
  // Phase 3 (parallel): metrics of each representative, with the
  // brute-force kernels — this path is the differential baseline and keeps
  // the original cost profile.
  fan_out(engine, classes.size(), workers, [&](std::size_t c) {
    classes[c].representative = characterize_order(
        h, classes[c].members.front(), comm_size, MetricsImpl::Reference);
  });
  std::sort(classes.begin(), classes.end(),
            [](const OrderClass& a, const OrderClass& b) {
              return a.members.front() < b.members.front();
            });
  if (stats != nullptr) {
    stats->orders = static_cast<std::int64_t>(orders.size());
    stats->classes = static_cast<std::int64_t>(classes.size());
  }
  return classes;
}

// ---- Hashed fast classifier ------------------------------------------------
//
// Two parallel passes over reusable flat per-thread buffers:
//  1. a 128-bit signature hash per order (no placement materialised: an
//     odometer over the permuted radices yields core ids incrementally, and
//     multiset hashing replaces the canonicalising sorts);
//  2. per hash group, prove the grouping sound by comparing the members'
//     REAL canonical signatures — each order builds its placement exactly
//     once here — and characterize the representative with the closed-form
//     kernels.
// Grouping happens serially in lexicographic visit order, so members,
// representatives and class order are byte-identical to the map-based
// classifier for every thread count.

std::uint64_t mix64(std::uint64_t z) {
  // SplitMix64's finalizer (util::SplitMix64 keeps the additive state).
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const Hash128&, const Hash128&) = default;
};

struct Hash128Key {
  std::size_t operator()(const Hash128& h) const noexcept {
    return static_cast<std::size_t>(h.lo);  // already mixed.
  }
};

/// Reusable per-slot workspace: every buffer is resized once per
/// classification geometry and then reused across the orders this slot's
/// thread processes — the per-order allocation churn of the map-based path
/// (placement vector + nested signature vectors per order) is gone. One
/// Scratch per fan_out_slots slot, owned by the classification call itself
/// (the old `static thread_local` pinned this memory to pool threads for
/// the life of the process and leaked state across engines).
struct Scratch {
  std::vector<int> digits;               ///< odometer digits, per position.
  std::vector<int> pos_radix;            ///< radix of each permuted position.
  std::vector<std::int64_t> pos_weight;  ///< core-id weight of each position.
  std::vector<std::int64_t> placement;   ///< old core of each new rank.
  std::vector<std::int64_t> sig;         ///< canonical flattened signature.
  std::vector<std::int32_t> comm_order;  ///< comm block sort permutation.
};

/// Prime the odometer for `order`: position i (fastest-varying) holds the
/// digit of level order[i], whose contribution to the old core id is
/// digit * (leaves below that level).
void init_walk(Scratch& s, const Hierarchy& h, const Order& order) {
  const int depth = h.depth();
  s.digits.assign(static_cast<std::size_t>(depth), 0);
  s.pos_radix.resize(static_cast<std::size_t>(depth));
  s.pos_weight.resize(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    const int level = order[static_cast<std::size_t>(i)];
    s.pos_radix[static_cast<std::size_t>(i)] = h.radix(level);
    s.pos_weight[static_cast<std::size_t>(i)] = h.leaves_below(level + 1);
  }
}

/// Advance the odometer by one new rank, returning the next old core id
/// (amortised O(1): a carry into position k happens every prod-radix
/// increments).
std::int64_t advance_walk(Scratch& s, std::int64_t core) {
  std::size_t i = 0;
  while (s.digits[i] == s.pos_radix[i] - 1) {
    core -= static_cast<std::int64_t>(s.digits[i]) * s.pos_weight[i];
    s.digits[i] = 0;
    ++i;
  }
  ++s.digits[i];
  return core + s.pos_weight[i];
}

constexpr std::uint64_t kSaltLo = 0x8f9c3a5b1d2e4f60ull;
constexpr std::uint64_t kSaltHi = 0x1b873593c2b2ae35ull;

/// 128-bit signature hash of one order, walking the permuted space once.
/// Interchangeable structure (communicators at every granularity except
/// ExactPlacement, members within a communicator at SameSetsOnly) is
/// hashed commutatively (wrapping sums of mixed words), ordered structure
/// with a chained mix — so no sorting is needed to canonicalise.
Hash128 signature_hash(const Hierarchy& h, const Order& order,
                       std::int64_t comm_size, Equivalence granularity,
                       Scratch& s) {
  init_walk(s, h, order);
  const std::int64_t ncomms = h.total() / comm_size;
  Hash128 sig;
  std::int64_t core = 0;
  for (std::int64_t c = 0; c < ncomms; ++c) {
    std::uint64_t comm_lo = 0;
    std::uint64_t comm_hi = 0;
    for (std::int64_t j = 0; j < comm_size; ++j) {
      if (c != 0 || j != 0) core = advance_walk(s, core);
      const auto word = static_cast<std::uint64_t>(core);
      if (granularity == Equivalence::SameSetsOnly) {
        comm_lo += mix64(word ^ kSaltLo);  // member multiset: wrapping sum.
        comm_hi += mix64(word ^ kSaltHi);
      } else {
        comm_lo = mix64(comm_lo ^ word ^ kSaltLo);  // member sequence: chain.
        comm_hi = mix64(comm_hi ^ word ^ kSaltHi);
      }
    }
    comm_lo = mix64(comm_lo);  // decorrelate before the outer combine.
    comm_hi = mix64(comm_hi);
    if (granularity == Equivalence::ExactPlacement) {
      sig.lo = mix64(sig.lo ^ comm_lo);  // comm sequence: chain.
      sig.hi = mix64(sig.hi ^ comm_hi);
    } else {
      sig.lo += comm_lo;  // comm multiset: wrapping sum.
      sig.hi += comm_hi;
    }
  }
  return sig;
}

/// Build the canonical flattened signature of `order` into s.sig: the
/// placement split into comm blocks, each block sorted at SameSetsOnly,
/// blocks sorted among themselves unless ExactPlacement. Equal s.sig <=>
/// equal signature_of() — this is the ground truth the hash groups are
/// verified against.
void build_canonical_signature(const Hierarchy& h, const Order& order,
                               std::int64_t comm_size, Equivalence granularity,
                               Scratch& s) {
  const std::int64_t total = h.total();
  const std::int64_t ncomms = total / comm_size;
  init_walk(s, h, order);
  s.placement.resize(static_cast<std::size_t>(total));
  std::int64_t core = 0;
  for (std::int64_t r = 0; r < total; ++r) {
    if (r != 0) core = advance_walk(s, core);
    s.placement[static_cast<std::size_t>(r)] = core;
  }
  if (granularity == Equivalence::SameSetsOnly) {
    for (std::int64_t c = 0; c < ncomms; ++c) {
      const auto begin = s.placement.begin() +
                         static_cast<std::ptrdiff_t>(c * comm_size);
      std::sort(begin, begin + static_cast<std::ptrdiff_t>(comm_size));
    }
  }
  if (granularity == Equivalence::ExactPlacement) {
    s.sig = s.placement;
    return;
  }
  s.comm_order.resize(static_cast<std::size_t>(ncomms));
  for (std::int64_t c = 0; c < ncomms; ++c) {
    s.comm_order[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(c);
  }
  const auto* base = s.placement.data();
  std::sort(s.comm_order.begin(), s.comm_order.end(),
            [&](std::int32_t a, std::int32_t b) {
              return std::lexicographical_compare(
                  base + a * comm_size, base + (a + 1) * comm_size,
                  base + b * comm_size, base + (b + 1) * comm_size);
            });
  s.sig.resize(static_cast<std::size_t>(total));
  auto* out = s.sig.data();
  for (std::int64_t c = 0; c < ncomms; ++c) {
    const auto* block = base + s.comm_order[static_cast<std::size_t>(c)] *
                                   comm_size;
    out = std::copy(block, block + comm_size, out);
  }
}

/// Classes produced from one hash group, plus its verification counters.
struct GroupResult {
  std::vector<OrderClass> classes;
  std::int64_t collision_checks = 0;
  std::int64_t hash_collisions = 0;
};

std::vector<OrderClass> classify_hashed(Engine& engine, const Hierarchy& h,
                                        std::int64_t comm_size,
                                        Equivalence granularity,
                                        unsigned workers,
                                        ClassifyStats* stats) {
  const std::vector<Order> orders = all_orders_lexicographic(h.depth());
  const std::size_t norders = orders.size();

  // Call-scoped scratch, one per fan_out_slots slot: freed when the
  // classification returns, never pinned to pool threads or shared across
  // engines. Pass 2 fans out over at most norders groups, so it needs no
  // more slots than pass 1.
  std::vector<Scratch> scratch(fan_out_slot_count(engine, norders, workers));

  // Pass 1 (parallel): one 128-bit hash per order.
  std::vector<Hash128> hashes(norders);
  fan_out_slots(engine, norders, workers, [&](unsigned slot, std::size_t i) {
    hashes[i] = signature_hash(h, orders[i], comm_size, granularity,
                               scratch[slot]);
  });

  // Group (serial, lexicographic visit order): members of each group stay
  // sorted, and the first member is the candidate representative.
  std::unordered_map<Hash128, std::uint32_t, Hash128Key> group_of;
  group_of.reserve(norders * 2);
  std::vector<std::vector<std::uint32_t>> groups;
  for (std::size_t i = 0; i < norders; ++i) {
    const auto [it, inserted] =
        group_of.try_emplace(hashes[i], static_cast<std::uint32_t>(groups.size()));
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(static_cast<std::uint32_t>(i));
  }

  // Pass 2 (parallel over groups): verify each group against the real
  // signatures — splitting it if the hash ever merged distinct signatures
  // — and characterize representatives via the closed-form kernels.
  std::vector<GroupResult> results(groups.size());
  const auto verify_group = [&](unsigned slot, std::size_t g) {
    const auto& members = groups[g];
    GroupResult& result = results[g];
    Scratch& s = scratch[slot];
    // Sub-buckets by real signature, in first-occurrence (= lexicographic)
    // order. A clean group has exactly one.
    std::vector<std::vector<std::int64_t>> bucket_sigs;
    std::vector<std::vector<Order>> bucket_members;
    if (members.size() == 1) {
      // Nothing to merge, so nothing to verify.
      bucket_members.push_back({orders[members.front()]});
    } else {
      for (const std::uint32_t idx : members) {
        build_canonical_signature(h, orders[idx], comm_size, granularity, s);
        std::size_t bucket = bucket_sigs.size();
        for (std::size_t b = 0; b < bucket_sigs.size(); ++b) {
          ++result.collision_checks;
          if (bucket_sigs[b] == s.sig) {
            bucket = b;
            break;
          }
        }
        if (bucket == bucket_sigs.size()) {
          bucket_sigs.push_back(s.sig);
          bucket_members.emplace_back();
        }
        bucket_members[bucket].push_back(orders[idx]);
      }
      result.hash_collisions =
          static_cast<std::int64_t>(bucket_sigs.size()) - 1;
    }
    result.classes.reserve(bucket_members.size());
    for (auto& cls_members : bucket_members) {
      OrderClass cls;
      cls.members = std::move(cls_members);
      cls.representative = characterize_order(h, cls.members.front(),
                                              comm_size, MetricsImpl::Fast);
      result.classes.push_back(std::move(cls));
    }
  };
  fan_out_slots(engine, groups.size(), workers, verify_group);

  std::vector<OrderClass> classes;
  classes.reserve(groups.size());
  std::int64_t collision_checks = 0;
  std::int64_t hash_collisions = 0;
  for (auto& result : results) {
    collision_checks += result.collision_checks;
    hash_collisions += result.hash_collisions;
    for (auto& cls : result.classes) classes.push_back(std::move(cls));
  }
  std::sort(classes.begin(), classes.end(),
            [](const OrderClass& a, const OrderClass& b) {
              return a.members.front() < b.members.front();
            });
  if (stats != nullptr) {
    stats->orders = static_cast<std::int64_t>(norders);
    stats->classes = static_cast<std::int64_t>(classes.size());
    stats->signatures_hashed = static_cast<std::int64_t>(norders);
    stats->collision_checks = collision_checks;
    stats->hash_collisions = hash_collisions;
  }
  return classes;
}

}  // namespace

std::vector<std::int64_t> canonical_signature(const Hierarchy& h,
                                              const Order& order,
                                              std::int64_t comm_size,
                                              Equivalence granularity) {
  MR_EXPECT(static_cast<int>(order.size()) == h.depth() &&
                is_permutation_of_iota(order),
            "order must be a permutation of the hierarchy's levels");
  MR_EXPECT(comm_size >= 1 && h.total() % comm_size == 0,
            "communicator size must divide the number of processes");
  Scratch s;
  build_canonical_signature(h, order, comm_size, granularity, s);
  return std::move(s.sig);
}

std::vector<OrderClass> classify_orders(Engine& engine, const Hierarchy& h,
                                        std::int64_t comm_size,
                                        Equivalence granularity, int threads,
                                        MetricsImpl impl, ClassifyStats* stats) {
  MR_EXPECT(comm_size >= 1 && h.total() % comm_size == 0,
            "communicator size must divide the number of processes");
  const unsigned workers = resolve_workers(threads);
  ClassifyStats local;
  std::vector<OrderClass> classes =
      impl == MetricsImpl::Fast
          ? classify_hashed(engine, h, comm_size, granularity, workers, &local)
          : classify_reference(engine, h, comm_size, granularity, workers,
                               &local);
  if (stats != nullptr) *stats = local;
  return classes;
}

std::vector<OrderClass> coarsen_classes(const Hierarchy& h,
                                        std::int64_t comm_size,
                                        const std::vector<OrderClass>& exact,
                                        Equivalence granularity) {
  // Bucket the exact classes by the coarser signature of their
  // representative. Visiting them in input order (sorted by representative)
  // makes the first contributor of each bucket the one holding the merged
  // class's lexicographically smallest member, so its character transfers
  // to the merged class unchanged.
  std::map<Signature, std::size_t> bucket_of;
  std::vector<OrderClass> classes;
  for (const OrderClass& cls : exact) {
    MR_EXPECT(!cls.members.empty(), "exact class without members");
    const Signature sig =
        signature_of(h, cls.members.front(), comm_size, granularity);
    const auto [it, inserted] = bucket_of.try_emplace(sig, classes.size());
    if (inserted) {
      classes.push_back(cls);
      continue;
    }
    OrderClass& merged = classes[it->second];
    merged.members.insert(merged.members.end(), cls.members.begin(),
                          cls.members.end());
  }
  for (OrderClass& cls : classes) {
    std::sort(cls.members.begin(), cls.members.end());
  }
  std::sort(classes.begin(), classes.end(),
            [](const OrderClass& a, const OrderClass& b) {
              return a.members.front() < b.members.front();
            });
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
