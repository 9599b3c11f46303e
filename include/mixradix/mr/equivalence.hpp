// Order equivalence (§3.3): different orders can yield the same — or a
// performance-equivalent — mapping of subcommunicators, so evaluating all
// h! orders is redundant. E.g. on ⟦2,2,4⟧, orders [2,0,1] and [2,1,0] only
// swap which socket hosts which communicator; absent inter-communicator
// traffic they perform identically. Orders [0,1,2] and [1,0,2] place
// communicators on the same cores but number the ranks inside differently,
// which can matter for rank-order-sensitive collectives.
//
// We expose three granularities of "the same":
//  * ExactPlacement          — identical rank->core map (trivially equal);
//  * SameSetsAndInternal     — the multiset of (core sequence per comm) is
//                              equal, i.e. communicators may be exchanged
//                              but each keeps its internal rank order;
//  * SameSetsOnly            — the multiset of core *sets* is equal; the
//                              internal order may differ (the paper's
//                              "similar" orders, distinguishable by ring
//                              cost but not by pair percentages).
#pragma once

#include <cstdint>
#include <vector>

#include "mixradix/mr/hierarchy.hpp"
#include "mixradix/mr/metrics.hpp"
#include "mixradix/mr/permutation.hpp"

namespace mr {

class Engine;  // mixradix/engine/engine.hpp

enum class Equivalence {
  ExactPlacement,
  SameSetsAndInternal,
  SameSetsOnly,
};

/// One equivalence class of orders for a fixed (hierarchy, comm size).
struct OrderClass {
  std::vector<Order> members;     ///< lexicographically first is the representative.
  OrderCharacter representative;  ///< metrics of members.front().
};

/// The canonical signature classify_orders groups by, flattened: `order`'s
/// placement (the old core of each new rank) cut into blocks of comm_size
/// ranks, each block sorted at SameSetsOnly, the blocks sorted among
/// themselves unless ExactPlacement. Two orders share a class at
/// `granularity` iff their signatures are equal. Throws
/// mr::invalid_argument unless `order` permutes h's levels and comm_size
/// >= 1 divides h.total().
std::vector<std::int64_t> canonical_signature(const Hierarchy& h,
                                              const Order& order,
                                              std::int64_t comm_size,
                                              Equivalence granularity);

/// Kernel counters of one classification run (explore_orders prints them;
/// perfbench records them per layer). The hashed fast path hashes one
/// 128-bit signature per order and then proves every hash group sound by
/// comparing real signatures (collision_checks); hash_collisions counts
/// groups that had to be split because distinct signatures shared a hash —
/// expected to be 0, but handled correctly if it ever happens.
struct ClassifyStats {
  std::int64_t orders = 0;            ///< orders classified (= h!).
  std::int64_t classes = 0;           ///< equivalence classes found.
  std::int64_t signatures_hashed = 0; ///< pass-1 hashes (0 on the map path).
  std::int64_t collision_checks = 0;  ///< real-signature comparisons in pass 2.
  std::int64_t hash_collisions = 0;   ///< groups split on a real mismatch.
};

/// Partition all h.depth()! orders into equivalence classes at the given
/// granularity. Classes are sorted by their representative order.
/// Signature computation fans out over the engine's thread pool;
/// `threads`: 0 = util::ThreadPool::default_threads(), 1 = serial
/// in-thread (the pool is never touched), N = at most N concurrent
/// workers. The classification is identical for every thread count and
/// every engine.
///
/// `impl` selects the grouping machinery (byte-identical results either
/// way): MetricsImpl::Fast groups by a 128-bit signature hash computed
/// into per-slot flat buffers scoped to the call, verifies each group
/// against the real signatures, and characterizes representatives with the
/// closed-form kernels; MetricsImpl::Reference is the original
/// map-of-placement-vectors classifier kept as the differential baseline.
std::vector<OrderClass> classify_orders(Engine& engine, const Hierarchy& h,
                                        std::int64_t comm_size,
                                        Equivalence granularity, int threads = 0,
                                        MetricsImpl impl = MetricsImpl::Fast,
                                        ClassifyStats* stats = nullptr);

/// Representatives only — the reduced set of orders worth benchmarking.
std::vector<Order> distinct_orders(Engine& engine, const Hierarchy& h,
                                   std::int64_t comm_size,
                                   Equivalence granularity, int threads = 0,
                                   MetricsImpl impl = MetricsImpl::Fast);

/// Merge an ExactPlacement classification into a coarser granularity by
/// re-signing ONE representative per exact class (orders in an exact class
/// share a placement, hence every coarser signature). Equal to
/// classify_orders(h, comm_size, granularity) but with exact.size()
/// signature computations instead of h! — the cheap path for tools that
/// already hold the exact partition and want the coarser views too
/// (explore_orders). Characters are reused from the exact classes, never
/// recomputed. Precondition: `exact` is a classify_orders(...,
/// ExactPlacement, ...) result for the same (h, comm_size).
std::vector<OrderClass> coarsen_classes(const Hierarchy& h,
                                        std::int64_t comm_size,
                                        const std::vector<OrderClass>& exact,
                                        Equivalence granularity);

}  // namespace mr
