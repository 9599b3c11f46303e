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

/// The canonical signature of `order`, flattened: its placement (the old
/// core of each new rank) cut into blocks of comm_size ranks, each block
/// sorted at SameSetsOnly, the blocks sorted among themselves unless
/// ExactPlacement. Two orders share a class at `granularity` iff their
/// signatures are equal. The ground truth class_key is tested against, and
/// its fallback where comm_size cuts the permuted space inside a digit.
/// Throws mr::invalid_argument unless `order` permutes h's levels and
/// comm_size >= 1 divides h.total().
std::vector<std::int64_t> canonical_signature(const Hierarchy& h,
                                              const Order& order,
                                              std::int64_t comm_size,
                                              Equivalence granularity);

/// The key classify_orders groups by: two orders share a class at
/// `granularity` iff their keys are equal, as they are iff their
/// canonical_signatures are. O(h), read off the order's leading digits.
/// order[0] varies fastest, so a communicator is the block of new ranks
/// that runs through the permuted digits order[0..i-1] (radix product P)
/// and m = comm_size / P values of digit order[i], where i is the first
/// position at which P * radix(order[i]) no longer divides comm_size. The
/// cut is aligned iff m == 1 or m divides radix(order[i]); then the key is
///  * ExactPlacement: the order itself (every radix is >= 2, so distinct
///    orders never share a placement; this needs no alignment);
///  * SameSetsAndInternal: m and the sequence order[0..i], or
///    order[0..i-1] when m == 1;
///  * SameSetsOnly: m, the set of order[0..i-1], then order[i] if m > 1.
/// An unaligned order's key is its canonical_signature. Every key is
/// tagged (digits or signature) and length-prefixed, so a digit key never
/// equals a signature key and concatenated keys stay unambiguous. Throws
/// as canonical_signature does.
std::vector<std::int64_t> class_key(const Hierarchy& h, const Order& order,
                                    std::int64_t comm_size,
                                    Equivalence granularity);

/// The same for the first communicator alone (new ranks [0, comm_size),
/// the block whose higher digits are all 0): two orders' keys are equal
/// iff that communicator has the same core sequence under both. An
/// aligned order's key is its SameSetsAndInternal class_key, which fixes
/// that sequence; an unaligned order's key is the tagged sequence itself.
std::vector<std::int64_t> first_comm_key(const Hierarchy& h,
                                         const Order& order,
                                         std::int64_t comm_size);

/// Counters of one classification run (perfbench records them per layer).
struct ClassifyStats {
  std::int64_t orders = 0;   ///< orders classified (= h!).
  std::int64_t classes = 0;  ///< equivalence classes found.
};

/// Partition all h.depth()! orders into equivalence classes at the given
/// granularity. Classes are sorted by their representative order, the
/// members of each lexicographically. Keys and characters fan out over
/// the engine's thread pool; `threads`: 0 =
/// util::ThreadPool::default_threads(), 1 = serial in-thread (the pool is
/// never touched), N = at most N concurrent workers. The classification
/// is identical for every thread count and every engine.
///
/// `impl` selects the machinery (byte-identical results either way):
/// MetricsImpl::Fast groups by class_key and characterizes representatives
/// with the closed-form kernels; MetricsImpl::Reference groups by
/// canonical_signature (every placement materialised) and characterizes
/// with the brute-force kernels, the differential baseline.
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

}  // namespace mr
