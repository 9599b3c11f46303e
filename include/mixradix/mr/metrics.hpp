// Mapping metrics from §3.3 of the paper: the ring cost and the
// percentages of process pairs per level.
//
// Both metrics characterise how one subcommunicator lands on the machine
// under a given enumeration order, without running anything:
//  * ring cost — cost of the chain rank0 -> rank1 -> ... -> rank_{p-1},
//    where a hop inside the lowest level costs 1 and each additional
//    hierarchy level crossed adds 1. Low = ranks assigned sequentially
//    (locality in ring-like algorithms); high = round-robin assignment.
//  * pairs per level — for every unordered pair of comm members, the
//    innermost hierarchy level whose component contains both; reported as
//    percentages from the lowest level to the outermost. High percentages
//    at low levels = packed mapping; at the outermost level = spread.
//
// The figure legends of the paper (e.g. "0-1-2-3 (60 - 0.0, 0.0, 0.0,
// 100.0)") are exactly these two metrics and serve as golden values in the
// test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mixradix/mr/decompose.hpp"
#include "mixradix/mr/hierarchy.hpp"
#include "mixradix/mr/permutation.hpp"

namespace mr {

class Engine;  // mixradix/engine/engine.hpp

/// Which metric kernels to run. Fast kernels exploit that a
/// subcommunicator is a CONTIGUOUS block of new ranks in the permuted
/// mixed-radix space, so both metrics are combinatorial functions of
/// (radices, order, comm size): ring cost is an O(h) carry-counting sum
/// and pair percentages an O(h^2) digit DP — no placement vector, no
/// O(s^2) pair scan. Reference kernels walk the materialised placement;
/// they are the ground truth for differential tests (the same pattern as
/// FlowSim's reference completion scan). Both produce bit-identical
/// results.
enum class MetricsImpl {
  Fast,       ///< closed-form kernels (default).
  Reference,  ///< brute-force O(s^2 h) kernels over explicit coordinates.
};

/// Communication cost between two cores identified by coordinates: 1 if
/// they share the lowest-level component, +1 per extra level crossed
/// (depth - first-differing-level). Cost 0 iff same core.
int hop_cost(const Hierarchy& h, const Coords& a, const Coords& b);

/// Index of the innermost level whose component contains both cores:
/// depth-1 if they share the lowest-level component, 0 if they only share
/// the machine (differ already at the outermost level). Precondition: a != b.
int innermost_common_level(const Hierarchy& h, const Coords& a, const Coords& b);

/// Ring cost of a communicator whose member i runs on the core with
/// coordinates `members[i]` (comm-rank order; no wrap-around hop).
/// A singleton communicator has no hops: cost 0.
std::int64_t ring_cost(const Hierarchy& h, const std::vector<Coords>& members);

/// Percentages of process pairs per level, from LOWEST level to OUTERMOST
/// (the order used in the paper's legends). Size = h.depth(); sums to 100.
/// A singleton communicator has no pairs: the result is empty.
std::vector<double> pair_percentages(const Hierarchy& h,
                                     const std::vector<Coords>& members);

/// Closed-form ring cost of the FIRST subcommunicator (comm-ranks 0..s-1
/// under `order`), equal to ring_cost() over subcommunicator_coords(...,0,s)
/// but computed in O(h) without materialising any placement. Derivation:
/// consecutive new ranks differ by a mixed-radix increment in the permuted
/// base; an increment whose k fastest permuted digits roll over changes
/// exactly the levels {order[0..k]}, so it costs depth - min(order[0..k]),
/// and the number of increments with at least k carries among the s-1 hops
/// is floor((s-1) / prod(radix(order[0..k-1]))).
std::int64_t ring_cost_closed_form(const Hierarchy& h, const Order& order,
                                   std::int64_t comm_size);

/// Closed-form pair percentages of the first subcommunicator, equal to
/// pair_percentages() over subcommunicator_coords(..., 0, s) but computed
/// in O(h^2) via a digit DP over the permuted radices instead of the
/// O(s^2) pair scan: the number of pairs whose first-differing level is L
/// is agree(levels < L) - agree(levels <= L), where agree(T) counts pairs
/// in [0, s) with equal digits at every level in T — a 3-state
/// (tight/tight, tight/free, free/free) bounded-counting DP.
std::vector<double> pair_percentages_closed_form(const Hierarchy& h,
                                                 const Order& order,
                                                 std::int64_t comm_size);

/// Coordinates of the cores hosting subcommunicator `comm_index` when
/// world ranks are reordered under `order` and split into consecutive
/// blocks of `comm_size` reordered ranks (§3.2's quotient coloring).
/// Element j is the core of comm-rank j.
///
/// Note: §4.1 of the paper writes the split color as "reordered_rank %
/// subcomm_size"; that conflicts with §3.2 ("quotient of the division")
/// and with Fig. 2's coloring, so we follow the quotient definition.
std::vector<Coords> subcommunicator_coords(const Hierarchy& h, const Order& order,
                                           std::int64_t comm_index,
                                           std::int64_t comm_size);

/// Ring cost + pair percentages of one order, computed on the first
/// subcommunicator — the tuple printed in the paper's figure legends.
struct OrderCharacter {
  Order order;
  std::int64_t ring_cost = 0;
  std::vector<double> pair_pct;  ///< lowest level -> outermost.

  /// Legend rendering: "1-3-2-0 (45 - 46.7, 0.0, 53.3, 0.0)"; a
  /// singleton communicator (empty pair_pct) renders as "1-3-2-0 (0)".
  std::string to_string() const;
};

/// Both implementations produce bit-identical characters (enforced by the
/// ClosedForm and DigitClassifier tests); Fast is O(h^2) per order,
/// Reference materialises the placement and scans all pairs.
OrderCharacter characterize_order(const Hierarchy& h, const Order& order,
                                  std::int64_t comm_size,
                                  MetricsImpl impl = MetricsImpl::Fast);

/// Characterize a batch of orders (e.g. all h! of them), chunked across
/// the engine's thread pool. Element i describes orders[i], independent of
/// the thread count. `threads`: 0 = util::ThreadPool::default_threads(),
/// 1 = serial in-thread (the pool is never touched), N = at most N
/// concurrent workers; negative throws mr::invalid_argument.
std::vector<OrderCharacter> characterize_orders(Engine& engine,
                                                const Hierarchy& h,
                                                const std::vector<Order>& orders,
                                                std::int64_t comm_size,
                                                int threads = 0,
                                                MetricsImpl impl = MetricsImpl::Fast);

/// Scalar "spreadness" in [0, 1]: expected fraction of levels crossed per
/// pair (0 = fully packed, 1 = every pair crosses every level). Handy for
/// sorting orders in exploration tools.
double spreadness(const Hierarchy& h, const std::vector<Coords>& members);

}  // namespace mr
