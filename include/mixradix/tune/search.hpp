// mr::tune — the mapping autotuner: "give me the best k enumeration orders
// for this workload, fast".
//
// The paper's order permutation shrinks the n! mapping space to h!, but h!
// still explodes at depth 7-8 (5040-40320 orders) and the sweep benches
// simulate all of them exhaustively. Process-mapping literature treats
// mapping as a search problem with pruning; this subsystem composes the
// library's existing ingredients into a multi-fidelity funnel over the h!
// orders:
//
//  * stage 0 — closed-form characterization: every candidate gets the
//    O(h^2) ring-cost / pair-percentage kernels (no simulation), for the
//    report legend and as the stream's tie-break.
//  * stage 1 — equivalence-class dedup: only one representative per class
//    of orders PROVEN to simulate byte-identically is ever considered.
//    Single-comm queries group by the first subcommunicator's core
//    sequence (the only thing the simulation sees); all-comms queries use
//    the hashed SameSetsAndInternal classifier, intersected across comm
//    sizes — sound because exact max-min timing (completion slack 0, the
//    tuner's default) is invariant under communicator exchange. At slack
//    > 0 the engine's completion merging is job-order sensitive, so
//    all-comms dedup falls back to ExactPlacement.
//  * stage 2 — two-tier branch-and-bound: every candidate gets the cheap
//    serialization floor (verify::binding::serialization_floor: per-
//    component byte sums, no routes, no DP) and the stream is sorted by
//    it; the static critical-path lower bound (verify::binding's DP, one
//    payload-lane pass per plan structure) runs lazily, in batches of
//    wave_size, only until the next wave's members are proven to be the
//    wave_size smallest DP bounds. Both are admissible at the simulated
//    slack via Bound::for_slack, and a floor never exceeds its DP bound,
//    so the waves, pruning and ranking are exactly those of a stream
//    sorted by DP bounds outright. Once the smallest remaining bound
//    strictly exceeds the current k-th best simulated score, every
//    remaining candidate is discarded without running FlowSim. The strict
//    inequality keeps exact ties simulable, so the returned ranking equals
//    the exhaustive one even under lexicographic tie-breaking.
//  * stage 3 — full timed simulation of the survivors: one
//    harness::run_microbench per (candidate, point), the same protocol
//    point run_sweep runs, fanned over the engine's thread pool in
//    FIXED-SIZE waves with deterministic in-order merge: the set of
//    simulated candidates, the DP batches and every byte of the report
//    are identical for any thread count and any fresh or reused Engine.
//
// The search is *anytime*: a point/seconds budget (mixradix/tune/budget.hpp)
// returns the best-so-far ranking with `exhausted: false`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/metrics.hpp"
#include "mixradix/mr/permutation.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/topo/machine.hpp"
#include "mixradix/tune/budget.hpp"

namespace mr {
class Engine;  // mixradix/engine/engine.hpp
}  // namespace mr

namespace mr::tune {

/// §4.1's two experiment shapes: the collective in the first
/// subcommunicator only, or in all subcommunicators simultaneously.
enum class Concurrency { SingleComm, AllComms };

/// One cell of the workload: a collective at one communicator size and one
/// total payload. A query's points are the cross product of its
/// collectives x comm_sizes x total_bytes lists; the tuning objective is
/// the SUM over points of the simulated makespan.
struct QueryPoint {
  simmpi::Collective collective = simmpi::Collective::Alltoall;
  std::int64_t comm_size = 0;
  std::int64_t total_bytes = 0;

  std::string to_string() const;
};

struct TuneQuery {
  std::vector<simmpi::Collective> collectives = {simmpi::Collective::Alltoall};
  std::vector<std::int64_t> comm_sizes;            ///< each >= 2, divides cores.
  std::vector<std::int64_t> total_bytes = {8ll << 20};
  Concurrency concurrency = Concurrency::AllComms;
  int k = 3;               ///< orders to return.
  int repetitions = 2;     ///< back-to-back ops per point (steady state).
  /// Tuner default 0 (exact max-min timing): keeps the all-comms dedup at
  /// SameSetsAndInternal byte-identical and the lower bound undeflated.
  /// Matching a slack-merged sweep costs both (see the header comment).
  /// Must lie in [0, 0.5), like the flow simulator's.
  double completion_slack = 0.0;
  Budget budget;
  /// Worker threads (0 = ThreadPool::default_threads(), 1 = serial). The
  /// report is byte-identical for every value.
  int threads = 0;
  /// Candidates simulated per wave. The k-th best only updates between
  /// waves, so larger waves prune less; the value is part of the query —
  /// NOT derived from the thread count — to keep reports thread-invariant.
  int wave_size = 16;
};

/// How a candidate left the funnel (per-candidate provenance).
enum class Fate : std::int8_t {
  Simulated,  ///< stage 3 ran; `score` is the simulated objective.
  Pruned,     ///< stage 2: lower bound strictly above the k-th best score.
  Skipped,    ///< budget exhausted before this candidate was reached.
};
std::string_view fate_name(Fate fate);

/// One equivalence class of orders moving through the funnel. `members`
/// records the dedup provenance: every member order simulates
/// byte-identically to the representative, so the class's score speaks for
/// all of them.
struct TuneCandidate {
  Order order;                    ///< representative (lexicographic min).
  OrderCharacter character;       ///< stage-0 metrics (at comm_sizes[0]).
  std::vector<Order> members;     ///< the whole class, sorted.
  /// Stage-2 bound, summed over points in point order: the critical-path
  /// DP sum for every candidate the DP tier refined, which includes every
  /// simulated one; the serialization-floor sum for the rest.
  double lower_bound = 0;
  double score = 0;               ///< sum of point makespans (Simulated only).
  /// One run_microbench per query point, in point order (Simulated only);
  /// `score` sums their makespans in that order.
  std::vector<harness::MicrobenchResult> points;
  Fate fate = Fate::Skipped;
  int wave = -1;                  ///< stage-3 wave index (Simulated only).
};

/// Search statistics — the funnel's accounting, and the numbers the
/// ≥5x-fewer-FlowSim-invocations claim is measured by.
struct TuneStats {
  std::int64_t orders = 0;        ///< h! orders in scope.
  std::int64_t classes = 0;       ///< candidates after stage-1 dedup.
  /// Always 0: the search drops no candidate before stage 2. Not in
  /// write_json; kept only for callers that still add it to the accounting.
  std::int64_t screened_out = 0;
  /// Stage-2 serialization floors: one per candidate.
  std::int64_t bounds_computed = 0;
  std::int64_t pruned = 0;        ///< stage-2 discards.
  std::int64_t simulated = 0;     ///< candidates that reached stage 3.
  std::int64_t sim_points = 0;    ///< FlowSim invocations actually run.
  /// FlowSim invocations exhaustive enumeration would have run
  /// (h! x points); sim_points vs this is the funnel's saving.
  std::int64_t exhaustive_points = 0;
  std::int64_t budget_skipped = 0;
  /// Stage-2 critical-path lane passes (one validation, route resolution
  /// and DP pass each) and the extra payload lanes those passes served:
  /// points whose plans share a structure ride one pass. built + reuses ==
  /// refined candidates x points. Kept out of write_json so the canonical
  /// document stays comparable with reports written before them.
  std::int64_t bound_structures_built = 0;
  std::int64_t bound_structure_reuses = 0;
  mr::ClassifyStats classify;     ///< stage-1 hashed-classifier counters.
  /// True iff the funnel ran to completion; false = budget truncation, the
  /// ranking is best-so-far (anytime semantics).
  bool exhausted = true;
  /// Wall clock of the whole search / of stage 2's bounds, both tiers
  /// (floors and DP batches). Excluded from write_json so reports stay
  /// byte-comparable across runs.
  double elapsed_seconds = 0;
  double bound_seconds = 0;
};

struct TuneReport {
  std::string machine;
  std::string hierarchy;             ///< paper rendering, e.g. "[2, 2, 4]".
  TuneQuery query;
  std::vector<QueryPoint> points;    ///< expanded cross product.
  /// Every candidate in stream order (serialization floor ascending, then
  /// ring cost and order), with full per-candidate provenance.
  std::vector<TuneCandidate> candidates;
  /// Indices into `candidates`: the top-k simulated orders, ranked by
  /// (score, representative order) — exactly the exhaustive ranking when
  /// the search ran to exhaustion.
  std::vector<std::size_t> top;
  TuneStats stats;
};

/// Run the funnel through `engine`: plans from its cache, survivor
/// simulations through harness::run_microbench, stages fanned over its
/// thread pool. Throws mr::invalid_argument, before any stage runs, on
/// malformed queries: empty point lists, comm sizes not dividing the core
/// count, non-positive payloads, k, repetitions or wave size, a slack
/// outside [0, 0.5), negative threads or point budget, or a negative or
/// non-finite seconds budget.
TuneReport tune(Engine& engine, const topo::Machine& machine,
                const TuneQuery& query);

/// Collective <-> name, for CLIs and reports: "alltoall", "allgather",
/// "allreduce", "bcast", "reduce", "reduce_scatter", "gather", "scatter",
/// "scan", "barrier". parse throws mr::invalid_argument on unknown names.
simmpi::Collective parse_collective(std::string_view name);
std::string_view collective_name(simmpi::Collective collective);

}  // namespace mr::tune
