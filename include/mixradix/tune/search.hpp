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
//  * stage 0 — closed-form metric screening: every candidate is
//    characterized with the O(h^2) ring-cost / pair-percentage kernels (no
//    simulation); an optional `screen_keep` cap drops the heuristically
//    worst candidates (forfeiting exactness — off by default).
//  * stage 1 — equivalence-class dedup: only one representative per class
//    of orders PROVEN to simulate byte-identically is ever considered.
//    Single-comm queries group by the first subcommunicator's core
//    sequence (the only thing the simulation sees); all-comms queries use
//    the hashed SameSetsAndInternal classifier, intersected across comm
//    sizes — sound because exact max-min timing (completion slack 0, the
//    tuner's default) is invariant under communicator exchange. At slack
//    > 0 the engine's completion merging is job-order sensitive, so
//    all-comms dedup falls back to ExactPlacement.
//  * stage 2 — branch-and-bound pruning: candidates are sorted by the
//    static critical-path lower bound (verify::binding, admissible at the
//    simulated slack via Bound::for_slack; points sharing a plan structure
//    are bounded in one payload-lane pass); once a candidate's bound
//    strictly exceeds the current k-th best simulated score, it and every
//    candidate after it are discarded without running FlowSim. The strict
//    inequality keeps exact ties simulable, so the returned ranking equals
//    the exhaustive one even under lexicographic tie-breaking.
//  * stage 3 — full timed simulation of the survivors through the engine's
//    plan cache and per-slot workspaces leased from its pool, fanned over
//    its thread pool in FIXED-SIZE waves with deterministic in-order merge:
//    the set of simulated candidates and every byte of the report are
//    identical for any --threads=N and any engine (shared or private).
//
// The search is *anytime*: a point/seconds budget (mixradix/tune/budget.hpp)
// returns the best-so-far ranking with `exhausted: false`. The candidate
// stream is shardable (`shard_index`/`shard_count` partition the class list;
// order_index_lexicographic anchors orders in the stream) for future
// distributed runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
  double completion_slack = 0.0;
  Budget budget;
  /// Worker threads (0 = ThreadPool::default_threads(), 1 = serial). The
  /// report is byte-identical for every value.
  int threads = 0;
  /// Candidates simulated per wave. The k-th best only updates between
  /// waves, so larger waves prune less; the value is part of the query —
  /// NOT derived from the thread count — to keep reports thread-invariant.
  int wave_size = 16;
  /// Stage-0 heuristic cap: keep only the `screen_keep` candidates with
  /// the lowest ring cost (packed first). 0 = keep all (exact search).
  std::int64_t screen_keep = 0;
  bool dedup = true;   ///< stage 1; off = every order its own candidate.
  bool prune = true;   ///< stage 2; off = simulate every candidate.
  bool use_plan_cache = true;  ///< resolve plans through the engine's cache.
  /// Shard `shard_index` of `shard_count` over the candidate stream: after
  /// dedup, candidate i (in representative-lexicographic order) belongs to
  /// shard i % shard_count. Shards partition the candidates exactly.
  int shard_index = 0;
  int shard_count = 1;
};

/// Simulated outcome of one (candidate, point) cell.
struct PointResult {
  double makespan = 0;        ///< completion of the last communicator.
  double mean_bandwidth = 0;  ///< total_bytes / per-op seconds, comm mean.
};

/// How a candidate left the funnel (per-candidate provenance).
enum class Fate : std::int8_t {
  Simulated,  ///< stage 3 ran; `score` is the simulated objective.
  Pruned,     ///< stage 2: lower bound strictly above the k-th best score.
  Screened,   ///< stage 0: dropped by the screen_keep heuristic cap.
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
  double lower_bound = 0;         ///< stage-2 bound, summed over points.
  double score = 0;               ///< sum of point makespans (Simulated only).
  std::vector<PointResult> points;  ///< per query point (Simulated only).
  Fate fate = Fate::Skipped;
  int wave = -1;                  ///< stage-3 wave index (Simulated only).
};

/// Search statistics — the funnel's accounting, and the numbers the
/// ≥5x-fewer-FlowSim-invocations claim is measured by.
struct TuneStats {
  std::int64_t orders = 0;        ///< h! orders in scope.
  std::int64_t classes = 0;       ///< candidates after stage-1 dedup.
  std::int64_t shard_classes = 0; ///< candidates owned by this shard.
  std::int64_t screened_out = 0;  ///< stage-0 heuristic drops.
  std::int64_t bounds_computed = 0;
  std::int64_t pruned = 0;        ///< stage-2 discards.
  std::int64_t simulated = 0;     ///< candidates that reached stage 3.
  std::int64_t sim_points = 0;    ///< FlowSim invocations actually run.
  /// FlowSim invocations exhaustive enumeration would have run
  /// (h! x points); sim_points vs this is the funnel's saving.
  std::int64_t exhaustive_points = 0;
  std::int64_t budget_skipped = 0;
  /// Stage-2 lane passes (one validation, route resolution and DP pass
  /// each) and the extra payload lanes those passes served: points whose
  /// plans share a structure ride one pass. built + reuses ==
  /// bounds_computed x points. Kept out of write_json so the canonical
  /// document stays comparable with reports written before them.
  std::int64_t bound_structures_built = 0;
  std::int64_t bound_structure_reuses = 0;
  /// Candidates simulated as wave 0 from a previous report's ranking
  /// (incremental re-tune); 0 on a cold run. Deterministic, in write_json.
  std::int64_t seeded_candidates = 0;
  mr::ClassifyStats classify;     ///< stage-1 hashed-classifier counters.
  /// True iff the funnel ran to completion; false = budget truncation, the
  /// ranking is best-so-far (anytime semantics).
  bool exhausted = true;
  /// Wall clock of the whole search / of stage 2's bound computation.
  /// Excluded from write_json so reports stay byte-comparable across runs.
  double elapsed_seconds = 0;
  double bound_seconds = 0;
};

struct TuneReport {
  std::string machine;
  std::string hierarchy;             ///< paper rendering, e.g. "[2, 2, 4]".
  TuneQuery query;
  std::vector<QueryPoint> points;    ///< expanded cross product.
  /// Every candidate of this shard in funnel order (stage-2 bound
  /// ascending), with full per-candidate provenance.
  std::vector<TuneCandidate> candidates;
  /// Indices into `candidates`: the top-k simulated orders, ranked by
  /// (score, representative order) — exactly the exhaustive ranking when
  /// the search ran unscreened to exhaustion.
  std::vector<std::size_t> top;
  TuneStats stats;
};

/// Run the funnel through `engine`: plans from its cache, survivor
/// simulations on workspaces leased from its pool, stages fanned over its
/// thread pool, and the funnel's totals rolled into Engine::Stats. Throws
/// mr::invalid_argument on malformed queries (empty point lists, comm sizes
/// not dividing the core count, bad shard spec).
///
/// Incremental re-tune: when `previous` is a report whose query is
/// compatible with this one (same machine/hierarchy, same concurrency,
/// repetitions and completion slack, unsharded, and the previous point grid
/// is a SUBSET of the new one), the previous winners are re-simulated first
/// as wave 0, so branch-and-bound starts with k real incumbents and prunes
/// from the first wave. The top-k set and ranking are EXACTLY the cold
/// run's — seeds carry true new-grid scores and pruning keeps its strict
/// admissible cut — only the simulated-candidate count shrinks. An
/// incompatible or null `previous` degenerates to a cold run byte for byte.
TuneReport tune(Engine& engine, const topo::Machine& machine,
                const TuneQuery& query, const TuneReport* previous);
TuneReport tune(Engine& engine, const topo::Machine& machine,
                const TuneQuery& query);
/// Backward-compat shim: tune through Engine::shared().
TuneReport tune(const topo::Machine& machine, const TuneQuery& query);

/// Collective <-> name, for CLIs and reports: "alltoall", "allgather",
/// "allreduce", "bcast", "reduce", "reduce_scatter", "gather", "scatter",
/// "scan", "barrier". parse throws mr::invalid_argument on unknown names.
simmpi::Collective parse_collective(std::string_view name);
std::string_view collective_name(simmpi::Collective collective);

}  // namespace mr::tune
