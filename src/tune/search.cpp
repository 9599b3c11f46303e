#include "mixradix/tune/search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/simnet/route_table.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/util/thread_pool.hpp"
#include "mixradix/verify/binding.hpp"

namespace mr::tune {

namespace {

struct CollectiveName {
  std::string_view name;
  simmpi::Collective collective;
};

constexpr CollectiveName kCollectives[] = {
    {"alltoall", simmpi::Collective::Alltoall},
    {"allgather", simmpi::Collective::Allgather},
    {"allreduce", simmpi::Collective::Allreduce},
    {"bcast", simmpi::Collective::Bcast},
    {"reduce", simmpi::Collective::Reduce},
    {"reduce_scatter", simmpi::Collective::ReduceScatter},
    {"gather", simmpi::Collective::Gather},
    {"scatter", simmpi::Collective::Scatter},
    {"scan", simmpi::Collective::Scan},
    {"barrier", simmpi::Collective::Barrier},
};

/// Resolve the `threads` knob (same contract as the sweep engine).
unsigned resolve_workers(int threads) {
  MR_EXPECT(threads >= 0, "threads must be non-negative");
  return threads > 0 ? static_cast<unsigned>(threads)
                     : util::ThreadPool::default_threads();
}

/// Indexed parallel_for_slots with the serial fallback every entry point
/// uses: results land in pre-sized slots, so output never depends on the
/// worker count; `fn(slot, i)` may keep per-slot scratch (slot < workers).
/// Serial queries never touch the pool.
template <typename Fn>
void fan_out_slots(Engine& engine, std::size_t n, unsigned workers,
                   const Fn& fn) {
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0u, i);
  } else {
    engine.thread_pool().parallel_for_slots(n, fn, workers);
  }
}

template <typename Fn>
void fan_out(Engine& engine, std::size_t n, unsigned workers, const Fn& fn) {
  fan_out_slots(engine, n, workers,
                [&fn](unsigned /*slot*/, std::size_t i) { fn(i); });
}

harness::MicrobenchConfig point_config(const TuneQuery& query,
                                       const QueryPoint& point,
                                       const Order& order) {
  harness::MicrobenchConfig mb;
  mb.order = order;
  mb.comm_size = point.comm_size;
  mb.collective = point.collective;
  mb.total_bytes = point.total_bytes;
  mb.all_comms = query.concurrency == Concurrency::AllComms;
  mb.repetitions = query.repetitions;
  mb.completion_slack = query.completion_slack;
  return mb;
}

// ---- Stage 1: sound dedup ---------------------------------------------------
//
// A class may share one simulation only if every member is BYTE-identical
// to the representative under the query's exact configuration:
//  * SingleComm — the engine sees nothing but the first subcommunicator's
//    core sequence, so that sequence (concatenated over the query's comm
//    sizes) is the complete simulation input; grouping by it is maximal
//    sound dedup at any slack.
//  * AllComms + slack 0 — exact max-min fairness is invariant under
//    exchanging whole communicators (the job list is a set), so the hashed
//    SameSetsAndInternal classifier applies, intersected across comm sizes
//    when the query has several (an order pair must be equivalent at EVERY
//    size to share a simulation).
//  * AllComms + slack > 0 — completion merging is job-order sensitive
//    (measured at up to ~3% relative in the design probe), so only
//    identical placements are byte-identical: ExactPlacement, which is
//    size-independent and needs no intersection.

/// Distinct values of `values` in first-occurrence order.
std::vector<std::int64_t> distinct(const std::vector<std::int64_t>& values) {
  std::vector<std::int64_t> out;
  for (const std::int64_t v : values) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

/// Per-order class label array (indexed by lexicographic order rank) of one
/// classify_orders partition.
std::vector<std::int32_t> class_labels(const std::vector<OrderClass>& classes,
                                       std::int64_t norders) {
  std::vector<std::int32_t> labels(static_cast<std::size_t>(norders), -1);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (const Order& member : classes[c].members) {
      labels[static_cast<std::size_t>(order_index_lexicographic(member))] =
          static_cast<std::int32_t>(c);
    }
  }
  return labels;
}

std::vector<TuneCandidate> dedup_candidates(Engine& engine, const Hierarchy& h,
                                            const TuneQuery& query,
                                            TuneStats& stats) {
  const std::vector<Order> orders = all_orders_lexicographic(h.depth());
  const std::int64_t norders = static_cast<std::int64_t>(orders.size());
  const std::vector<std::int64_t> sizes = distinct(query.comm_sizes);

  // One label per order and grouping dimension; orders sharing every label
  // form one candidate class.
  std::vector<std::vector<std::int32_t>> labels;

  if (!query.dedup) {
    // Every order its own class: no labels, grouped by identity below.
  } else if (query.concurrency == Concurrency::SingleComm) {
    // Group by the concatenated first-subcommunicator core sequences.
    std::vector<std::vector<std::int64_t>> first_comm(orders.size());
    fan_out(engine, orders.size(), resolve_workers(query.threads),
            [&](std::size_t i) {
      const auto placement = placement_of_new_ranks(h, orders[i]);
      std::vector<std::int64_t> key;
      for (const std::int64_t s : sizes) {
        key.insert(key.end(), placement.begin(),
                   placement.begin() + static_cast<std::ptrdiff_t>(s));
      }
      first_comm[i] = std::move(key);
    });
    std::vector<std::int32_t> label(orders.size());
    std::map<std::vector<std::int64_t>, std::int32_t> seen;
    for (std::size_t i = 0; i < orders.size(); ++i) {
      label[i] = seen.try_emplace(std::move(first_comm[i]),
                                  static_cast<std::int32_t>(seen.size()))
                     .first->second;
    }
    labels.push_back(std::move(label));
  } else if (query.completion_slack > 0) {
    ClassifyStats cs;
    const auto classes =
        classify_orders(engine, h, sizes.front(), Equivalence::ExactPlacement,
                        query.threads, MetricsImpl::Fast, &cs);
    stats.classify = cs;
    labels.push_back(class_labels(classes, norders));
  } else {
    for (const std::int64_t s : sizes) {
      ClassifyStats cs;
      const auto classes =
          classify_orders(engine, h, s, Equivalence::SameSetsAndInternal,
                          query.threads, MetricsImpl::Fast, &cs);
      stats.classify.orders += cs.orders;
      stats.classify.classes += cs.classes;
      stats.classify.signatures_hashed += cs.signatures_hashed;
      stats.classify.collision_checks += cs.collision_checks;
      stats.classify.hash_collisions += cs.hash_collisions;
      labels.push_back(class_labels(classes, norders));
    }
  }

  // Group orders (in lexicographic rank order, so the first member of each
  // group is the lexicographic representative) by their label tuples.
  std::vector<TuneCandidate> candidates;
  std::map<std::vector<std::int32_t>, std::size_t> group_of;
  std::vector<std::int32_t> key(labels.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (labels.empty()) {
      candidates.emplace_back().order = orders[i];
      candidates.back().members.push_back(orders[i]);
      continue;
    }
    for (std::size_t l = 0; l < labels.size(); ++l) key[l] = labels[l][i];
    const auto [it, inserted] = group_of.try_emplace(key, candidates.size());
    if (inserted) {
      candidates.emplace_back().order = orders[i];
    }
    candidates[it->second].members.push_back(orders[i]);
  }
  return candidates;
}

// ---- Stages 2+3 helpers -----------------------------------------------------

/// A candidate's points bound to machine cores, as payload lanes: points
/// whose job lists are same_structure() (same plan shape, differing only in
/// bytes) form one group, in point order, and share one call of either
/// stage-2 tier.
struct PointLanes {
  std::vector<std::vector<simmpi::PlanJob>> jobs;  ///< per point; owns cores.
  /// Per group, one lane (job list) per member point.
  std::vector<std::vector<std::vector<verify::binding::JobBinding>>> lanes;
  std::vector<std::vector<std::size_t>> groups;  ///< member points.
};

PointLanes point_lanes(Engine& engine, const topo::Machine& machine,
                       const TuneQuery& query,
                       const std::vector<QueryPoint>& points,
                       const Order& order) {
  PointLanes out;
  out.jobs.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    out.jobs[p] = harness::protocol_jobs(engine, machine,
                                         point_config(query, points[p], order));
    std::vector<verify::binding::JobBinding> bindings;
    for (const auto& job : out.jobs[p]) {
      bindings.push_back({&job.plan->schedule, &job.plan->exec,
                          job.plan->repetitions, &job.core_of_rank,
                          job.start_time});
    }
    std::size_t g = 0;
    while (g < out.groups.size() &&
           !verify::binding::same_structure(out.lanes[g].front(), bindings)) {
      ++g;
    }
    if (g == out.groups.size()) {
      out.groups.emplace_back();
      out.lanes.emplace_back();
    }
    out.groups[g].push_back(p);
    out.lanes[g].push_back(std::move(bindings));
  }
  return out;
}

/// Bound::for_slack of a bare per-point bound, so both tiers deflate alike.
double deflate(double bound, double completion_slack) {
  verify::binding::Bound b;
  b.lower_bound = bound;
  return b.for_slack(completion_slack);
}

/// Stage 2's first tier: the candidate's serialization floors (deflated for
/// the simulated slack), summed in point order — never above the DP sum
/// of candidate_bound when every point analyzes clean, since each point's
/// floor is then at most its DP bound and both sums add in the same order.
double candidate_floor(Engine& engine, const topo::Machine& machine,
                       const TuneQuery& query,
                       const std::vector<QueryPoint>& points,
                       const Order& order,
                       verify::binding::ComponentSums& sums) {
  const PointLanes pl = point_lanes(engine, machine, query, points, order);
  std::vector<double> point_floor(points.size(), 0.0);
  for (std::size_t g = 0; g < pl.groups.size(); ++g) {
    const std::vector<double> floors =
        verify::binding::serialization_floor(machine, pl.lanes[g], &sums);
    for (std::size_t l = 0; l < floors.size(); ++l) {
      point_floor[pl.groups[g][l]] =
          deflate(floors[l], query.completion_slack);
    }
  }
  double sum = 0;
  for (const double f : point_floor) sum += f;
  return sum;
}

/// One candidate's critical-path outcome: the admissible bound plus the
/// lane accounting behind it.
struct BoundOutcome {
  double bound = 0;
  std::int64_t passes = 0;       ///< analyze_lanes calls.
  std::int64_t extra_lanes = 0;  ///< lanes beyond the first of each pass.
};

/// Stage 2's second tier: per-point static lower bounds (deflated for the
/// simulated slack), summed in point order — a lower bound on the
/// candidate's score because the score is the sum of point makespans. Each
/// structure group is bounded in one payload-lane pass; each lane equals
/// that point's own analyze_jobs bit for bit.
BoundOutcome candidate_bound(Engine& engine, const topo::Machine& machine,
                             const TuneQuery& query,
                             const std::vector<QueryPoint>& points,
                             const Order& order, simnet::RouteTable& routes) {
  const PointLanes pl = point_lanes(engine, machine, query, points, order);
  verify::binding::Options options;
  options.load_report = false;
  std::vector<double> point_bound(points.size(), 0.0);
  BoundOutcome out;
  for (std::size_t g = 0; g < pl.groups.size(); ++g) {
    const std::vector<verify::binding::Result> results =
        verify::binding::analyze_lanes(machine, pl.lanes[g], options, &routes);
    for (std::size_t l = 0; l < results.size(); ++l) {
      // A diagnostic here would mean the tuner built an invalid binding; a
      // zero bound keeps the candidate simulable instead of mis-pruning it.
      if (results[l].clean()) {
        point_bound[pl.groups[g][l]] =
            results[l].bound.for_slack(query.completion_slack);
      }
    }
    ++out.passes;
    out.extra_lanes += static_cast<std::int64_t>(results.size()) - 1;
  }
  for (const double b : point_bound) out.bound += b;
  return out;
}

/// Stage-3 full-fidelity evaluation of one candidate. The workspace is
/// leased from the engine's pool for the candidate's whole point loop
/// (LIFO reuse keeps interned routes warm across candidates on the same
/// driving thread) — reuse has no effect on results (enforced by the
/// determinism tests), and unlike the old function-scoped thread_local the
/// memory dies with the engine instead of the pool threads.
void simulate_candidate(Engine& engine, const topo::Machine& machine,
                        const TuneQuery& query,
                        const std::vector<QueryPoint>& points,
                        TuneCandidate& candidate) {
  Engine::WorkspaceLease lease = engine.workspace();
  candidate.points.clear();
  candidate.points.reserve(points.size());
  candidate.score = 0;
  for (const QueryPoint& point : points) {
    const auto jobs = harness::protocol_jobs(
        engine, machine, point_config(query, point, candidate.order));
    simmpi::ExecOptions exec;
    exec.completion_slack = query.completion_slack;
    exec.workspace = lease.get();
    const simmpi::TimedResult timed = simmpi::run_timed(machine, jobs, exec);
    PointResult pr;
    pr.makespan = timed.makespan;
    double bw = 0;
    for (const double finish : timed.job_finish) {
      bw += static_cast<double>(point.total_bytes) /
            (finish / query.repetitions);
    }
    pr.mean_bandwidth = bw / static_cast<double>(timed.job_finish.size());
    candidate.points.push_back(pr);
    candidate.score += pr.makespan;
  }
}

void validate(const topo::Machine& machine, const TuneQuery& query) {
  const Hierarchy& h = machine.hierarchy();
  MR_EXPECT(!query.collectives.empty(), "query needs at least one collective");
  MR_EXPECT(!query.comm_sizes.empty(), "query needs at least one comm size");
  MR_EXPECT(!query.total_bytes.empty(), "query needs at least one size");
  for (const std::int64_t s : query.comm_sizes) {
    MR_EXPECT(s >= 2, "communicator needs at least two ranks");
    MR_EXPECT(h.total() % s == 0, "comm size must divide the process count");
  }
  for (const std::int64_t b : query.total_bytes) {
    MR_EXPECT(b >= 1, "total_bytes must be positive");
  }
  MR_EXPECT(query.k >= 1, "k must be at least 1");
  MR_EXPECT(query.repetitions >= 1, "need at least one repetition");
  MR_EXPECT(query.completion_slack >= 0, "completion slack must be >= 0");
  MR_EXPECT(query.wave_size >= 1, "wave size must be at least 1");
  MR_EXPECT(query.screen_keep >= 0, "screen_keep must be non-negative");
  MR_EXPECT(query.shard_count >= 1 && query.shard_index >= 0 &&
                query.shard_index < query.shard_count,
            "shard index must lie in [0, shard_count)");
}

/// May `previous` seed this query's stage-3 incumbents? The previous
/// winners' scores transfer as first-wave candidates only when both runs
/// rank by the same objective family: same machine and hierarchy, same
/// concurrency/repetitions/slack, both unsharded, and every previous point
/// present in the new grid (a superset query — the canonical incremental
/// shape: added payload sizes or collectives).
bool seed_applicable(const TuneReport* previous, const topo::Machine& machine,
                     const Hierarchy& h, const TuneQuery& query,
                     const std::vector<QueryPoint>& points) {
  if (previous == nullptr || previous->top.empty()) return false;
  if (previous->machine != machine.name() ||
      previous->hierarchy != h.to_string()) {
    return false;
  }
  const TuneQuery& pq = previous->query;
  if (pq.concurrency != query.concurrency ||
      pq.repetitions != query.repetitions ||
      pq.completion_slack != query.completion_slack ||
      pq.shard_count != 1 || query.shard_count != 1) {
    return false;
  }
  for (const QueryPoint& p : previous->points) {
    const bool found = std::any_of(
        points.begin(), points.end(), [&](const QueryPoint& q) {
          return p.collective == q.collective && p.comm_size == q.comm_size &&
                 p.total_bytes == q.total_bytes;
        });
    if (!found) return false;
  }
  return true;
}

}  // namespace

std::string QueryPoint::to_string() const {
  return std::string(collective_name(collective)) + "/p" +
         std::to_string(comm_size) + "/" + std::to_string(total_bytes) + "B";
}

std::string_view fate_name(Fate fate) {
  switch (fate) {
    case Fate::Simulated: return "simulated";
    case Fate::Pruned: return "pruned";
    case Fate::Screened: return "screened";
    case Fate::Skipped: return "skipped";
  }
  return "?";
}

simmpi::Collective parse_collective(std::string_view name) {
  for (const auto& entry : kCollectives) {
    if (entry.name == name) return entry.collective;
  }
  std::string known;
  for (const auto& entry : kCollectives) {
    known += known.empty() ? "" : ", ";
    known += entry.name;
  }
  throw invalid_argument("unknown collective '" + std::string(name) +
                         "' (known: " + known + ")");
}

std::string_view collective_name(simmpi::Collective collective) {
  for (const auto& entry : kCollectives) {
    if (entry.collective == collective) return entry.name;
  }
  return "?";
}

TuneReport tune(Engine& engine, const topo::Machine& machine,
                const TuneQuery& query, const TuneReport* previous) {
  validate(machine, query);
  const Hierarchy& h = machine.hierarchy();
  const unsigned workers = resolve_workers(query.threads);
  BudgetMeter meter(query.budget);

  TuneReport report;
  report.machine = machine.name();
  report.hierarchy = h.to_string();
  report.query = query;
  for (const simmpi::Collective c : query.collectives) {
    for (const std::int64_t s : query.comm_sizes) {
      for (const std::int64_t b : query.total_bytes) {
        report.points.push_back({c, s, b});
      }
    }
  }
  const auto npoints = static_cast<std::int64_t>(report.points.size());

  TuneStats& stats = report.stats;
  stats.orders = factorial(h.depth());
  stats.exhaustive_points = stats.orders * npoints;

  // Stage 1: dedup into candidates (sorted by representative because the
  // grouping walks orders in lexicographic rank order), then keep this
  // shard's slice of the stream.
  std::vector<TuneCandidate> candidates =
      dedup_candidates(engine, h, query, stats);
  stats.classes = static_cast<std::int64_t>(candidates.size());
  if (query.shard_count > 1) {
    std::vector<TuneCandidate> mine;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(query.shard_count)) ==
          query.shard_index) {
        mine.push_back(std::move(candidates[i]));
      }
    }
    candidates = std::move(mine);
  }
  stats.shard_classes = static_cast<std::int64_t>(candidates.size());

  // Stage 0: closed-form characterization of every representative (the
  // report legend and the screening heuristic; never a simulation).
  fan_out(engine, candidates.size(), workers, [&](std::size_t i) {
    candidates[i].character = characterize_order(
        h, candidates[i].order, query.comm_sizes.front(), MetricsImpl::Fast);
  });

  // Funnel order over candidate indices; screened-out candidates keep
  // their report slot but leave the active stream.
  std::vector<std::size_t> active(candidates.size());
  std::iota(active.begin(), active.end(), std::size_t{0});
  if (query.screen_keep > 0 &&
      static_cast<std::int64_t>(active.size()) > query.screen_keep) {
    // Packedness heuristic: low ring cost first (ties lexicographic).
    std::stable_sort(active.begin(), active.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (candidates[a].character.ring_cost !=
                           candidates[b].character.ring_cost) {
                         return candidates[a].character.ring_cost <
                                candidates[b].character.ring_cost;
                       }
                       return candidates[a].order < candidates[b].order;
                     });
    for (std::size_t i = static_cast<std::size_t>(query.screen_keep);
         i < active.size(); ++i) {
      candidates[active[i]].fate = Fate::Screened;
      ++stats.screened_out;
    }
    active.resize(static_cast<std::size_t>(query.screen_keep));
  }

  // Stage 2, first tier: every candidate's serialization floor, computed in
  // parallel from per-component byte sums (no routes, no DP), each worker
  // slot reusing one ComponentSums. The stream is visited in floor order
  // (packed-first tie-break); the DP tier runs lazily in stage 3.
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  if (query.prune) {
    const auto floor_start = std::chrono::steady_clock::now();
    std::vector<double> floors(active.size());
    std::vector<verify::binding::ComponentSums> sums(workers);
    fan_out_slots(engine, active.size(), workers,
                  [&](unsigned slot, std::size_t i) {
      floors[i] = candidate_floor(engine, machine, query, report.points,
                                  candidates[active[i]].order, sums[slot]);
    });
    for (std::size_t i = 0; i < active.size(); ++i) {
      candidates[active[i]].lower_bound = floors[i];
    }
    stats.bounds_computed = static_cast<std::int64_t>(active.size());
    stats.bound_seconds += seconds_since(floor_start);
  }
  // Funnel key: lower bound, then ring cost, then order. An unrefined
  // candidate's lower_bound holds its floor sum, a refined one's its DP
  // sum, so one comparator orders the stream, `ready` and their mix.
  const auto before = [&](std::size_t a, std::size_t b) {
    if (candidates[a].lower_bound != candidates[b].lower_bound) {
      return candidates[a].lower_bound < candidates[b].lower_bound;
    }
    if (candidates[a].character.ring_cost != candidates[b].character.ring_cost) {
      return candidates[a].character.ring_cost <
             candidates[b].character.ring_cost;
    }
    return candidates[a].order < candidates[b].order;
  };
  std::sort(active.begin(), active.end(), before);

  // Stage 2, second tier: the critical-path DP sums of `batch`, replacing
  // their floors. Each worker slot leases one workspace per batch and
  // bounds every candidate it draws against that workspace's route table,
  // so routes stay warm across candidates (LIFO leases carry them into
  // the next batch and into stage 3).
  const auto refine = [&](const std::vector<std::size_t>& batch) {
    const auto refine_start = std::chrono::steady_clock::now();
    std::vector<BoundOutcome> outcomes(batch.size());
    std::vector<Engine::WorkspaceLease> leases(workers);
    std::vector<simnet::RouteTable*> routes(leases.size(), nullptr);
    fan_out_slots(engine, batch.size(), workers,
                  [&](unsigned slot, std::size_t i) {
      if (routes[slot] == nullptr) {
        leases[slot] = engine.workspace();
        routes[slot] = &leases[slot]->route_table(machine);
      }
      outcomes[i] = candidate_bound(engine, machine, query, report.points,
                                    candidates[batch[i]].order, *routes[slot]);
    });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      candidates[batch[i]].lower_bound = outcomes[i].bound;
      stats.bound_structures_built += outcomes[i].passes;
      stats.bound_structure_reuses += outcomes[i].extra_lanes;
    }
    stats.bound_seconds += seconds_since(refine_start);
  };
  // Simulate `wave_members` as wave `wave`, merging scores in order.
  std::vector<double> best;  // ascending; at most k simulated scores.
  int wave = 0;
  const auto simulate = [&](const std::size_t* wave_members, std::size_t n) {
    fan_out(engine, n, workers, [&](std::size_t i) {
      simulate_candidate(engine, machine, query, report.points,
                         candidates[wave_members[i]]);
    });
    for (std::size_t i = 0; i < n; ++i) {
      TuneCandidate& c = candidates[wave_members[i]];
      c.fate = Fate::Simulated;
      c.wave = wave;
      ++stats.simulated;
      best.insert(std::upper_bound(best.begin(), best.end(), c.score),
                  c.score);
      if (best.size() > static_cast<std::size_t>(query.k)) best.pop_back();
    }
    meter.charge(static_cast<std::int64_t>(n) * npoints);
    stats.sim_points += static_cast<std::int64_t>(n) * npoints;
    ++wave;
  };

  // Incremental seeding: when a compatible previous report is supplied,
  // re-simulate its winners FIRST (wave 0), in previous-score order, so the
  // k-th best cut is a real incumbent before the bound-ordered sweep
  // starts. Seeds earn true new-grid scores through the exact same
  // simulate_candidate path (and carry their DP sums like every simulated
  // candidate), so pruning keeps its admissible strict-cut guarantee and
  // the final top-k equals the cold run's.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> pending = active;  // floor order, minus any seeds.
  if (seed_applicable(previous, machine, h, query, report.points) &&
      !meter.exhausted()) {
    // Previous winners' scores, addressable by ANY class member: the new
    // dedup may split or relabel classes, but a member order identifies
    // its old class regardless.
    std::map<Order, double> prev_score;
    for (const std::size_t t : previous->top) {
      const TuneCandidate& c = previous->candidates[t];
      for (const Order& m : c.members) prev_score.emplace(m, c.score);
    }
    std::vector<std::pair<double, std::size_t>> ranked;  // (score, active pos)
    for (std::size_t i = 0; i < active.size(); ++i) {
      double sc = inf;
      for (const Order& m : candidates[active[i]].members) {
        const auto it = prev_score.find(m);
        if (it != prev_score.end()) sc = std::min(sc, it->second);
      }
      if (sc < inf) ranked.push_back({sc, i});
    }
    std::sort(ranked.begin(), ranked.end(),
              [&](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return candidates[active[a.second]].order <
                       candidates[active[b.second]].order;
              });
    // Only candidates whose every point fits the point budget run.
    const std::size_t nseeds = static_cast<std::size_t>(std::min<std::int64_t>(
        {static_cast<std::int64_t>(ranked.size()), query.k,
         meter.remaining_points() / npoints}));
    if (nseeds > 0) {
      std::vector<std::size_t> seeds(nseeds);
      std::vector<bool> seeded(active.size(), false);
      for (std::size_t i = 0; i < nseeds; ++i) {
        seeds[i] = active[ranked[i].second];
        seeded[ranked[i].second] = true;
      }
      if (query.prune) refine(seeds);
      simulate(seeds.data(), nseeds);
      stats.seeded_candidates = static_cast<std::int64_t>(nseeds);
      pending.clear();
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (!seeded[i]) pending.push_back(active[i]);
      }
    }
  }

  // Stage 3: fixed-size simulation waves in DP-bound order, the DP run
  // lazily. `ready` holds the refined, unsimulated candidates sorted by
  // their DP sums; `pending[next...]` the unrefined ones in floor order.
  // Before each wave the next unrefined candidates are refined, in batches
  // of wave_size, while one could still join the wave: its floor is within
  // the k-th best, and `ready` lacks wave_size members or it sorts before
  // the wave_size-th. A candidate's DP sum is never below its floor, so
  // once refinement stops no unrefined candidate sorts into the wave, and
  // every wave, prune and skip equals that of a stream sorted by DP sums
  // outright. The k-th best simulated score only improves between waves,
  // so the first candidate whose bound STRICTLY exceeds it ends the
  // search: everything after is provably outside the top k. The strict
  // inequality keeps exact ties simulable — a pruned candidate's true
  // score is > the k-th best, never equal, so lexicographic tie-breaking
  // matches the exhaustive ranking bit for bit. Without pruning there is
  // no bound: the stream itself is the wave order.
  const auto wave_size = static_cast<std::size_t>(query.wave_size);
  std::vector<std::size_t> ready;
  std::size_t head = 0;  // ready[head...] are live.
  std::size_t next = 0;
  if (!query.prune) {
    ready = std::move(pending);
    pending.clear();
  }
  const auto settle = [&](Fate fate) {
    std::int64_t& count =
        fate == Fate::Pruned ? stats.pruned : stats.budget_skipped;
    for (std::size_t i = head; i < ready.size(); ++i) {
      candidates[ready[i]].fate = fate;
      ++count;
    }
    for (std::size_t i = next; i < pending.size(); ++i) {
      candidates[pending[i]].fate = fate;
      ++count;
    }
  };
  while (head < ready.size() || next < pending.size()) {
    const double kth =
        static_cast<std::size_t>(query.k) <= best.size()
            ? best[static_cast<std::size_t>(query.k) - 1]
            : inf;
    const auto may_join = [&] {
      if (next == pending.size() ||
          candidates[pending[next]].lower_bound > kth) {
        return false;
      }
      return ready.size() - head < wave_size ||
             before(pending[next], ready[head + wave_size - 1]);
    };
    while (query.prune && may_join()) {
      std::vector<std::size_t> batch;
      while (batch.size() < wave_size && next < pending.size() &&
             candidates[pending[next]].lower_bound <= kth) {
        batch.push_back(pending[next++]);
      }
      refine(batch);
      ready.erase(ready.begin(),
                  ready.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
      ready.insert(ready.end(), batch.begin(), batch.end());
      std::sort(ready.begin(), ready.end(), before);
    }
    // Every unrefined floor is now above the k-th best, or sorts after the
    // wave_size-th refined bound; either way an empty `ready` or a front
    // bound above the k-th best leaves nothing simulable.
    if (query.prune &&
        (head == ready.size() || candidates[ready[head]].lower_bound > kth)) {
      settle(Fate::Pruned);
      break;
    }
    // Only candidates whose every point fits the point budget run.
    const std::int64_t affordable = meter.remaining_points() / npoints;
    if (meter.exhausted() || affordable == 0) {
      settle(Fate::Skipped);
      stats.exhausted = false;
      break;
    }
    // Wave = the next wave_size candidates that survive the current k-th
    // best and fit the point budget (all thread-count independent).
    std::size_t n = std::min(ready.size() - head, wave_size);
    if (query.prune) {
      while (n > 0 && candidates[ready[head + n - 1]].lower_bound > kth) --n;
    }
    n = static_cast<std::size_t>(
        std::min(static_cast<std::int64_t>(n), affordable));
    simulate(&ready[head], n);
    head += n;
  }

  // Final ranking: simulated candidates by (score, representative order).
  // Keep the report's candidate table in stream (floor) order, so indices
  // in `top` point into a stable provenance layout.
  report.candidates.reserve(candidates.size());
  std::vector<std::size_t> layout(candidates.size());
  for (std::size_t i = 0; i < active.size(); ++i) layout[i] = active[i];
  // Screened candidates come after the active stream, in lex order.
  std::size_t tail = active.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].fate == Fate::Screened) layout[tail++] = i;
  }
  for (const std::size_t idx : layout) {
    report.candidates.push_back(std::move(candidates[idx]));
  }
  std::vector<std::size_t> simulated;
  for (std::size_t i = 0; i < report.candidates.size(); ++i) {
    if (report.candidates[i].fate == Fate::Simulated) simulated.push_back(i);
  }
  std::sort(simulated.begin(), simulated.end(),
            [&](std::size_t a, std::size_t b) {
              if (report.candidates[a].score != report.candidates[b].score) {
                return report.candidates[a].score < report.candidates[b].score;
              }
              return report.candidates[a].order < report.candidates[b].order;
            });
  const std::size_t keep =
      std::min(simulated.size(), static_cast<std::size_t>(query.k));
  report.top.assign(simulated.begin(),
                    simulated.begin() + static_cast<std::ptrdiff_t>(keep));
  stats.elapsed_seconds = meter.elapsed_seconds();
  return report;
}

}  // namespace mr::tune
