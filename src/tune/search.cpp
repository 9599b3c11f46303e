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

/// One candidate's stage-2 outcome: the admissible bound plus the lane
/// accounting behind it.
struct BoundOutcome {
  double bound = 0;
  std::int64_t passes = 0;       ///< analyze_lanes calls.
  std::int64_t extra_lanes = 0;  ///< lanes beyond the first of each pass.
};

/// Stage-2 admissible bound of one candidate: per-point static lower bounds
/// (deflated for the simulated slack), summed in point order — a lower
/// bound on the candidate's score because the score is the sum of point
/// makespans. Points whose job lists share a structure (same plan shape,
/// differing only in bytes) are bounded in one payload-lane pass; each
/// lane equals that point's own analyze_jobs bit for bit.
BoundOutcome candidate_bound(Engine& engine, const topo::Machine& machine,
                             const TuneQuery& query,
                             const std::vector<QueryPoint>& points,
                             const Order& order, simnet::RouteTable& routes) {
  using verify::binding::JobBinding;
  std::vector<std::vector<simmpi::PlanJob>> jobs(points.size());
  std::vector<std::vector<JobBinding>> bindings(points.size());
  // Points grouped by structure, each group in point order.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t p = 0; p < points.size(); ++p) {
    jobs[p] = harness::protocol_jobs(engine, machine,
                                     point_config(query, points[p], order));
    for (const auto& job : jobs[p]) {
      bindings[p].push_back({&job.plan->schedule, &job.plan->exec,
                             job.plan->repetitions, &job.core_of_rank,
                             job.start_time});
    }
    const auto group = std::find_if(
        groups.begin(), groups.end(), [&](const std::vector<std::size_t>& g) {
          return verify::binding::same_structure(bindings[g.front()],
                                                 bindings[p]);
        });
    if (group == groups.end()) {
      groups.push_back({p});
    } else {
      group->push_back(p);
    }
  }
  verify::binding::Options options;
  options.load_report = false;
  std::vector<double> point_bound(points.size(), 0.0);
  BoundOutcome out;
  for (const std::vector<std::size_t>& group : groups) {
    std::vector<std::vector<JobBinding>> lanes;
    lanes.reserve(group.size());
    for (const std::size_t p : group) lanes.push_back(std::move(bindings[p]));
    const std::vector<verify::binding::Result> results =
        verify::binding::analyze_lanes(machine, lanes, options, &routes);
    for (std::size_t l = 0; l < group.size(); ++l) {
      // A diagnostic here would mean the tuner built an invalid binding; a
      // zero bound keeps the candidate simulable instead of mis-pruning it.
      if (results[l].clean()) {
        point_bound[group[l]] =
            results[l].bound.for_slack(query.completion_slack);
      }
    }
    ++out.passes;
    out.extra_lanes += static_cast<std::int64_t>(group.size()) - 1;
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

  // Stage 2: admissible lower bounds, computed in parallel, then the
  // branch-and-bound visit order (bound ascending, packed-first tie-break).
  // Each worker slot leases one workspace and bounds every candidate it
  // draws against that workspace's route table, so routes resolved for
  // one candidate stay warm for the next (and for stage 3).
  if (query.prune) {
    const auto bound_start = std::chrono::steady_clock::now();
    std::vector<BoundOutcome> outcomes(active.size());
    std::vector<Engine::WorkspaceLease> leases(workers);
    std::vector<simnet::RouteTable*> routes(leases.size(), nullptr);
    fan_out_slots(engine, active.size(), workers,
                  [&](unsigned slot, std::size_t i) {
      if (routes[slot] == nullptr) {
        leases[slot] = engine.workspace();
        routes[slot] = &leases[slot]->route_table(machine);
      }
      outcomes[i] = candidate_bound(engine, machine, query, report.points,
                                    candidates[active[i]].order,
                                    *routes[slot]);
    });
    for (std::size_t i = 0; i < active.size(); ++i) {
      candidates[active[i]].lower_bound = outcomes[i].bound;
      stats.bound_structures_built += outcomes[i].passes;
      stats.bound_structure_reuses += outcomes[i].extra_lanes;
    }
    stats.bounds_computed = static_cast<std::int64_t>(active.size());
    stats.bound_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      bound_start)
            .count();
  }
  std::sort(active.begin(), active.end(), [&](std::size_t a, std::size_t b) {
    if (candidates[a].lower_bound != candidates[b].lower_bound) {
      return candidates[a].lower_bound < candidates[b].lower_bound;
    }
    if (candidates[a].character.ring_cost != candidates[b].character.ring_cost) {
      return candidates[a].character.ring_cost <
             candidates[b].character.ring_cost;
    }
    return candidates[a].order < candidates[b].order;
  });

  // Incremental seeding: when a compatible previous report is supplied,
  // re-simulate its winners FIRST (wave 0), in previous-score order, so the
  // k-th best cut is a real incumbent before the bound-ordered sweep
  // starts. Seeds earn true new-grid scores through the exact same
  // simulate_candidate path, so pruning keeps its admissible strict-cut
  // guarantee and the final top-k equals the cold run's.
  std::vector<double> best;  // ascending; at most k simulated scores.
  const double inf = std::numeric_limits<double>::infinity();
  int wave = 0;
  std::vector<std::size_t> pending = active;  // bound order, minus any seeds.
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
    std::size_t nseeds =
        std::min(ranked.size(), static_cast<std::size_t>(query.k));
    if (npoints > 0) {
      const std::int64_t affordable = meter.remaining_points() / npoints;
      nseeds = std::min(
          nseeds, static_cast<std::size_t>(std::max<std::int64_t>(affordable,
                                                                  1)));
    }
    if (nseeds > 0) {
      fan_out(engine, nseeds, workers, [&](std::size_t i) {
        simulate_candidate(engine, machine, query, report.points,
                           candidates[active[ranked[i].second]]);
      });
      std::vector<bool> seeded(active.size(), false);
      for (std::size_t i = 0; i < nseeds; ++i) {
        TuneCandidate& c = candidates[active[ranked[i].second]];
        c.fate = Fate::Simulated;
        c.wave = 0;
        seeded[ranked[i].second] = true;
        ++stats.simulated;
        best.insert(std::upper_bound(best.begin(), best.end(), c.score),
                    c.score);
        if (best.size() > static_cast<std::size_t>(query.k)) best.pop_back();
      }
      meter.charge(static_cast<std::int64_t>(nseeds) * npoints);
      stats.sim_points += static_cast<std::int64_t>(nseeds) * npoints;
      stats.seeded_candidates = static_cast<std::int64_t>(nseeds);
      wave = 1;
      pending.clear();
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (!seeded[i]) pending.push_back(active[i]);
      }
    }
  }

  // Stage 3: fixed-size simulation waves in bound order. The k-th best
  // simulated score only improves between waves, and the candidates are
  // bound-sorted, so the first candidate whose bound STRICTLY exceeds it
  // ends the search: everything after is provably outside the top k. The
  // strict inequality keeps exact ties simulable — a pruned candidate's
  // true score is > the k-th best, never equal, so lexicographic
  // tie-breaking matches the exhaustive ranking bit for bit. With no seeds
  // `pending` IS the active stream and this loop is the cold funnel
  // verbatim.
  std::size_t pos = 0;
  while (pos < pending.size()) {
    const double kth =
        static_cast<std::size_t>(query.k) <= best.size()
            ? best[static_cast<std::size_t>(query.k) - 1]
            : inf;
    if (query.prune && candidates[pending[pos]].lower_bound > kth) {
      for (std::size_t i = pos; i < pending.size(); ++i) {
        candidates[pending[i]].fate = Fate::Pruned;
        ++stats.pruned;
      }
      break;
    }
    if (meter.exhausted()) {
      for (std::size_t i = pos; i < pending.size(); ++i) {
        candidates[pending[i]].fate = Fate::Skipped;
        ++stats.budget_skipped;
      }
      stats.exhausted = false;
      break;
    }
    // Wave = the next wave_size candidates that survive the current k-th
    // best and still fit the point budget (all thread-count independent).
    std::size_t end = std::min(pos + static_cast<std::size_t>(query.wave_size),
                               pending.size());
    if (query.prune) {
      while (end > pos && candidates[pending[end - 1]].lower_bound > kth) --end;
    }
    if (npoints > 0) {
      const std::int64_t affordable = meter.remaining_points() / npoints;
      end = std::min(end, pos + static_cast<std::size_t>(std::max<std::int64_t>(
                              affordable, 1)));
    }
    fan_out(engine, end - pos, workers, [&](std::size_t i) {
      simulate_candidate(engine, machine, query, report.points,
                         candidates[pending[pos + i]]);
    });
    for (std::size_t i = pos; i < end; ++i) {
      TuneCandidate& c = candidates[pending[i]];
      c.fate = Fate::Simulated;
      c.wave = wave;
      ++stats.simulated;
      best.insert(std::upper_bound(best.begin(), best.end(), c.score),
                  c.score);
      if (best.size() > static_cast<std::size_t>(query.k)) best.pop_back();
    }
    meter.charge(static_cast<std::int64_t>(end - pos) * npoints);
    stats.sim_points += static_cast<std::int64_t>(end - pos) * npoints;
    pos = end;
    ++wave;
  }

  // Final ranking: simulated candidates by (score, representative order).
  // Keep the report's candidate table in funnel (bound) order, so indices
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
