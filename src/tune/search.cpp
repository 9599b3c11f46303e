#include "mixradix/tune/search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/simnet/route_table.hpp"
#include "mixradix/util/expect.hpp"
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
// to the representative at every query point. The rule is
// harness::sound_class_key, the one run_sweep dedups by, applied at each of
// the query's comm sizes (a pair must share a key at EVERY size): the first
// subcommunicator's core sequence for SingleComm, SameSetsAndInternal for
// AllComms at slack 0, and ExactPlacement for AllComms at slack > 0
// (completion merging is job-order sensitive). Each key is read in O(h) off
// the order's digits, and keys are tagged and length-prefixed, so their
// concatenation over the comm sizes is one unambiguous key per order.
// Tune.CandidatesPartitionOrdersAsTheSweepDoes checks the candidates
// against canonical_signature, the placement-based ground truth.

/// Distinct values of `values` in first-occurrence order.
std::vector<std::int64_t> distinct(const std::vector<std::int64_t>& values) {
  std::vector<std::int64_t> out;
  for (const std::int64_t v : values) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

/// FNV-1a over a key's words. Stage 1 needs no ordered map: candidates are
/// numbered in visit order, and a hash groups 40,320 keys in a quarter of
/// the std::map time.
struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const noexcept {
    std::size_t hash = 0xcbf29ce484222325ull;
    for (const std::int64_t word : key) {
      hash = (hash ^ static_cast<std::size_t>(word)) * 0x100000001b3ull;
    }
    return hash;
  }
};

/// One loop over the orders in lexicographic order, so the first member of
/// each candidate is its lexicographic representative. Serial: a key costs
/// ~0.1 us, and fanning 40,320 of them over four workers measured no
/// faster.
std::vector<TuneCandidate> dedup_candidates(const Hierarchy& h,
                                            const TuneQuery& query) {
  const std::vector<std::int64_t> sizes = distinct(query.comm_sizes);
  std::vector<TuneCandidate> candidates;
  std::unordered_map<std::vector<std::int64_t>, std::size_t, KeyHash> group_of;
  for (const Order& order : all_orders_lexicographic(h.depth())) {
    std::vector<std::int64_t> key;
    for (const std::int64_t s : sizes) {
      const QueryPoint point{query.collectives.front(), s,
                             query.total_bytes.front()};
      std::vector<std::int64_t> part =
          harness::sound_class_key(h, point_config(query, point, order));
      if (key.empty()) {
        key = std::move(part);
      } else {
        key.insert(key.end(), part.begin(), part.end());
      }
    }
    const auto [it, inserted] =
        group_of.try_emplace(std::move(key), candidates.size());
    if (inserted) candidates.emplace_back().order = order;
    candidates[it->second].members.push_back(order);
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
  MR_EXPECT(query.completion_slack >= 0 && query.completion_slack < 0.5,
            "completion slack must be in [0, 0.5)");
  MR_EXPECT(query.wave_size >= 1, "wave size must be at least 1");
  MR_EXPECT(query.budget.max_points >= 0, "point budget must be >= 0");
  MR_EXPECT(std::isfinite(query.budget.max_seconds) &&
                query.budget.max_seconds >= 0,
            "seconds budget must be finite and >= 0");
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
                const TuneQuery& query) {
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

  // Stage 1: dedup into candidates.
  std::vector<TuneCandidate> candidates = dedup_candidates(h, query);
  const std::size_t n = candidates.size();
  stats.classes = static_cast<std::int64_t>(n);

  // Stage 0: closed-form characterization of every representative (the
  // report legend and the stream's tie-break; never a simulation).
  fan_out(engine, n, workers, [&](std::size_t i) {
    candidates[i].character = characterize_order(
        h, candidates[i].order, query.comm_sizes.front(), MetricsImpl::Fast);
  });

  // Stage 2, first tier: every candidate's serialization floor, computed in
  // parallel from per-component byte sums (no routes, no DP), each worker
  // slot reusing one ComponentSums. The DP tier runs lazily in stage 3.
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto floor_start = std::chrono::steady_clock::now();
  std::vector<verify::binding::ComponentSums> sums(
      fan_out_slot_count(engine, n, workers));
  fan_out_slots(engine, n, workers, [&](unsigned slot, std::size_t i) {
    candidates[i].lower_bound = candidate_floor(
        engine, machine, query, report.points, candidates[i].order,
        sums[slot]);
  });
  stats.bounds_computed = static_cast<std::int64_t>(n);
  stats.bound_seconds += seconds_since(floor_start);
  // The stream: candidates sorted by lower bound, then ring cost (packed
  // first), then order. An unrefined candidate's lower_bound holds its
  // floor sum, a refined one's its DP sum, so one comparator orders the
  // stream, `ready` and their mix.
  const auto key_less = [](const TuneCandidate& a, const TuneCandidate& b) {
    if (a.lower_bound != b.lower_bound) return a.lower_bound < b.lower_bound;
    if (a.character.ring_cost != b.character.ring_cost) {
      return a.character.ring_cost < b.character.ring_cost;
    }
    return a.order < b.order;
  };
  std::sort(candidates.begin(), candidates.end(), key_less);
  const auto before = [&](std::size_t a, std::size_t b) {
    return key_less(candidates[a], candidates[b]);
  };

  // Stage 3: fixed-size simulation waves in DP-bound order, the DP run
  // lazily. `ready` holds the refined, unsimulated candidates sorted by
  // their DP sums; candidates[next...] the unrefined ones in floor order.
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
  // matches the exhaustive ranking bit for bit.
  const double inf = std::numeric_limits<double>::infinity();
  const auto wave_size = static_cast<std::size_t>(query.wave_size);
  std::vector<double> best;  // ascending; at most k simulated scores.
  std::vector<std::size_t> ready;
  std::size_t head = 0;  // ready[head...] are live.
  std::size_t next = 0;  // candidates[next...] are unrefined.
  const auto settle = [&](Fate fate) {
    std::int64_t& count =
        fate == Fate::Pruned ? stats.pruned : stats.budget_skipped;
    for (std::size_t i = head; i < ready.size(); ++i) {
      candidates[ready[i]].fate = fate;
      ++count;
    }
    for (std::size_t i = next; i < n; ++i) {
      candidates[i].fate = fate;
      ++count;
    }
  };
  for (int wave = 0; head < ready.size() || next < n; ++wave) {
    const double kth =
        static_cast<std::size_t>(query.k) <= best.size()
            ? best[static_cast<std::size_t>(query.k) - 1]
            : inf;
    const auto may_join = [&] {
      if (next == n || candidates[next].lower_bound > kth) return false;
      return ready.size() - head < wave_size ||
             before(next, ready[head + wave_size - 1]);
    };
    // Stage 2, second tier: the critical-path DP sums of the next batch,
    // replacing their floors. Each worker slot leases one workspace per
    // batch and bounds every candidate it draws against that workspace's
    // route table, so routes stay warm across candidates (LIFO leases
    // carry them into the next batch and into the simulations).
    while (may_join()) {
      const auto refine_start = std::chrono::steady_clock::now();
      const std::size_t first = next;
      while (next - first < wave_size && next < n &&
             candidates[next].lower_bound <= kth) {
        ++next;
      }
      std::vector<BoundOutcome> outcomes(next - first);
      const unsigned slots =
          fan_out_slot_count(engine, outcomes.size(), workers);
      std::vector<Engine::WorkspaceLease> leases(slots);
      std::vector<simnet::RouteTable*> routes(slots, nullptr);
      fan_out_slots(engine, outcomes.size(), workers,
                    [&](unsigned slot, std::size_t i) {
        if (routes[slot] == nullptr) {
          leases[slot] = engine.workspace();
          routes[slot] = &leases[slot]->route_table(machine);
        }
        outcomes[i] = candidate_bound(engine, machine, query, report.points,
                                      candidates[first + i].order,
                                      *routes[slot]);
      });
      ready.erase(ready.begin(),
                  ready.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        candidates[first + i].lower_bound = outcomes[i].bound;
        stats.bound_structures_built += outcomes[i].passes;
        stats.bound_structure_reuses += outcomes[i].extra_lanes;
        ready.push_back(first + i);
      }
      stats.bound_seconds += seconds_since(refine_start);
      std::sort(ready.begin(), ready.end(), before);
    }
    // Every unrefined floor is now above the k-th best, or sorts after the
    // wave_size-th refined bound; either way an empty `ready` or a front
    // bound above the k-th best leaves nothing simulable.
    if (head == ready.size() || candidates[ready[head]].lower_bound > kth) {
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
    // best and fit the point budget (all thread-count independent),
    // simulated in parallel and merged in order.
    std::size_t count = std::min(ready.size() - head, wave_size);
    while (count > 0 && candidates[ready[head + count - 1]].lower_bound > kth) {
      --count;
    }
    count = static_cast<std::size_t>(
        std::min(static_cast<std::int64_t>(count), affordable));
    const std::size_t* members = &ready[head];
    // Each member runs one protocol point (run_microbench, as a sweep
    // does) per query point; its score sums their makespans in point order.
    fan_out(engine, count, workers, [&](std::size_t i) {
      TuneCandidate& c = candidates[members[i]];
      for (const QueryPoint& point : report.points) {
        c.points.push_back(harness::run_microbench(
            engine, machine, point_config(query, point, c.order)));
        c.score += c.points.back().makespan;
      }
    });
    for (std::size_t i = 0; i < count; ++i) {
      TuneCandidate& c = candidates[members[i]];
      c.fate = Fate::Simulated;
      c.wave = wave;
      best.insert(std::upper_bound(best.begin(), best.end(), c.score),
                  c.score);
      if (best.size() > static_cast<std::size_t>(query.k)) best.pop_back();
    }
    const auto ran = static_cast<std::int64_t>(count);
    stats.simulated += ran;
    stats.sim_points += ran * npoints;
    meter.charge(ran * npoints);
    head += count;
  }

  // Final ranking: simulated candidates by (score, representative order).
  // The candidate table stays in stream (floor) order, so indices in `top`
  // point into a stable provenance layout.
  report.candidates = std::move(candidates);
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
