// mr::tune — the multi-fidelity order-search funnel. The load-bearing
// guarantees under test:
//  * EXACTNESS — the top-k ranking equals the exhaustive one across
//    collectives, machines and comm sizes. The oracle dedups nothing, so it
//    is independent of the funnel and of run_sweep's one run per sound
//    class: one harness::run_microbench per (order, query point), each
//    order's makespans summed in the query's point order, ranked by
//    (score, order);
//  * DETERMINISM — the canonical JSON report is byte-identical for every
//    thread count, and point-budget truncation cuts at the same candidate
//    regardless of threads;
//  * SOUNDNESS — a pruned candidate's true score is strictly outside the
//    top k, every dedup class member's own simulations score exactly its
//    representative's, and the candidates partition the orders exactly as
//    the placements do (mr::canonical_signature, independent of the digit
//    keys stage 1 and the sweep group by).
#include "mixradix/tune/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/binding.hpp"

namespace mr::tune {
namespace {

/// The exhaustive oracle: one run_microbench per (order, query point),
/// fanned over the engine's pool, each order's makespans summed in the
/// query's point order (collective, comm size, payload).
std::map<Order, double> exhaustive_scores(const topo::Machine& machine,
                                          const TuneQuery& query) {
  Engine engine;
  const std::vector<Order> orders = all_orders_lexicographic(machine.depth());
  std::vector<harness::MicrobenchConfig> points;
  for (const simmpi::Collective collective : query.collectives) {
    for (const std::int64_t comm_size : query.comm_sizes) {
      for (const std::int64_t bytes : query.total_bytes) {
        harness::MicrobenchConfig mb;
        mb.comm_size = comm_size;
        mb.collective = collective;
        mb.total_bytes = bytes;
        mb.all_comms = query.concurrency == Concurrency::AllComms;
        mb.repetitions = query.repetitions;
        mb.completion_slack = query.completion_slack;
        points.push_back(mb);
      }
    }
  }
  const std::size_t npoints = points.size();
  std::vector<double> makespan(orders.size() * npoints);
  fan_out(engine, makespan.size(), resolve_workers(0), [&](std::size_t task) {
    harness::MicrobenchConfig mb = points[task % npoints];
    mb.order = orders[task / npoints];
    makespan[task] = harness::run_microbench(engine, machine, mb).makespan;
  });
  std::map<Order, double> out;
  for (std::size_t oi = 0; oi < orders.size(); ++oi) {
    double score = 0;
    for (std::size_t p = 0; p < npoints; ++p) {
      score += makespan[oi * npoints + p];
    }
    out[orders[oi]] = score;
  }
  return out;
}

/// All orders ranked by (exhaustive score, order).
std::vector<Order> exhaustive_ranking(const std::map<Order, double>& scores) {
  std::vector<Order> ranked;
  for (const auto& [order, score] : scores) ranked.push_back(order);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const Order& a, const Order& b) {
                     return scores.at(a) < scores.at(b);
                   });
  return ranked;
}

/// Depth-6 variant of Hydra — node/socket/numa/half/l3/core, 256 cores —
/// whose 6! = 720 orders are past what exhaustive sweeps comfortably
/// enumerate, yet small enough to enumerate once as a test oracle.
topo::Machine deep6() {
  std::vector<topo::LevelSpec> levels = {
      {"node", 4, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 48.0e9},
      {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
      {"core", 2, 1.0e-7, 9.0e9, 12.0e9},
  };
  return topo::Machine("deep6", std::move(levels));
}

/// The deep6 payload grid: six payloads in one algorithm regime, so every
/// candidate's points share one plan structure, bounded in one lane pass.
TuneQuery deep6_grid() {
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {256 << 10, 384 << 10, 512 << 10,
                       768 << 10, 1024 << 10, 1536 << 10};
  query.k = 3;
  query.wave_size = 32;
  query.threads = 1;
  return query;
}

/// The funnel's whole point: its ranking must equal brute force. The
/// funnel returns one representative per equivalence class while the
/// exhaustive ranking lists every order — tied class members occupy
/// consecutive exhaustive slots — so the exhaustive ranking is collapsed
/// through the funnel's own class partition (first appearance of a class
/// is its lexicographic representative, because members tie exactly and
/// ties break lexicographically) before comparing rank for rank.
void expect_matches_exhaustive(const topo::Machine& machine,
                               const TuneQuery& query) {
  Engine engine;
  const TuneReport funnel = tune(engine, machine, query);
  const std::map<Order, double> brute_score =
      exhaustive_scores(machine, query);

  std::map<Order, const TuneCandidate*> class_of;
  for (const TuneCandidate& c : funnel.candidates) {
    for (const Order& member : c.members) class_of[member] = &c;
  }
  std::vector<const TuneCandidate*> expected;
  std::set<const TuneCandidate*> seen;
  for (const Order& order : exhaustive_ranking(brute_score)) {
    const TuneCandidate* cls = class_of.at(order);
    if (!seen.insert(cls).second) continue;
    expected.push_back(cls);
    if (expected.size() == funnel.top.size()) break;
  }

  ASSERT_EQ(funnel.top.size(), expected.size()) << machine.name();
  for (std::size_t rank = 0; rank < funnel.top.size(); ++rank) {
    const TuneCandidate& got = funnel.candidates[funnel.top[rank]];
    const TuneCandidate& want = *expected[rank];
    EXPECT_EQ(got.order, want.order)
        << machine.name() << " rank " << rank << ": funnel "
        << order_to_string(got.order) << " (score " << got.score
        << ") vs exhaustive " << order_to_string(want.order);
    // The representative's simulated score must be bit-exact between the
    // funnel and the exhaustive run.
    EXPECT_EQ(got.score, brute_score.at(got.order))
        << machine.name() << " rank " << rank;
  }
}

TEST(Tune, MatchesExhaustiveAcrossCollectivesOnTestbox) {
  const auto machine = topo::testbox();
  for (const simmpi::Collective collective :
       {simmpi::Collective::Alltoall, simmpi::Collective::Allgather,
        simmpi::Collective::Allreduce, simmpi::Collective::Bcast,
        simmpi::Collective::ReduceScatter, simmpi::Collective::Scan}) {
    for (const std::int64_t comm_size : {4, 8, 16}) {
      TuneQuery query;
      query.collectives = {collective};
      query.comm_sizes = {comm_size};
      query.total_bytes = {1 << 20};
      query.k = 3;
      query.threads = 1;
      expect_matches_exhaustive(machine, query);
    }
  }
}

TEST(Tune, MatchesExhaustiveOnHydraSerialAndThreaded) {
  const auto machine = topo::hydra(2);
  for (const std::int64_t comm_size : {8, 16, 32}) {
    for (const int threads : {1, 4}) {
      TuneQuery query;
      query.collectives = {simmpi::Collective::Alltoall};
      query.comm_sizes = {comm_size};
      query.total_bytes = {256 << 10};
      query.k = 2;
      query.threads = threads;
      expect_matches_exhaustive(machine, query);
    }
  }
}

TEST(Tune, MatchesExhaustiveOnLumiSingleComm) {
  const auto machine = topo::lumi(2);
  TuneQuery query;
  query.collectives = {simmpi::Collective::Allgather};
  query.comm_sizes = {16};
  query.total_bytes = {256 << 10};
  query.concurrency = Concurrency::SingleComm;
  query.k = 3;
  query.threads = 4;
  expect_matches_exhaustive(machine, query);
}

TEST(Tune, MatchesExhaustiveOnMultiPointQueries) {
  // Several collectives x sizes x payloads in one query: the objective sums
  // the points, and dedup must intersect across the comm sizes.
  const auto machine = topo::testbox();
  TuneQuery query;
  query.collectives = {simmpi::Collective::Alltoall,
                       simmpi::Collective::Allreduce};
  query.comm_sizes = {4, 8};
  query.total_bytes = {64 << 10, 1 << 20};
  query.k = 3;
  query.threads = 1;
  expect_matches_exhaustive(machine, query);
}

TEST(Tune, MatchesExhaustiveAtNonzeroSlack) {
  // slack > 0 switches all-comms dedup to the ExactPlacement fallback; the
  // ranking must still be exact.
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {256 << 10};
  query.completion_slack = 0.02;
  query.k = 2;
  query.threads = 1;
  expect_matches_exhaustive(machine, query);
}

TEST(Tune, ReportIsByteIdenticalAcrossThreadCounts) {
  Engine engine;
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {1 << 20};
  query.k = 3;
  std::string baseline;
  for (const int threads : {1, 2, 4}) {
    query.threads = threads;
    std::ostringstream os;
    write_json(os, tune(engine, machine, query));
    if (threads == 1) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "threads=" << threads;
    }
  }
}

TEST(Tune, PointBudgetTruncatesDeterministically) {
  Engine engine;
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {256 << 10};
  // The default k and wave over hydra:2's 18 all-comms classes: the first
  // wave would simulate 16 of them, and a 4-point cap stops it after 4,
  // too few to prune the other 14 against the 3rd best.
  query.budget.max_points = 4;
  std::string baseline;
  for (const int threads : {1, 4}) {
    query.threads = threads;
    const TuneReport report = tune(engine, machine, query);
    EXPECT_EQ(report.stats.classes, 18);
    EXPECT_FALSE(report.stats.exhausted);
    EXPECT_GT(report.stats.budget_skipped, 0);
    EXPECT_EQ(report.stats.sim_points, query.budget.max_points);
    EXPECT_EQ(report.stats.simulated + report.stats.pruned +
                  report.stats.budget_skipped,
              report.stats.classes);
    std::ostringstream os;
    write_json(os, report);
    if (threads == 1) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "threads=" << threads;
    }
  }

  // The cap is hard: a candidate runs only when all its points fit. With
  // three points per candidate, a cap of 2 simulates nothing and a cap of
  // 4 one candidate, at any thread count.
  TuneQuery three = query;
  three.total_bytes = {64 << 10, 1 << 20, 8 << 20};
  for (const std::int64_t cap : {2, 4}) {
    three.budget.max_points = cap;
    std::string json;
    for (const int threads : {1, 4}) {
      three.threads = threads;
      const TuneReport report = tune(engine, machine, three);
      const TuneStats& stats = report.stats;
      EXPECT_LE(stats.sim_points, cap) << "cap " << cap;
      EXPECT_EQ(stats.sim_points, cap / 3 * 3) << "cap " << cap;
      EXPECT_FALSE(stats.exhausted) << "cap " << cap;
      EXPECT_EQ(stats.simulated + stats.pruned + stats.budget_skipped,
                stats.classes)
          << "cap " << cap;
      if (cap == 2) {
        EXPECT_EQ(stats.simulated, 0);
        EXPECT_TRUE(report.top.empty());
      }
      std::ostringstream os;
      write_json(os, report);
      if (threads == 1) {
        json = os.str();
      } else {
        EXPECT_EQ(os.str(), json) << "cap " << cap;
      }
    }
  }
}

struct FunnelVsExhaustive {
  TuneReport funnel;
  Order argmin;  ///< the exhaustive run's top-1.
};

/// Runs `query` through the funnel and exhaustively, and checks the two
/// invariants exactness rests on: every pruned candidate's true
/// (exhaustively simulated) score is strictly worse than the k-th best, and
/// every class member scores exactly its representative.
FunnelVsExhaustive expect_sound_pruning(const topo::Machine& machine,
                                        const TuneQuery& query) {
  Engine engine;
  const TuneReport funnel = tune(engine, machine, query);
  const std::map<Order, double> score_of = exhaustive_scores(machine, query);
  std::vector<double> scores;
  for (const auto& [order, score] : score_of) scores.push_back(score);
  std::sort(scores.begin(), scores.end());
  const double kth = scores[static_cast<std::size_t>(query.k) - 1];

  std::int64_t pruned = 0;
  for (const TuneCandidate& c : funnel.candidates) {
    if (c.fate == Fate::Pruned) {
      ++pruned;
      EXPECT_GT(score_of.at(c.order), kth) << order_to_string(c.order);
    }
    if (c.fate == Fate::Simulated) {
      EXPECT_EQ(c.score, score_of.at(c.order)) << order_to_string(c.order);
      EXPECT_LE(c.lower_bound, c.score + 1e-12) << order_to_string(c.order);
    }
    for (const Order& member : c.members) {
      EXPECT_EQ(score_of.at(member), score_of.at(c.order))
          << order_to_string(member) << " vs rep " << order_to_string(c.order);
    }
  }
  EXPECT_EQ(pruned, funnel.stats.pruned);
  // Funnel accounting closes: every candidate class has exactly one fate.
  EXPECT_EQ(funnel.stats.simulated + funnel.stats.pruned +
                funnel.stats.budget_skipped,
            funnel.stats.classes);
  return {funnel, exhaustive_ranking(score_of).front()};
}

TEST(Tune, PruningIsSound) {
  TuneQuery query;
  query.comm_sizes = {32};
  query.total_bytes = {1 << 20};
  query.k = 2;
  query.threads = 4;
  const FunnelVsExhaustive run = expect_sound_pruning(topo::lumi(2), query);
  EXPECT_EQ(run.funnel.candidates[run.funnel.top.front()].order, run.argmin);
}

TEST(Tune, PrunesSoundlyAtDepthSixWithFiveTimesFewerSims) {
  // The funnel's reason to exist: on a depth-6 machine it simulates at
  // least 5x fewer points than exhaustive enumeration (24 of 720 here),
  // with the same top-1 and without pruning a true top-k order.
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {256 << 10};
  query.k = 3;
  query.threads = 4;
  const FunnelVsExhaustive run = expect_sound_pruning(deep6(), query);
  const Order& top1 = run.funnel.candidates[run.funnel.top.front()].order;
  EXPECT_EQ(top1, run.argmin) << order_to_string(top1) << " vs "
                              << order_to_string(run.argmin);
  const TuneStats& stats = run.funnel.stats;
  EXPECT_EQ(stats.orders, 720);
  EXPECT_GT(stats.pruned, 0);
  EXPECT_GE(stats.exhaustive_points, 5 * stats.sim_points)
      << stats.sim_points << " of " << stats.exhaustive_points;
  // Stage 2's critical-path DP runs only where the next wave needs it:
  // every class gets a floor, at most a fifth of them a DP pass.
  EXPECT_EQ(stats.bounds_computed, stats.classes);
  EXPECT_LE(5 * stats.bound_structures_built, stats.classes)
      << stats.bound_structures_built << " DP passes for " << stats.classes
      << " classes";
}

TEST(Tune, CandidatesPartitionOrdersAsTheSweepDoes) {
  // Stage 1 and run_sweep dedup by one rule, harness::sound_class_key,
  // read off the orders' digits. The tuner's candidates must group every
  // order exactly as the placements do, at every comm size of the query:
  // by the first communicator's core sequence (one communicator), by
  // SameSetsAndInternal signatures (all communicators, exact timing) or by
  // ExactPlacement signatures (all communicators, 2% slack), all taken from
  // mr::canonical_signature. One 64 B point and a one-point budget keep
  // the funnel past stage 1 cheap.
  struct Case {
    topo::Machine machine;
    std::vector<std::vector<std::int64_t>> comm_sizes;  ///< one per query.
  };
  const Case cases[] = {
      {topo::testbox(), {{4}, {8}, {16}, {4, 8}}},
      {topo::hydra(2), {{8}, {16}, {32}}},
      {topo::hydra_node(), {{8}, {16}}},
      {topo::lumi(2), {{16}, {32}}},
      // ⟦3,2,6⟧ at 2 and 4: some orders' cuts fall inside a digit (radix 3
      // first at 2), so signature keys and digit keys meet in one query.
      {topo::generic(3, 2, 6), {{2}, {4}, {2, 4}}},
  };
  for (const Case& c : cases) {
    const std::vector<Order> orders =
        all_orders_lexicographic(c.machine.depth());
    for (const auto& comm_sizes : c.comm_sizes) {
      for (const Concurrency concurrency :
           {Concurrency::SingleComm, Concurrency::AllComms}) {
        for (const double slack : {0.0, 0.02}) {
          TuneQuery query;
          query.comm_sizes = comm_sizes;
          query.total_bytes = {64};
          query.concurrency = concurrency;
          query.completion_slack = slack;
          query.k = 1;
          query.wave_size = 1;
          query.budget.max_points = 1;
          query.threads = 1;
          Engine engine;
          std::set<std::vector<Order>> funnel;
          for (const TuneCandidate& candidate :
               tune(engine, c.machine, query).candidates) {
            funnel.insert(candidate.members);
          }

          std::map<std::vector<std::int64_t>, std::vector<Order>> by_key;
          for (const Order& order : orders) {
            std::vector<std::int64_t> key;
            for (const std::int64_t comm_size : comm_sizes) {
              std::vector<std::int64_t> part = canonical_signature(
                  c.machine.hierarchy(), order, comm_size,
                  concurrency == Concurrency::SingleComm || slack > 0
                      ? Equivalence::ExactPlacement
                      : Equivalence::SameSetsAndInternal);
              if (concurrency == Concurrency::SingleComm) {
                part.resize(static_cast<std::size_t>(comm_size));
              }
              key.insert(key.end(), part.begin(), part.end());
            }
            by_key[key].push_back(order);
          }
          std::set<std::vector<Order>> placements;
          for (const auto& entry : by_key) placements.insert(entry.second);

          EXPECT_EQ(funnel, placements)
              << c.machine.name() << " comm sizes " << comm_sizes.size()
              << " starting " << comm_sizes.front()
              << (concurrency == Concurrency::AllComms ? " all" : " single")
              << " slack " << slack << ": " << funnel.size()
              << " candidates vs " << placements.size() << " classes";
        }
      }
    }
  }
}

TEST(Tune, ValidatesQueries) {
  Engine engine;
  const auto machine = topo::testbox();
  TuneQuery query;
  query.comm_sizes = {4};
  {
    TuneQuery bad = query;
    bad.comm_sizes = {};
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.comm_sizes = {5};  // does not divide 16 cores.
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.k = 0;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.completion_slack = -0.1;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.wave_size = 0;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.repetitions = 0;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.total_bytes = {0};
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.threads = -1;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  // The flow simulator's slack range, and budgets that cannot mean
  // "unlimited" or a cap, are rejected before any stage runs.
  for (const double slack : {0.5, 0.7, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    TuneQuery bad = query;
    bad.completion_slack = slack;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument) << slack;
  }
  {
    TuneQuery bad = query;
    bad.budget.max_points = -5;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument);
  }
  for (const double seconds : {-1.0, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    TuneQuery bad = query;
    bad.budget.max_seconds = seconds;
    EXPECT_THROW(tune(engine, machine, bad), invalid_argument) << seconds;
  }
  EXPECT_EQ(engine.plan_cache().stats().misses, 0);
}

TEST(Tune, CollectiveNamesRoundTrip) {
  for (const simmpi::Collective c :
       {simmpi::Collective::Alltoall, simmpi::Collective::Allgather,
        simmpi::Collective::Allreduce, simmpi::Collective::Bcast,
        simmpi::Collective::Reduce, simmpi::Collective::ReduceScatter,
        simmpi::Collective::Gather, simmpi::Collective::Scatter,
        simmpi::Collective::Scan, simmpi::Collective::Barrier}) {
    EXPECT_EQ(parse_collective(collective_name(c)), c);
  }
  EXPECT_THROW(parse_collective("alltoallw"), invalid_argument);
  EXPECT_THROW(parse_collective(""), invalid_argument);
}

/// Both stage-2 sums of one candidate, recomputed point by point in point
/// order: serialization floors and critical-path (analyze_jobs) bounds,
/// each deflated for the query's slack.
struct TierSums {
  double floor = 0;
  double dp = 0;
};

TierSums tier_sums(Engine& engine, const topo::Machine& machine,
                   const TuneReport& report, const TuneCandidate& c) {
  verify::binding::Options options;
  options.load_report = false;
  const TuneQuery& query = report.query;
  TierSums sums;
  for (const QueryPoint& point : report.points) {
    harness::MicrobenchConfig mb;
    mb.order = c.order;
    mb.comm_size = point.comm_size;
    mb.collective = point.collective;
    mb.total_bytes = point.total_bytes;
    mb.all_comms = query.concurrency == Concurrency::AllComms;
    mb.repetitions = query.repetitions;
    mb.completion_slack = query.completion_slack;
    const auto jobs = harness::protocol_jobs(engine, machine, mb);
    std::vector<verify::binding::JobBinding> bindings;
    for (const auto& job : jobs) {
      bindings.push_back({&job.plan->schedule, &job.plan->exec,
                          job.plan->repetitions, &job.core_of_rank,
                          job.start_time});
    }
    const auto result =
        verify::binding::analyze_jobs(machine, bindings, options);
    EXPECT_TRUE(result.clean()) << result.to_string();
    sums.dp += result.bound.for_slack(query.completion_slack);
    verify::binding::Bound floor;
    floor.lower_bound =
        verify::binding::serialization_floor(machine, {bindings}).front();
    sums.floor += floor.for_slack(query.completion_slack);
  }
  return sums;
}

TEST(Tune, LaneBoundsEqualPerPointAnalysis) {
  // Stage 2 has two tiers: every candidate gets its serialization floor,
  // and only candidates that could join the next wave get the
  // critical-path DP, in payload-lane passes (one per plan structure).
  // For every candidate both per-point sums are recomputed here: the floor
  // sum never exceeds the DP sum, lower_bound equals one of them bit for
  // bit, and every simulated candidate carries its DP sum. Replaying the
  // all-DP funnel — waves of wave_size in (DP sum, ring cost, order)
  // order, cut strictly against the reported scores — must simulate
  // exactly the report's candidates, wave for wave. The report must not
  // depend on the thread count.
  struct Input {
    topo::Machine machine;
    TuneQuery query;
    std::int64_t passes_per_candidate;  ///< distinct plan structures.
  };
  TuneQuery mixed;
  mixed.comm_sizes = {16};
  // 64 B selects alltoall_bruck, the other sizes alltoall_pairwise: two
  // structure groups per candidate.
  mixed.total_bytes = {256 << 10, 64, 512 << 10, 1 << 20};
  mixed.k = 2;
  mixed.wave_size = 4;
  mixed.threads = 1;
  // All six deep6 payloads select alltoall_pairwise: one pass, six lanes.
  const Input inputs[] = {{topo::hydra(2), mixed, 2},
                          {deep6(), deep6_grid(), 1}};

  for (const Input& in : inputs) {
    const topo::Machine& machine = in.machine;
    TuneQuery query = in.query;
    Engine engine;
    const TuneReport report = tune(engine, machine, query);
    const TuneStats& stats = report.stats;

    std::vector<double> dp(report.candidates.size());
    std::int64_t at_dp = 0;        // lower_bound is the DP sum...
    std::int64_t only_dp = 0;      // ...and differs from the floor sum.
    for (std::size_t i = 0; i < report.candidates.size(); ++i) {
      const TuneCandidate& c = report.candidates[i];
      const TierSums sums = tier_sums(engine, machine, report, c);
      dp[i] = sums.dp;
      EXPECT_LE(sums.floor, sums.dp)
          << machine.name() << " " << order_to_string(c.order);
      EXPECT_TRUE(c.lower_bound == sums.floor || c.lower_bound == sums.dp)
          << machine.name() << " " << order_to_string(c.order) << ": "
          << c.lower_bound << " is neither floor " << sums.floor << " nor DP "
          << sums.dp;
      if (c.fate == Fate::Simulated) {
        EXPECT_EQ(c.lower_bound, sums.dp)
            << machine.name() << " " << order_to_string(c.order);
      }
      at_dp += c.lower_bound == sums.dp ? 1 : 0;
      only_dp += c.lower_bound == sums.dp && sums.dp != sums.floor ? 1 : 0;
    }

    // Accounting: a floor per candidate; DP passes and lanes per refined
    // candidate, and no more refined candidates than carry a DP sum.
    const auto npoints = static_cast<std::int64_t>(report.points.size());
    const std::int64_t built = stats.bound_structures_built;
    EXPECT_EQ(stats.bounds_computed, stats.classes) << machine.name();
    EXPECT_EQ(built % in.passes_per_candidate, 0) << machine.name();
    const std::int64_t refined = built / in.passes_per_candidate;
    EXPECT_EQ(built + stats.bound_structure_reuses, refined * npoints)
        << machine.name();
    EXPECT_GE(refined, stats.simulated) << machine.name();
    EXPECT_GE(refined, only_dp) << machine.name();
    EXPECT_LE(refined, at_dp) << machine.name();
    EXPECT_LT(refined, stats.classes) << machine.name();

    // Replay the all-DP funnel on the recomputed DP sums.
    std::vector<std::size_t> stream(report.candidates.size());
    std::iota(stream.begin(), stream.end(), std::size_t{0});
    std::sort(stream.begin(), stream.end(), [&](std::size_t a, std::size_t b) {
      const TuneCandidate& x = report.candidates[a];
      const TuneCandidate& y = report.candidates[b];
      if (dp[a] != dp[b]) return dp[a] < dp[b];
      if (x.character.ring_cost != y.character.ring_cost) {
        return x.character.ring_cost < y.character.ring_cost;
      }
      return x.order < y.order;
    });
    std::vector<double> best;
    std::set<std::size_t> replayed;
    const auto wave = static_cast<std::size_t>(query.wave_size);
    for (std::size_t pos = 0, w = 0; pos < stream.size(); ++w) {
      const double kth = best.size() >= static_cast<std::size_t>(query.k)
                             ? best[static_cast<std::size_t>(query.k) - 1]
                             : std::numeric_limits<double>::infinity();
      if (dp[stream[pos]] > kth) break;
      std::size_t end = std::min(pos + wave, stream.size());
      while (dp[stream[end - 1]] > kth) --end;
      for (; pos < end; ++pos) {
        const TuneCandidate& c = report.candidates[stream[pos]];
        ASSERT_EQ(c.fate, Fate::Simulated)
            << machine.name() << " replay simulates "
            << order_to_string(c.order);
        EXPECT_EQ(c.wave, static_cast<int>(w)) << order_to_string(c.order);
        replayed.insert(stream[pos]);
        best.insert(std::upper_bound(best.begin(), best.end(), c.score),
                    c.score);
        if (best.size() > static_cast<std::size_t>(query.k)) best.pop_back();
      }
    }
    std::set<std::size_t> simulated;
    for (std::size_t i = 0; i < report.candidates.size(); ++i) {
      if (report.candidates[i].fate == Fate::Simulated) simulated.insert(i);
    }
    EXPECT_EQ(replayed, simulated) << machine.name();

    Engine threaded_engine;
    query.threads = 4;
    std::ostringstream serial_json, threaded_json;
    write_json(serial_json, report, /*candidates=*/true);
    const TuneReport threaded = tune(threaded_engine, machine, query);
    write_json(threaded_json, threaded, /*candidates=*/true);
    EXPECT_EQ(serial_json.str(), threaded_json.str()) << machine.name();
    EXPECT_EQ(threaded.stats.bound_structures_built, built) << machine.name();
  }
}

}  // namespace
}  // namespace mr::tune
