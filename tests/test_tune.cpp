// mr::tune — the multi-fidelity order-search funnel. The load-bearing
// guarantees under test:
//  * EXACTNESS — with dedup and pruning on (the defaults), the top-k
//    ranking equals the exhaustive one (every order simulated, ranked by
//    (score, order)) across collectives, machines and comm sizes;
//  * DETERMINISM — the canonical JSON report is byte-identical for every
//    thread count, and point-budget truncation cuts at the same candidate
//    regardless of threads;
//  * SOUNDNESS — a pruned candidate's true score is strictly outside the
//    top k, and every dedup class member scores exactly its
//    representative;
//  * SHARDING — shards partition the candidate classes exactly.
#include "mixradix/tune/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/binding.hpp"

namespace mr::tune {
namespace {

TuneReport exhaustive(const topo::Machine& machine, TuneQuery query) {
  query.dedup = false;
  query.prune = false;
  query.budget = Budget{};
  return tune(machine, query);
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
  const TuneReport funnel = tune(machine, query);
  TuneQuery all = query;
  all.k = 1 << 20;  // full exhaustive ranking, not just the top k.
  const TuneReport brute = exhaustive(machine, all);

  std::map<Order, const TuneCandidate*> class_of;
  for (const TuneCandidate& c : funnel.candidates) {
    for (const Order& member : c.members) class_of[member] = &c;
  }
  std::map<Order, double> brute_score;
  for (const TuneCandidate& c : brute.candidates) brute_score[c.order] = c.score;
  std::vector<const TuneCandidate*> expected;
  std::set<const TuneCandidate*> seen;
  for (const std::size_t idx : brute.top) {
    const TuneCandidate* cls = class_of.at(brute.candidates[idx].order);
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
  query.completion_slack = simmpi::kDefaultCompletionSlack;
  query.k = 2;
  query.threads = 1;
  expect_matches_exhaustive(machine, query);
}

TEST(Tune, ReportIsByteIdenticalAcrossThreadCounts) {
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {1 << 20};
  query.k = 3;
  std::string baseline;
  for (const int threads : {1, 2, 4}) {
    query.threads = threads;
    std::ostringstream os;
    write_json(os, tune(machine, query));
    if (threads == 1) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "threads=" << threads;
    }
  }
}

TEST(Tune, PointBudgetTruncatesDeterministically) {
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {256 << 10};
  query.k = 2;
  query.wave_size = 4;
  // Dedup and pruning off so the candidate stream (all 24 orders) genuinely
  // outlives the budget — with them on, pruning can finish the set first
  // and the budget never trips.
  query.dedup = false;
  query.prune = false;
  query.budget.max_points = 6;  // not enough for the whole candidate set.
  std::string baseline;
  for (const int threads : {1, 4}) {
    query.threads = threads;
    const TuneReport report = tune(machine, query);
    EXPECT_FALSE(report.stats.exhausted);
    EXPECT_GT(report.stats.budget_skipped, 0);
    EXPECT_LE(report.stats.sim_points, query.budget.max_points);
    std::ostringstream os;
    write_json(os, report);
    if (threads == 1) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "threads=" << threads;
    }
  }
}

TEST(Tune, PruningIsSound) {
  // Every pruned candidate's true (exhaustively simulated) score must be
  // strictly worse than the k-th best, and every class member must score
  // exactly its representative — the two invariants exactness rests on.
  const auto machine = topo::lumi(2);
  TuneQuery query;
  query.comm_sizes = {32};
  query.total_bytes = {1 << 20};
  query.k = 2;
  query.threads = 4;
  const TuneReport funnel = tune(machine, query);
  const TuneReport brute = exhaustive(machine, query);

  std::map<Order, double> score_of;
  for (const TuneCandidate& c : brute.candidates) score_of[c.order] = c.score;
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
                funnel.stats.screened_out + funnel.stats.budget_skipped,
            funnel.stats.shard_classes);
}

TEST(Tune, ShardsPartitionTheCandidateClasses) {
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {64 << 10};
  query.k = 1;
  query.threads = 1;
  const TuneReport whole = tune(machine, query);

  std::vector<Order> sharded;
  std::int64_t total_classes = 0;
  query.shard_count = 3;
  for (int shard = 0; shard < query.shard_count; ++shard) {
    query.shard_index = shard;
    const TuneReport part = tune(machine, query);
    total_classes += part.stats.shard_classes;
    for (const TuneCandidate& c : part.candidates) sharded.push_back(c.order);
  }
  EXPECT_EQ(total_classes, whole.stats.classes);

  std::vector<Order> all;
  for (const TuneCandidate& c : whole.candidates) all.push_back(c.order);
  std::sort(all.begin(), all.end());
  std::sort(sharded.begin(), sharded.end());
  EXPECT_EQ(sharded, all);

  // The global best is found by exactly one shard.
  const Order& best = whole.candidates[whole.top.front()].order;
  int holders = 0;
  query.k = 1;
  for (int shard = 0; shard < query.shard_count; ++shard) {
    query.shard_index = shard;
    const TuneReport part = tune(machine, query);
    if (!part.top.empty() &&
        part.candidates[part.top.front()].order == best) {
      ++holders;
    }
  }
  EXPECT_EQ(holders, 1);
}

TEST(Tune, ScreenKeepCapsTheCandidateStream) {
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {64 << 10};
  query.k = 1;
  query.threads = 1;
  query.screen_keep = 4;
  const TuneReport report = tune(machine, query);
  EXPECT_EQ(report.stats.screened_out,
            report.stats.shard_classes - query.screen_keep);
  EXPECT_LE(report.stats.simulated, query.screen_keep);
  std::int64_t screened = 0;
  for (const TuneCandidate& c : report.candidates) {
    if (c.fate == Fate::Screened) ++screened;
  }
  EXPECT_EQ(screened, report.stats.screened_out);
}

TEST(Tune, ValidatesQueries) {
  const auto machine = topo::testbox();
  TuneQuery query;
  query.comm_sizes = {4};
  {
    TuneQuery bad = query;
    bad.comm_sizes = {};
    EXPECT_THROW(tune(machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.comm_sizes = {5};  // does not divide 16 cores.
    EXPECT_THROW(tune(machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.k = 0;
    EXPECT_THROW(tune(machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.shard_index = 2;
    bad.shard_count = 2;
    EXPECT_THROW(tune(machine, bad), invalid_argument);
  }
  {
    TuneQuery bad = query;
    bad.completion_slack = -0.1;
    EXPECT_THROW(tune(machine, bad), invalid_argument);
  }
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

TEST(Tune, LaneBoundsEqualPerPointAnalysis) {
  // Stage 2 bounds a candidate's points in payload-lane passes, one per
  // plan structure. Every candidate's lower_bound must still equal the sum
  // over points, in point order, of that point's own analyze_jobs bound —
  // bit for bit — and the report must not depend on the thread count.
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  // 64 B selects alltoall_bruck, the other sizes alltoall_pairwise: two
  // structure groups per candidate.
  query.total_bytes = {256 << 10, 64, 512 << 10, 1 << 20};
  query.k = 2;
  query.threads = 1;
  Engine engine;
  const TuneReport report = tune(engine, machine, query);

  verify::binding::Options options;
  options.load_report = false;
  for (const TuneCandidate& c : report.candidates) {
    double want = 0;
    for (const QueryPoint& point : report.points) {
      harness::MicrobenchConfig mb;
      mb.order = c.order;
      mb.comm_size = point.comm_size;
      mb.collective = point.collective;
      mb.total_bytes = point.total_bytes;
      mb.all_comms = true;
      mb.repetitions = query.repetitions;
      const auto jobs = harness::protocol_jobs(engine, machine, mb);
      std::vector<verify::binding::JobBinding> bindings;
      for (const auto& job : jobs) {
        bindings.push_back({&job.plan->schedule, &job.plan->exec,
                            job.plan->repetitions, &job.core_of_rank,
                            job.start_time});
      }
      const auto result =
          verify::binding::analyze_jobs(machine, bindings, options);
      ASSERT_TRUE(result.clean()) << result.to_string();
      want += result.bound.for_slack(query.completion_slack);
    }
    EXPECT_EQ(c.lower_bound, want) << order_to_string(c.order);
  }

  const auto npoints = static_cast<std::int64_t>(report.points.size());
  EXPECT_EQ(report.stats.bound_structures_built +
                report.stats.bound_structure_reuses,
            report.stats.bounds_computed * npoints);
  EXPECT_EQ(report.stats.bound_structures_built,
            2 * report.stats.bounds_computed);

  Engine threaded_engine;
  query.threads = 4;
  std::ostringstream serial_json, threaded_json;
  write_json(serial_json, report, /*candidates=*/true);
  write_json(threaded_json, tune(threaded_engine, machine, query),
             /*candidates=*/true);
  EXPECT_EQ(serial_json.str(), threaded_json.str());
}

TEST(Tune, IncrementalReTuneMatchesColdTopK) {
  // The canonical incremental shape: the payload grid grew. Seeding from
  // the subset-grid report must reproduce the cold full-grid top-k exactly
  // (same orders, bit-identical scores) without simulating more candidates.
  const auto machine = topo::hydra(2);
  TuneQuery full;
  full.comm_sizes = {16};
  full.total_bytes = {256 << 10, 512 << 10, 1 << 20};
  full.k = 2;
  full.threads = 1;

  Engine engine;
  const TuneReport cold = tune(engine, machine, full);

  TuneQuery subset = full;
  subset.total_bytes = {256 << 10};
  const TuneReport previous = tune(engine, machine, subset);
  const TuneReport seeded = tune(engine, machine, full, &previous);

  EXPECT_GT(seeded.stats.seeded_candidates, 0);
  EXPECT_LE(seeded.stats.simulated, cold.stats.simulated);
  ASSERT_EQ(seeded.top.size(), cold.top.size());
  for (std::size_t rank = 0; rank < cold.top.size(); ++rank) {
    const TuneCandidate& got = seeded.candidates[seeded.top[rank]];
    const TuneCandidate& want = cold.candidates[cold.top[rank]];
    EXPECT_EQ(got.order, want.order) << "rank " << rank;
    EXPECT_EQ(got.score, want.score) << "rank " << rank;
    EXPECT_EQ(got.points.size(), want.points.size());
    for (std::size_t pt = 0; pt < want.points.size(); ++pt) {
      EXPECT_EQ(got.points[pt].makespan, want.points[pt].makespan);
    }
  }
  // Seeds are provenance-visible: wave 0, counted in the canonical stats.
  std::int64_t wave0 = 0;
  for (const TuneCandidate& c : seeded.candidates) {
    if (c.fate == Fate::Simulated && c.wave == 0) ++wave0;
  }
  EXPECT_EQ(wave0, seeded.stats.seeded_candidates);
}

TEST(Tune, IncompatiblePreviousReportDegeneratesToColdRun) {
  // A previous report that fails any compatibility gate (here: a point
  // outside the new grid, and a different repetition count) must leave the
  // run byte-identical to a cold one — not silently half-seed it.
  const auto machine = topo::hydra(2);
  TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {256 << 10};
  query.k = 2;
  query.threads = 1;

  Engine engine;
  const auto json_of = [&](const TuneReport& r) {
    std::ostringstream os;
    write_json(os, r, /*candidates=*/true);
    return os.str();
  };
  const std::string cold = json_of(tune(engine, machine, query));

  TuneQuery superset = query;
  superset.total_bytes = {256 << 10, 1 << 20};  // NOT a subset of `query`.
  const TuneReport wider = tune(engine, machine, superset);
  EXPECT_EQ(json_of(tune(engine, machine, query, &wider)), cold);

  TuneQuery reps = query;
  reps.repetitions = query.repetitions + 1;
  const TuneReport other_reps = tune(engine, machine, reps);
  EXPECT_EQ(json_of(tune(engine, machine, query, &other_reps)), cold);
}

TEST(Tune, SweepScreeningReplacesOrdersWithTheTopK) {
  // SweepConfig::tune_top_k: the sweep runs exactly the tuner's top-k, in
  // ranked order, and its curves match sweeping those orders directly.
  const auto machine = topo::testbox();
  TuneQuery query;
  query.comm_sizes = {4};
  query.total_bytes = {64 << 10, 1 << 20};
  query.concurrency = Concurrency::AllComms;
  query.k = 2;
  query.threads = 1;
  const TuneReport report = tune(machine, query);

  harness::SweepConfig sweep;
  sweep.sizes = {64 << 10, 1 << 20};
  sweep.comm_size = 4;
  sweep.all_comms = true;
  sweep.threads = 1;
  sweep.completion_slack = 0.0;
  sweep.tune_top_k = 2;
  const auto tuned = run_sweep(machine, sweep);
  ASSERT_EQ(tuned.size(), 2u);
  for (std::size_t rank = 0; rank < tuned.size(); ++rank) {
    EXPECT_EQ(tuned[rank].character.order,
              report.candidates[report.top[rank]].order);
  }

  sweep.tune_top_k = 0;
  sweep.orders = {tuned[0].character.order, tuned[1].character.order};
  const auto direct = run_sweep(machine, sweep);
  for (std::size_t rank = 0; rank < tuned.size(); ++rank) {
    ASSERT_EQ(tuned[rank].results.size(), direct[rank].results.size());
    for (std::size_t si = 0; si < tuned[rank].results.size(); ++si) {
      EXPECT_EQ(tuned[rank].results[si].mean_bandwidth,
                direct[rank].results[si].mean_bandwidth);
    }
  }
}

}  // namespace
}  // namespace mr::tune
