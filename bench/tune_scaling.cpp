// mr::tune funnel validation and scaling: the three claims the autotuner
// ships with, measured and gated.
//
//  A. AGREEMENT — on every preset machine x paper message size, the
//     funnel's top-1 order equals the exhaustive sweep's argmin (the same
//     query with dedup and pruning disabled simulates all h! orders).
//  B. SCALING — on deep hierarchies (depth >= 6) the funnel runs >= 5x
//     fewer FlowSim invocations than exhaustive enumeration, while staying
//     SOUND: every pruned candidate's exhaustive score really is outside
//     the top k, and every dedup class member scores exactly its
//     representative's score.
//  C. DETERMINISM — the canonical JSON report is byte-identical for
//     --threads=1 and --threads=4.
//  D. AMORTIZATION — on a multi-payload query stage 2 bounds each
//     candidate's payload points in one lane pass (route resolution and
//     DP once for all lanes; >= 5 lanes per pass on the 6-payload grid),
//     with the canonical report byte-identical for --threads={1,4}; and an
//     incremental re-tune seeded from a subset-grid report reaches the
//     cold run's exact top-k with strictly fewer simulated candidates.
//
// Verdicts land in BENCH_tune.json (`top1_matches_exhaustive`,
// `pruning_sound`, `sim_reduction`, `identical_output`, `identical_ranking`,
// `bound_lanes_per_pass`, `incremental_same_topk`) so CI greps them.
// Pass --quick to trim part A's size axis and skip the depth-7 search.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Depth-6 variant of Hydra: the paper's node/socket/half/core levels with
/// the socket split into two NUMA domains and the core level into halves —
/// 6! = 720 orders, past what exhaustive sweeps comfortably enumerate.
mr::topo::Machine deep6() {
  std::vector<mr::topo::LevelSpec> levels = {
      {"node", 4, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 48.0e9},
      {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
      {"core", 2, 1.0e-7, 9.0e9, 12.0e9},
  };
  return mr::topo::Machine("deep6", std::move(levels));
}

/// Depth-7, 5040 orders: a binary cache/NUMA tree over 4-core leaves.
mr::topo::Machine deep7() {
  std::vector<mr::topo::LevelSpec> levels = {
      {"cabinet", 2, 2.0e-6, 25.0e9, 0.0},
      {"node", 2, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 48.0e9},
      {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
      {"core", 4, 1.0e-7, 9.0e9, 12.0e9},
  };
  return mr::topo::Machine("deep7", std::move(levels));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  bench::Options opts;
  try {
    opts = bench::Options::parse_args(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << " (tune_scaling also accepts --quick)\n";
    return 2;
  }
  mr::Engine& engine = bench::select_engine(opts);

  // ---- Part A: funnel top-1 == exhaustive argmin, presets x paper sizes --
  struct Preset {
    mr::topo::Machine machine;
    std::int64_t comm_size;
  };
  const std::vector<Preset> presets = {
      {mr::topo::testbox(), 4},
      {mr::topo::hydra(4), 16},
      {mr::topo::lumi(2), 32},
  };
  const auto sizes =
      mr::harness::paper_sizes(quick ? 128ll << 10 : std::min<std::int64_t>(
                                                         opts.max_size,
                                                         8ll << 20));

  std::size_t agreement_points = 0, agreement_failures = 0;
  std::int64_t funnel_sims = 0, exhaustive_sims = 0;
  const auto agreement_start = std::chrono::steady_clock::now();
  for (const Preset& preset : presets) {
    for (const std::int64_t bytes : sizes) {
      ++agreement_points;
      mr::tune::TuneQuery query;
      query.comm_sizes = {preset.comm_size};
      query.total_bytes = {bytes};
      query.k = 1;
      query.threads = opts.threads;
      query.repetitions = opts.repetitions;
      query.use_plan_cache = !opts.no_plan_cache;
      const auto funnel = mr::tune::tune(engine, preset.machine, query);

      mr::tune::TuneQuery brute = query;
      brute.dedup = false;
      brute.prune = false;
      const auto exhaustive = mr::tune::tune(engine, preset.machine, brute);

      funnel_sims += funnel.stats.sim_points;
      exhaustive_sims += exhaustive.stats.sim_points;
      const mr::Order& got = funnel.candidates[funnel.top.front()].order;
      const mr::Order& want =
          exhaustive.candidates[exhaustive.top.front()].order;
      if (got != want) {
        ++agreement_failures;
        std::cout << "  MISMATCH " << preset.machine.name() << "/" << bytes
                  << "B: funnel " << mr::order_to_string(got)
                  << " vs exhaustive " << mr::order_to_string(want) << "\n";
      }
    }
  }
  const double agreement_seconds = seconds_since(agreement_start);
  const bool top1_matches = agreement_failures == 0;
  std::cout << "tune_scaling A (agreement): " << agreement_points
            << " (machine, size) points, " << funnel_sims
            << " funnel sims vs " << exhaustive_sims << " exhaustive, "
            << agreement_points - agreement_failures << "/" << agreement_points
            << " top-1 agree, " << agreement_seconds << " s\n";

  // ---- Part B: >= 5x fewer FlowSim invocations at depth >= 6, soundly ----
  const auto machine6 = deep6();
  mr::tune::TuneQuery deep_query;
  deep_query.comm_sizes = {16};
  deep_query.total_bytes = {256ll << 10};
  deep_query.k = 3;
  deep_query.threads = opts.threads;
  deep_query.repetitions = opts.repetitions;
  deep_query.use_plan_cache = !opts.no_plan_cache;

  const auto deep_start = std::chrono::steady_clock::now();
  const auto funnel6 = mr::tune::tune(engine, machine6, deep_query);
  const double funnel6_seconds = seconds_since(deep_start);

  mr::tune::TuneQuery brute6 = deep_query;
  brute6.dedup = false;
  brute6.prune = false;
  const auto brute6_start = std::chrono::steady_clock::now();
  const auto exhaustive6 = mr::tune::tune(engine, machine6, brute6);
  const double brute6_seconds = seconds_since(brute6_start);

  // Exhaustive score of every order (all 720 were simulated).
  std::map<mr::Order, double> score_of;
  for (const auto& c : exhaustive6.candidates) {
    score_of[c.order] = c.score;
  }
  // The true k-th best score over all orders.
  std::vector<double> all_scores;
  all_scores.reserve(score_of.size());
  for (const auto& [order, score] : score_of) all_scores.push_back(score);
  std::sort(all_scores.begin(), all_scores.end());
  const double kth_best =
      all_scores[static_cast<std::size_t>(deep_query.k) - 1];

  std::size_t unsound_prunes = 0, class_mismatches = 0;
  for (const auto& c : funnel6.candidates) {
    if (c.fate == mr::tune::Fate::Pruned &&
        score_of.at(c.order) <= kth_best) {
      ++unsound_prunes;
      std::cout << "  UNSOUND PRUNE " << mr::order_to_string(c.order)
                << ": exhaustive score " << score_of.at(c.order)
                << " <= k-th best " << kth_best << "\n";
    }
    // Dedup soundness: every member of a class must score EXACTLY its
    // representative (byte-identical simulations, not approximations).
    for (const mr::Order& member : c.members) {
      if (score_of.at(member) != score_of.at(c.order)) {
        ++class_mismatches;
        std::cout << "  CLASS MISMATCH " << mr::order_to_string(member)
                  << " scores " << score_of.at(member) << " != rep "
                  << mr::order_to_string(c.order) << " "
                  << score_of.at(c.order) << "\n";
      }
    }
  }
  const mr::Order& top6_funnel = funnel6.candidates[funnel6.top.front()].order;
  const mr::Order& top6_brute =
      exhaustive6.candidates[exhaustive6.top.front()].order;
  const bool deep_top1 = top6_funnel == top6_brute;
  if (!deep_top1) ++agreement_failures;
  const bool pruning_sound = unsound_prunes == 0 && class_mismatches == 0;
  const double sim_reduction =
      funnel6.stats.sim_points > 0
          ? static_cast<double>(funnel6.stats.exhaustive_points) /
                static_cast<double>(funnel6.stats.sim_points)
          : 0.0;
  std::cout << "tune_scaling B (deep6, " << funnel6.stats.orders
            << " orders): " << funnel6.stats.classes << " classes, "
            << funnel6.stats.pruned << " pruned, " << funnel6.stats.simulated
            << " simulated -> " << funnel6.stats.sim_points << " of "
            << funnel6.stats.exhaustive_points << " sims (" << sim_reduction
            << "x reduction), funnel " << funnel6_seconds << " s vs exhaustive "
            << brute6_seconds << " s\n"
            << "  top-1 " << mr::order_to_string(top6_funnel)
            << (deep_top1 ? " == " : " != ") << mr::order_to_string(top6_brute)
            << ", pruning sound: " << (pruning_sound ? "yes" : "NO") << "\n";

  double sim_reduction7 = 0.0;
  if (!quick) {
    const auto machine7 = deep7();
    mr::tune::TuneQuery query7 = deep_query;
    const auto start7 = std::chrono::steady_clock::now();
    const auto funnel7 = mr::tune::tune(engine, machine7, query7);
    sim_reduction7 = funnel7.stats.sim_points > 0
                         ? static_cast<double>(funnel7.stats.exhaustive_points) /
                               static_cast<double>(funnel7.stats.sim_points)
                         : 0.0;
    std::cout << "tune_scaling B (deep7, " << funnel7.stats.orders
              << " orders): " << funnel7.stats.classes << " classes -> "
              << funnel7.stats.sim_points << " sims (" << sim_reduction7
              << "x reduction), " << seconds_since(start7) << " s\n";
  }

  // ---- Part C: byte-identical reports across thread counts ---------------
  mr::tune::TuneQuery det = deep_query;
  det.threads = 1;
  std::ostringstream serial_json;
  mr::tune::write_json(serial_json, mr::tune::tune(engine, machine6, det));
  det.threads = 4;
  std::ostringstream parallel_json;
  mr::tune::write_json(parallel_json, mr::tune::tune(engine, machine6, det));
  const bool identical = serial_json.str() == parallel_json.str();
  std::cout << "tune_scaling C (determinism): report identical for "
               "--threads={1,4}: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  // ---- Part D: payload-lane stage 2 + incremental re-tune ----------------
  // A multi-payload query on deep6: six payload sizes in one algorithm
  // regime, so every candidate's six points share one plan structure and
  // stage 2 bounds them in one lane pass. Each run gets its own engine.
  mr::tune::TuneQuery multi = deep_query;
  multi.total_bytes = {256ll << 10, 384ll << 10, 512ll << 10,
                       768ll << 10, 1024ll << 10, 1536ll << 10};
  // A wide first wave is where incremental seeding pays: the cold run
  // simulates the whole wave blind (no incumbents yet), the seeded run
  // starts with k real scores and stops at the exact bound cut. Both runs
  // use this same query, so the comparison is apples to apples.
  multi.wave_size = 32;

  const auto run_multi = [&](int threads) {
    mr::Engine fresh;
    mr::tune::TuneQuery q = multi;
    q.threads = threads;
    return mr::tune::tune(fresh, machine6, q);
  };
  const auto multi_serial = run_multi(1);
  const auto multi_threaded = run_multi(4);
  const auto canon = [](const mr::tune::TuneReport& r) {
    std::ostringstream os;
    mr::tune::write_json(os, r);
    return os.str();
  };
  const bool identical_ranking = canon(multi_serial) == canon(multi_threaded);

  const std::int64_t lane_passes = multi_serial.stats.bound_structures_built;
  const std::int64_t point_bounds =
      lane_passes + multi_serial.stats.bound_structure_reuses;
  const double bound_lanes_per_pass =
      lane_passes > 0 ? static_cast<double>(point_bounds) /
                            static_cast<double>(lane_passes)
                      : 0.0;
  std::cout << "tune_scaling D (payload lanes, deep6 x "
            << multi.total_bytes.size() << " payloads): " << lane_passes
            << " lane passes for " << point_bounds << " point bounds ("
            << bound_lanes_per_pass << " lanes per pass), stage-2 "
            << multi_serial.stats.bound_seconds << " s serial vs "
            << multi_threaded.stats.bound_seconds
            << " s on 4 threads, reports identical for threads {1,4}: "
            << (identical_ranking ? "yes" : "NO — RANKING DIVERGENCE") << "\n";

  // Incremental re-tune: tune the first half of the payload grid, then
  // re-tune the full grid seeded with that report — same engine, the
  // natural "the grid grew" workflow. The seeded run must reproduce the
  // cold full-grid top-k exactly while simulating strictly fewer
  // candidates (the seeds hand branch-and-bound k real incumbents at
  // wave 0).
  mr::Engine inc_engine;
  mr::tune::TuneQuery prev_query = multi;
  prev_query.total_bytes = {256ll << 10, 384ll << 10, 512ll << 10};
  const auto prev_report = mr::tune::tune(inc_engine, machine6, prev_query);
  const auto seeded =
      mr::tune::tune(inc_engine, machine6, multi, &prev_report);

  bool incremental_same_topk = seeded.top.size() == multi_serial.top.size();
  if (incremental_same_topk) {
    for (std::size_t r = 0; r < seeded.top.size(); ++r) {
      const auto& got = seeded.candidates[seeded.top[r]];
      const auto& want = multi_serial.candidates[multi_serial.top[r]];
      if (got.order != want.order || got.score != want.score) {
        incremental_same_topk = false;
        std::cout << "  TOP-K MISMATCH at rank " << r + 1 << ": seeded "
                  << mr::order_to_string(got.order) << " (" << got.score
                  << ") vs cold " << mr::order_to_string(want.order) << " ("
                  << want.score << ")\n";
      }
    }
  }
  const bool incremental_fewer =
      seeded.stats.simulated < multi_serial.stats.simulated &&
      seeded.stats.seeded_candidates > 0;
  std::cout << "tune_scaling D (incremental): "
            << seeded.stats.seeded_candidates << " seeds, "
            << seeded.stats.simulated << " simulated vs "
            << multi_serial.stats.simulated
            << " cold, top-k identical: "
            << (incremental_same_topk ? "yes" : "NO") << ", strictly fewer: "
            << (incremental_fewer ? "yes" : "NO") << "\n";

  const bool pass =
      top1_matches && deep_top1 && pruning_sound && sim_reduction >= 5.0 &&
      identical && identical_ranking && bound_lanes_per_pass >= 5.0 &&
      incremental_same_topk && incremental_fewer;

  std::ofstream json("BENCH_tune.json");
  json << "{\n"
       << "  \"bench\": \"tune_scaling\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"agreement_points\": " << agreement_points << ",\n"
       << "  \"funnel_sims\": " << funnel_sims << ",\n"
       << "  \"exhaustive_sims\": " << exhaustive_sims << ",\n"
       << "  \"agreement_seconds\": " << agreement_seconds << ",\n"
       << "  \"deep6_orders\": " << funnel6.stats.orders << ",\n"
       << "  \"deep6_classes\": " << funnel6.stats.classes << ",\n"
       << "  \"deep6_pruned\": " << funnel6.stats.pruned << ",\n"
       << "  \"deep6_sim_points\": " << funnel6.stats.sim_points << ",\n"
       << "  \"deep6_exhaustive_points\": " << funnel6.stats.exhaustive_points
       << ",\n"
       << "  \"deep6_funnel_seconds\": " << funnel6_seconds << ",\n"
       << "  \"deep6_exhaustive_seconds\": " << brute6_seconds << ",\n"
       << "  \"sim_reduction\": " << sim_reduction << ",\n"
       << "  \"sim_reduction_deep7\": " << sim_reduction7 << ",\n"
       << "  \"top1_matches_exhaustive\": "
       << (top1_matches && deep_top1 ? "true" : "false") << ",\n"
       << "  \"pruning_sound\": " << (pruning_sound ? "true" : "false")
       << ",\n"
       << "  \"identical_output\": " << (identical ? "true" : "false") << ",\n"
       << "  \"multi_payload_points\": " << multi.total_bytes.size() << ",\n"
       << "  \"bound_lane_passes\": " << lane_passes << ",\n"
       << "  \"bound_point_bounds\": " << point_bounds << ",\n"
       << "  \"bound_lanes_per_pass\": " << bound_lanes_per_pass << ",\n"
       << "  \"bound_seconds_serial\": " << multi_serial.stats.bound_seconds
       << ",\n"
       << "  \"bound_seconds_threaded\": "
       << multi_threaded.stats.bound_seconds << ",\n"
       << "  \"identical_ranking\": "
       << (identical_ranking ? "true" : "false") << ",\n"
       << "  \"incremental_seeded\": " << seeded.stats.seeded_candidates
       << ",\n"
       << "  \"incremental_simulated\": " << seeded.stats.simulated << ",\n"
       << "  \"cold_simulated\": " << multi_serial.stats.simulated << ",\n"
       << "  \"incremental_same_topk\": "
       << (incremental_same_topk ? "true" : "false") << ",\n"
       << "  \"incremental_fewer_sims\": "
       << (incremental_fewer ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "json written to BENCH_tune.json\n";
  return pass ? 0 : 1;
}
