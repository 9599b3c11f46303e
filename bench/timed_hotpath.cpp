// Timed-executor hot-path overhaul on a Fig-3-shaped sweep (MPI_Alltoall
// on 16 Hydra nodes, six enumeration orders, paper message sizes).
//
// The optimized engine interns message routes in a per-workspace
// RouteTable, tracks flow completions with FlowSim's lazy deadline heap,
// and reuses one SimWorkspace per sweep thread; the reference engine
// (ExecOptions::reference) keeps the pre-overhaul cost profile — routes
// derived per message, O(active-flows) completion scans, fresh
// allocations per point — while evaluating the exact same floating-point
// expressions. This bench (1) proves the two produce byte-identical sweep
// CSVs across {completion slack on, off} x {serial, threaded}, (2) times
// the single-communicator sweep both ways (min over alternating passes)
// and (3) records the engine counters of one representative run, writing
// everything to BENCH_timed_hotpath.json so the speedup is tracked
// across PRs.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/topo/presets.hpp"

namespace {

std::string sweep_csv(mr::Engine& engine, const mr::topo::Machine& machine,
                      mr::harness::SweepConfig config) {
  config.all_comms = false;
  const auto single = run_sweep(engine, machine, config);
  config.all_comms = true;
  const auto simultaneous = run_sweep(engine, machine, config);
  std::ostringstream csv;
  mr::harness::write_figure_csv(csv, "timed_hotpath", single, simultaneous);
  return csv.str();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::Options::parse(argc, argv);
  if (opts.max_size == 512ll << 20) opts.max_size = 8ll << 20;  // bench default
  const auto machine = mr::topo::hydra(16);
  mr::Engine engine;

  mr::harness::SweepConfig config;
  config.orders = {
      mr::parse_order("0-1-2-3"), mr::parse_order("2-1-0-3"),
      mr::parse_order("1-3-0-2"), mr::parse_order("1-3-2-0"),
      mr::parse_order("3-1-0-2"), mr::parse_order("3-2-1-0"),
  };
  config.sizes = mr::harness::paper_sizes(opts.max_size);
  config.comm_size = 16;
  config.collective = mr::simmpi::Collective::Alltoall;
  config.repetitions = opts.repetitions;
  config.use_plan_cache = !opts.no_plan_cache;

  const std::size_t points = 2 * config.orders.size() * config.sizes.size();
  std::cout << "timed_hotpath: " << points
            << " sweep points, optimized vs reference engine\n";

  // Pass 1 — bit-identity across the full determinism matrix: the
  // reference and optimized engines must emit byte-identical CSVs with
  // completion slack on and off, serially and threaded (thread count only
  // changes which pool thread's workspace simulates a point).
  bool identical = true;
  for (const double slack : {mr::simmpi::kDefaultCompletionSlack, 0.0}) {
    config.completion_slack = slack;
    config.threads = 1;
    config.reference_engine = true;
    const std::string ref_serial = sweep_csv(engine, machine, config);
    config.reference_engine = false;
    const std::string opt_serial = sweep_csv(engine, machine, config);
    config.threads = opts.threads;
    const std::string opt_threaded = sweep_csv(engine, machine, config);
    const bool same =
        ref_serial == opt_serial && ref_serial == opt_threaded;
    identical = identical && same;
    std::cout << "  slack=" << slack
              << ": reference == optimized (serial, threads="
              << opts.resolved_threads() << "): " << (same ? "yes" : "NO")
              << "\n";
  }
  config.completion_slack = mr::simmpi::kDefaultCompletionSlack;
  config.threads = 1;

  // Pass 2 — end-to-end speedup on the single-communicator sweep (Fig 3
  // left panel), serial so the measurement is not at the mercy of the
  // pool. Min over alternating passes strips the strictly additive
  // scheduler noise.
  config.all_comms = false;
  double reference_seconds = 0, optimized_seconds = 0;
  for (int pass = 0; pass < 5; ++pass) {
    config.reference_engine = true;
    const auto ref_start = std::chrono::steady_clock::now();
    (void)run_sweep(engine, machine, config);
    const double ref_pass = seconds_since(ref_start);

    config.reference_engine = false;
    const auto opt_start = std::chrono::steady_clock::now();
    (void)run_sweep(engine, machine, config);
    const double opt_pass = seconds_since(opt_start);

    reference_seconds =
        pass == 0 ? ref_pass : std::min(reference_seconds, ref_pass);
    optimized_seconds =
        pass == 0 ? opt_pass : std::min(optimized_seconds, opt_pass);
  }
  const double speedup =
      optimized_seconds > 0 ? reference_seconds / optimized_seconds : 0.0;

  // Pass 3 — engine counters of one representative point (the largest
  // size, both scenarios' heaviest: all communicators at once), run twice
  // against one workspace so the second run shows the warm route table.
  mr::harness::MicrobenchConfig mb;
  mb.order = config.orders.front();
  mb.comm_size = config.comm_size;
  mb.collective = config.collective;
  mb.total_bytes = config.sizes.back();
  mb.all_comms = true;
  mb.repetitions = config.repetitions;
  mb.use_plan_cache = config.use_plan_cache;
  mr::simmpi::SimWorkspace workspace;
  mb.workspace = &workspace;
  (void)run_microbench(engine, machine, mb);  // cold: interns routes
  const mr::simmpi::TimedResult warm = [&] {
    // Re-run the heaviest point directly so the counters describe ONE
    // run_timed call (run_microbench aggregates away the TimedResult).
    mr::simmpi::ExecOptions exec;
    exec.workspace = &workspace;
    const auto plan = engine.plan_cache().get(
        mr::simmpi::PlanKey{mr::simmpi::selected_algorithm(
                                mb.collective,
                                static_cast<std::int32_t>(mb.comm_size),
                                std::max<std::int64_t>(
                                    1, mb.total_bytes / (8 * mb.comm_size)),
                                machine.costs().eager_threshold),
                            static_cast<std::int32_t>(mb.comm_size),
                            std::max<std::int64_t>(
                                1, mb.total_bytes / (8 * mb.comm_size)),
                            0, mb.repetitions});
    const auto placement =
        mr::placement_of_new_ranks(machine.hierarchy(), mb.order);
    std::vector<mr::simmpi::PlanJob> jobs;
    const std::int64_t ncomms = machine.cores() / mb.comm_size;
    for (std::int64_t k = 0; k < ncomms; ++k) {
      mr::simmpi::PlanJob job;
      job.plan = plan;
      job.core_of_rank.assign(
          placement.begin() + k * mb.comm_size,
          placement.begin() + (k + 1) * mb.comm_size);
      jobs.push_back(std::move(job));
    }
    return run_timed(machine, jobs, exec);
  }();
  std::cout << "  heaviest point (warm workspace): ";
  bench::print_engine_counters(std::cout, warm);

  std::cout << "  single-comm sweep: " << reference_seconds * 1e3
            << " ms reference, " << optimized_seconds * 1e3
            << " ms optimized (" << speedup << "x)\n"
            << "  output identical across engines, slack and threads: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  std::ofstream json("BENCH_timed_hotpath.json");
  json << "{\n"
       << "  \"bench\": \"timed_hotpath\",\n"
       << "  \"points\": " << points << ",\n"
       << "  \"max_size_bytes\": " << opts.max_size << ",\n"
       << "  \"repetitions\": " << opts.repetitions << ",\n"
       << "  \"threads\": " << opts.resolved_threads() << ",\n"
       << "  \"reference_seconds\": " << reference_seconds << ",\n"
       << "  \"optimized_seconds\": " << optimized_seconds << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"events_processed\": " << warm.engine_stats.events_processed
       << ",\n"
       << "  \"peak_event_queue\": " << warm.engine_stats.peak_event_queue
       << ",\n"
       << "  \"peak_active_flows\": " << warm.flow_stats.peak_active_flows
       << ",\n"
       << "  \"route_cache_hits\": " << warm.engine_stats.route_cache_hits
       << ",\n"
       << "  \"route_cache_misses\": " << warm.engine_stats.route_cache_misses
       << ",\n"
       << "  \"identical_output\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "json written to BENCH_timed_hotpath.json\n";
  return identical ? 0 : 1;
}
