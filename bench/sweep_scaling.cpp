// Parallel sweep engine scaling: a Fig-3-shaped sweep (MPI_Alltoall on 16
// Hydra nodes, six orders, paper message sizes, 1 and 32 simultaneous
// communicators) run once serially (--threads=1 path) and once fanned out
// over the shared work-stealing pool.
//
// Reports wall-clock times and the speedup, verifies that the parallel
// CSV output is byte-identical to the serial one (the engine's
// determinism guarantee), and writes BENCH_sweep.json so the speedup is
// tracked across PRs. The default size cap keeps one pass around a few
// seconds; pass --max-size=536870912 for the full figure-3 axes.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench/bench_common.hpp"
#include "mixradix/topo/presets.hpp"

namespace {

std::string sweep_csv(mr::Engine& engine, const mr::topo::Machine& machine,
                      mr::harness::SweepConfig config) {
  config.all_comms = false;
  const auto single = run_sweep(engine, machine, config);
  config.all_comms = true;
  const auto simultaneous = run_sweep(engine, machine, config);
  std::ostringstream csv;
  mr::harness::write_figure_csv(csv, "sweep_scaling", single, simultaneous);
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

  // The screening step a real enumeration starts with: classify the order
  // space once so the kernel counters sit next to the sweep timings
  // (bench/enum_scaling measures this phase in isolation and at depth 7/8).
  mr::ClassifyStats classify_stats;
  const auto classify_start = std::chrono::steady_clock::now();
  (void)mr::classify_orders(engine, machine.hierarchy(), 16,
                            mr::Equivalence::SameSetsAndInternal, 0,
                            mr::MetricsImpl::Fast, &classify_stats);
  bench::print_kernel_counters(std::cout, "hydra16-classify", classify_stats,
                               seconds_since(classify_start));

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
  if (opts.tune_k > 0) {
    // --tune=K: let the autotuner pick which K orders to sweep instead of
    // the fixed figure-3 list (the funnel screens all 4! = 24 orders).
    config.tune_top_k = opts.tune_k;
    std::cout << "sweep_scaling: --tune=" << opts.tune_k
              << " (autotuner replaces the fixed order list)\n";
  }

  const int threads = opts.resolved_threads();
  const std::size_t points = 2 * config.orders.size() * config.sizes.size();
  std::cout << "sweep_scaling: " << points << " simulation points, serial vs "
            << threads << " thread(s)\n";

  config.threads = 1;
  const auto serial_start = std::chrono::steady_clock::now();
  const std::string serial_csv = sweep_csv(engine, machine, config);
  const double serial_seconds = seconds_since(serial_start);
  std::cout << "  serial:   " << serial_seconds << " s\n";

  config.threads = threads;
  const auto parallel_start = std::chrono::steady_clock::now();
  const std::string parallel_csv = sweep_csv(engine, machine, config);
  const double parallel_seconds = seconds_since(parallel_start);
  std::cout << "  parallel: " << parallel_seconds << " s\n";

  const bool identical = serial_csv == parallel_csv;
  const double speedup =
      parallel_seconds > 0 ? serial_seconds / parallel_seconds : 0.0;
  std::cout << "  speedup:  " << speedup << "x\n"
            << "  output identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  std::ofstream json("BENCH_sweep.json");
  json << "{\n"
       << "  \"bench\": \"sweep_scaling\",\n"
       << "  \"points\": " << points << ",\n"
       << "  \"max_size_bytes\": " << opts.max_size << ",\n"
       << "  \"repetitions\": " << opts.repetitions << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"serial_seconds\": " << serial_seconds << ",\n"
       << "  \"parallel_seconds\": " << parallel_seconds << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical_output\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "json written to BENCH_sweep.json\n";

  if (!opts.csv_path.empty()) {
    std::ofstream csv(opts.csv_path);
    csv << parallel_csv;
    std::cout << "csv written to " << opts.csv_path << "\n";
  }
  return identical ? 0 : 1;
}
