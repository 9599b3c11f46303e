// Plan-cache effectiveness on a Fig-3-shaped sweep (MPI_Alltoall on 16
// Hydra nodes, six enumeration orders, paper message sizes, 1 and 32
// simultaneous communicators).
//
// The compiled plan of a sweep point depends only on (algorithm, p, count,
// repetitions) — never on the enumeration order — so all six orders (and
// both scenarios) of each message size share one cached compile. This
// bench runs the sweep once through the engine's plan cache and once with
// the cache bypassed (compile per point), verifies the CSV output is
// byte-identical, and writes BENCH_plan_cache.json with the hit rate and
// the end-to-end speedup so both are tracked across PRs.
#include <algorithm>
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
  mr::harness::write_figure_csv(csv, "plan_cache", single, simultaneous);
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
  config.threads = opts.threads;

  const std::size_t points = 2 * config.orders.size() * config.sizes.size();
  std::cout << "plan_cache: " << points
            << " sweep points, cached vs compile-per-point\n";

  // Pass 1 — determinism + hit rate on the full Fig-3 sweep (both
  // scenarios). Bypass first so its private compiles cannot warm the
  // engine's cache.
  mr::Engine engine;
  auto& cache = engine.plan_cache();
  config.use_plan_cache = false;
  const auto full_bypass_start = std::chrono::steady_clock::now();
  const std::string bypass_csv = sweep_csv(engine, machine, config);
  const double full_bypass_seconds = seconds_since(full_bypass_start);
  config.use_plan_cache = true;
  const auto full_cached_start = std::chrono::steady_clock::now();
  const std::string cached_csv = sweep_csv(engine, machine, config);
  const double full_cached_seconds = seconds_since(full_cached_start);
  const auto stats = cache.stats();
  const bool identical = cached_csv == bypass_csv;

  // Pass 2 — end-to-end speedup on the single-communicator sweep (Fig 3
  // left panel: 6 orders x sizes, one 16-rank communicator per point).
  // There a point's simulation is sub-millisecond, so the per-point
  // compile (plus, in verifying builds, the static analysis) is a
  // resolvable fraction of the wall time; the 32-communicator sweep is
  // simulation-bound and its timing — reported above as the full-sweep
  // seconds — hides the saving in noise. Min over alternating passes
  // strips the strictly additive scheduler noise.
  config.all_comms = false;
  double bypass_seconds = 0, cached_seconds = 0;
  for (int pass = 0; pass < 5; ++pass) {
    config.use_plan_cache = false;
    const auto bypass_start = std::chrono::steady_clock::now();
    (void)run_sweep(engine, machine, config);
    const double bypass_pass = seconds_since(bypass_start);

    cache.clear();  // every cached pass re-measures cold-to-warm
    config.use_plan_cache = true;
    const auto cached_start = std::chrono::steady_clock::now();
    (void)run_sweep(engine, machine, config);
    const double cached_pass = seconds_since(cached_start);

    bypass_seconds =
        pass == 0 ? bypass_pass : std::min(bypass_seconds, bypass_pass);
    cached_seconds =
        pass == 0 ? cached_pass : std::min(cached_seconds, cached_pass);
  }
  const double speedup =
      cached_seconds > 0 ? bypass_seconds / cached_seconds : 0.0;

  std::cout << "  full sweep (1 + 32 comms): " << full_bypass_seconds
            << " s bypass, " << full_cached_seconds << " s cached\n"
            << "  cache: " << stats.entries << " plans, " << stats.hits
            << " hits / " << stats.misses << " compiles ("
            << stats.hit_rate() * 100 << "% hit rate)\n"
            << "  single-comm sweep: " << bypass_seconds * 1e3
            << " ms bypass, " << cached_seconds * 1e3 << " ms cached ("
            << speedup << "x)\n"
            << "  output identical with and without the cache: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  std::ofstream json("BENCH_plan_cache.json");
  json << "{\n"
       << "  \"bench\": \"plan_cache\",\n"
       << "  \"points\": " << points << ",\n"
       << "  \"max_size_bytes\": " << opts.max_size << ",\n"
       << "  \"repetitions\": " << opts.repetitions << ",\n"
       << "  \"threads\": " << opts.resolved_threads() << ",\n"
       << "  \"gets\": " << stats.hits + stats.misses << ",\n"
       << "  \"hits\": " << stats.hits << ",\n"
       << "  \"misses\": " << stats.misses << ",\n"
       << "  \"hit_rate\": " << stats.hit_rate() << ",\n"
       << "  \"full_sweep_bypass_seconds\": " << full_bypass_seconds << ",\n"
       << "  \"full_sweep_cached_seconds\": " << full_cached_seconds << ",\n"
       << "  \"bypass_seconds\": " << bypass_seconds << ",\n"
       << "  \"cached_seconds\": " << cached_seconds << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical_output\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "json written to BENCH_plan_cache.json\n";
  return identical ? 0 : 1;
}
