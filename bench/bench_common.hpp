// Shared plumbing for the figure-reproduction benches: CLI size caps,
// thread-count pinning, and CSV sidecar output next to the textual tables.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/simmpi/plan_cache.hpp"
#include "mixradix/util/thread_pool.hpp"

namespace bench {

/// Parse "--max-size=<bytes>" / "--reps=<n>" / "--threads=<n>" /
/// "--csv=<path>" / "--no-plan-cache" flags; the defaults reproduce the
/// paper's axes but can be shrunk for smoke runs. Threads defaults to 0 =
/// auto (the MIXRADIX_THREADS environment variable when set, else
/// hardware_concurrency); "--threads=1" forces the serial path.
/// "--no-plan-cache" recompiles every (order, size) point instead of
/// sharing plans through the engine's cache. Output is identical for every
/// thread count, with or without the cache.
struct Options {
  std::int64_t max_size = 512ll << 20;
  int repetitions = 2;
  int threads = 0;  ///< 0 = auto; passed through to SweepConfig::threads.
  bool no_plan_cache = false;  ///< --no-plan-cache: compile per point.
  /// "--tune=K": opt-in autotuner screening — forwarded to
  /// SweepConfig::tune_top_k, replacing the bench's fixed order list with
  /// the top-K orders mr::tune finds for the same workload. 0 = off.
  int tune_k = 0;
  std::string csv_path;

  /// Number of workers after resolving 0 = auto.
  int resolved_threads() const {
    return threads > 0
               ? threads
               : static_cast<int>(mr::util::ThreadPool::default_threads());
  }

  /// Testable core: throws std::invalid_argument on unknown flags and on
  /// malformed or out-of-range values.
  static Options parse_args(const std::vector<std::string>& args) {
    Options o;
    for (const std::string& arg : args) {
      if (arg.rfind("--max-size=", 0) == 0) {
        o.max_size = parse_int(arg, arg.substr(11), 1);
      } else if (arg.rfind("--reps=", 0) == 0) {
        o.repetitions = static_cast<int>(parse_int(arg, arg.substr(7), 1));
      } else if (arg.rfind("--threads=", 0) == 0) {
        o.threads = static_cast<int>(parse_int(arg, arg.substr(10), 1));
      } else if (arg.rfind("--csv=", 0) == 0) {
        o.csv_path = arg.substr(6);
      } else if (arg.rfind("--tune=", 0) == 0) {
        o.tune_k = static_cast<int>(parse_int(arg, arg.substr(7), 1));
      } else if (arg == "--no-plan-cache") {
        o.no_plan_cache = true;
      } else {
        throw std::invalid_argument(
            "unknown flag: " + arg +
            " (known: --max-size=B --reps=N --threads=N --csv=PATH "
            "--tune=K --no-plan-cache)");
      }
    }
    return o;
  }

  /// CLI entry point: parse_args with exit(2)-on-error reporting.
  static Options parse(int argc, char** argv) {
    try {
      return parse_args({argv + 1, argv + argc});
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      std::exit(2);
    }
  }

 private:
  /// Strict integer parse: the whole value must be digits (optional sign)
  /// and at least `min`.
  static std::int64_t parse_int(const std::string& flag,
                                const std::string& value, std::int64_t min) {
    std::size_t consumed = 0;
    std::int64_t parsed = 0;
    try {
      parsed = std::stoll(value, &consumed);
    } catch (const std::exception&) {
      throw std::invalid_argument("malformed integer in " + flag);
    }
    if (consumed != value.size()) {
      throw std::invalid_argument("malformed integer in " + flag);
    }
    if (parsed < min) {
      throw std::invalid_argument("value out of range in " + flag +
                                  " (minimum " + std::to_string(min) + ")");
    }
    return parsed;
  }
};

/// Engine-counter line in the style of the plan-cache stats line: one run's
/// executor instrumentation (events, queue/flow high-water marks, route
/// cache effectiveness).
inline void print_engine_counters(std::ostream& os,
                                  const mr::simmpi::TimedResult& result) {
  const auto& engine = result.engine_stats;
  const std::int64_t lookups =
      engine.route_cache_hits + engine.route_cache_misses;
  os << "engine: " << engine.events_processed << " events ("
     << engine.peak_event_queue << " peak queue), "
     << result.total_flow_events << " flow completions ("
     << result.flow_stats.peak_active_flows << " peak active flows), routes: "
     << engine.route_cache_hits << " hits / " << engine.route_cache_misses
     << " misses";
  if (lookups > 0) {
    os << " ("
       << static_cast<int>(
              static_cast<double>(engine.route_cache_hits) /
                  static_cast<double>(lookups) * 100.0 +
              0.5)
       << "% interned)";
  }
  os << "\n";
}

/// Enumeration-kernel counter line in the style of the plan-cache and
/// engine stats lines: one classification run's throughput and hash-group
/// verification counters (signatures hashed, collision checks performed,
/// genuine 128-bit collisions — expected 0).
inline void print_kernel_counters(std::ostream& os, const std::string& label,
                                  const mr::ClassifyStats& stats,
                                  double seconds) {
  os << "kernels[" << label << "]: " << stats.orders << " orders -> "
     << stats.classes << " classes in " << seconds << " s";
  if (seconds > 0) {
    os << " (" << static_cast<std::int64_t>(
                      static_cast<double>(stats.orders) / seconds + 0.5)
       << " orders/s)";
  }
  os << ", " << stats.signatures_hashed << " signatures hashed, "
     << stats.collision_checks << " collision checks ("
     << stats.hash_collisions << " hash collisions)\n";
}

/// Print the figure, the plan-cache line of the engine the sweeps ran on,
/// and the CSV sidecar when --csv is set.
inline void emit(const std::string& figure, const Options& opts,
                 mr::Engine& engine,
                 const std::vector<mr::harness::SweepSeries>& single,
                 const std::vector<mr::harness::SweepSeries>& simultaneous,
                 const std::string& title) {
  mr::harness::print_figure(std::cout, title, single, simultaneous);
  if (opts.no_plan_cache) {
    std::cout << "plan cache: bypassed (--no-plan-cache)\n";
  } else {
    const auto stats = engine.plan_cache().stats();
    std::cout << "plan cache: " << stats.entries << " plans, " << stats.hits
              << " hits / " << stats.misses << " compiles ("
              << static_cast<int>(stats.hit_rate() * 100.0 + 0.5)
              << "% hit rate)\n";
  }
  if (!opts.csv_path.empty()) {
    std::ofstream csv(opts.csv_path);
    mr::harness::write_figure_csv(csv, figure, single, simultaneous);
    std::cout << "csv written to " << opts.csv_path << "\n";
  }
}

}  // namespace bench
