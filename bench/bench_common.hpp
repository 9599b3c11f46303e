// Shared plumbing for the figure-reproduction benches: CLI size caps,
// thread-count pinning, and CSV sidecar output next to the textual tables.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "examples/cli_common.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/simmpi/plan_cache.hpp"

namespace bench {

/// Parse "--max-size=<bytes>" / "--reps=<n>" / "--threads=<n>" /
/// "--csv=<path>" / "--tune=<k>" flags; the defaults reproduce the paper's
/// axes but can be shrunk for smoke runs. Threads defaults to 0 = auto (the
/// MIXRADIX_THREADS environment variable when set, else
/// hardware_concurrency); "--threads=1" forces the serial path. Output is
/// identical for every thread count.
struct Options {
  std::int64_t max_size = 512ll << 20;
  int repetitions = 2;
  int threads = 0;  ///< 0 = auto; passed through to SweepConfig::threads.
  /// "--tune=K": opt-in autotuner screening — forwarded to
  /// SweepConfig::tune_top_k, replacing the bench's fixed order list with
  /// the top-K orders mr::tune finds for the same workload. 0 = off.
  int tune_k = 0;
  std::string csv_path;

  /// Testable core: throws cli::InputError naming the flag on unknown
  /// flags and on malformed or out-of-range values.
  static Options parse_args(const std::vector<std::string>& args) {
    Options o;
    for (const std::string& arg : args) {
      if (arg.rfind("--max-size=", 0) == 0) {
        o.max_size = at_least<std::int64_t>("--max-size", arg.substr(11), 1);
      } else if (arg.rfind("--reps=", 0) == 0) {
        o.repetitions = at_least("--reps", arg.substr(7), 1);
      } else if (arg.rfind("--threads=", 0) == 0) {
        o.threads = at_least("--threads", arg.substr(10), 1);
      } else if (arg.rfind("--csv=", 0) == 0) {
        o.csv_path = arg.substr(6);
      } else if (arg.rfind("--tune=", 0) == 0) {
        o.tune_k = at_least("--tune", arg.substr(7), 1);
      } else {
        throw cli::InputError(
            "unknown flag " + arg +
            " (known: --max-size=B --reps=N --threads=N --csv=PATH --tune=K)");
      }
    }
    return o;
  }

  /// CLI entry point: parse_args with exit(2)-on-error reporting.
  static Options parse(int argc, char** argv) {
    try {
      return parse_args({argv + 1, argv + argc});
    } catch (const cli::InputError& e) {
      std::cerr << e.what() << "\n";
      std::exit(2);
    }
  }

 private:
  /// cli::number's strict parse, plus a lower bound.
  template <typename T = int>
  static T at_least(const std::string& flag, const std::string& value, T min) {
    const T parsed = cli::number<T>(flag, value);
    if (parsed < min) {
      throw cli::InputError("value out of range in " + flag + " (minimum " +
                            std::to_string(min) + ")");
    }
    return parsed;
  }
};

/// Print the figure, the plan-cache line of the engine the sweeps ran on,
/// and the CSV sidecar when --csv is set.
inline void emit(const std::string& figure, const Options& opts,
                 mr::Engine& engine,
                 const std::vector<mr::harness::SweepSeries>& single,
                 const std::vector<mr::harness::SweepSeries>& simultaneous,
                 const std::string& title) {
  mr::harness::print_figure(std::cout, title, single, simultaneous);
  const auto stats = engine.plan_cache().stats();
  std::cout << "plan cache: " << stats.entries << " plans, " << stats.hits
            << " hits / " << stats.misses << " compiles ("
            << static_cast<int>(stats.hit_rate() * 100.0 + 0.5)
            << "% hit rate)\n";
  if (!opts.csv_path.empty()) {
    std::ofstream csv(opts.csv_path);
    mr::harness::write_figure_csv(csv, figure, single, simultaneous);
    std::cout << "csv written to " << opts.csv_path << "\n";
  }
}

}  // namespace bench
