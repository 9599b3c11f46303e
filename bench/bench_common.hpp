// Shared plumbing for the figure-reproduction benches: CLI size caps,
// thread-count pinning, --tune=K order screening, and the one sweep-and-
// emit tail (text table, plan-cache line, CSV sidecar) every figure ends in.
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
#include "mixradix/tune/search.hpp"

namespace bench {

/// Parse "--max-size=<bytes>" / "--reps=<n>" / "--threads=<n>" /
/// "--csv=<path>" / "--tune=<k>" flags over a bench's defaults; the
/// default-constructed ones reproduce the paper's axes but can be shrunk
/// for smoke runs. Threads defaults to 0 = auto (the MIXRADIX_THREADS
/// environment variable when set, else hardware_concurrency);
/// "--threads=1" forces the serial path. Output is identical for every
/// thread count.
struct Options {
  std::int64_t max_size = 512ll << 20;
  int repetitions = 2;
  int threads = 0;  ///< 0 = auto; passed through to SweepConfig::threads.
  /// "--tune=K": opt-in autotuner screening — each block of the figure
  /// sweeps the top-K orders mr::tune finds for its own workload instead
  /// of the bench's fixed order list (see tuned_orders). 0 = off.
  int tune_k = 0;
  std::string csv_path;

  /// Testable core: the flags in `args` applied over `o`, a bench's
  /// defaults (default-constructed unless given). Throws cli::InputError
  /// naming the flag on unknown flags and on malformed or out-of-range
  /// values.
  static Options parse_args(const std::vector<std::string>& args) {
    return parse_args(args, Options{});
  }
  static Options parse_args(const std::vector<std::string>& args,
                            Options o) {
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
    return parse(argc, argv, Options{});
  }
  static Options parse(int argc, char** argv, const Options& defaults) {
    try {
      return parse_args({argv + 1, argv + argc}, defaults);
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

/// --tune=K screening: the top-K orders mr::tune ranks, best first, for the
/// workload `config` sweeps — its collective, comm size, sizes (as
/// payloads), concurrency, repetitions, slack and threads — so the tuner's
/// objective, the sum of point makespans, ranks orders by the very points
/// the sweep draws.
inline std::vector<mr::Order> tuned_orders(
    mr::Engine& engine, const mr::topo::Machine& machine,
    const mr::harness::SweepConfig& config, int k) {
  mr::tune::TuneQuery query;
  query.collectives = {config.collective};
  query.comm_sizes = {config.comm_size};
  query.total_bytes = config.sizes;
  query.concurrency = config.all_comms ? mr::tune::Concurrency::AllComms
                                       : mr::tune::Concurrency::SingleComm;
  query.k = k;
  query.repetitions = config.repetitions;
  query.completion_slack = config.completion_slack;
  query.threads = config.threads;
  const mr::tune::TuneReport report = mr::tune::tune(engine, machine, query);
  std::vector<mr::Order> orders;
  for (const std::size_t idx : report.top) {
    orders.push_back(report.candidates[idx].order);
  }
  return orders;
}

/// The figure benches' shared tail: sweep `config` (repetitions and
/// threads from `opts`) with the collective in the first subcommunicator
/// only, then in all of them, on one engine; print the figure and that
/// engine's plan-cache line, and write the CSV sidecar when --csv is set.
/// With --tune=K each block first replaces `config.orders` by its own
/// tuned_orders.
inline void sweep_and_emit(const std::string& figure, const Options& opts,
                           const mr::topo::Machine& machine,
                           mr::harness::SweepConfig config,
                           const std::string& title) {
  config.repetitions = opts.repetitions;
  config.threads = opts.threads;
  mr::Engine engine;
  const auto block = [&](bool all_comms) {
    config.all_comms = all_comms;
    if (opts.tune_k > 0) {
      config.orders = tuned_orders(engine, machine, config, opts.tune_k);
    }
    return mr::harness::run_sweep(engine, machine, config);
  };
  const auto single = block(false);
  const auto simultaneous = block(true);
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
