// perfbench: the repository benchmark. One process runs one workload for a
// fixed wall-clock budget in a closed loop (the next query starts when the
// previous one returns) and prints, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload fig3_sweep|depth8_tune|splatt_cpd
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--perturb-reference] [--git TEXT] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics of untraced queries; --trace 1
// runs serial traced rounds and reports the per-layer metrics (see
// workloads.hpp). --smoke shrinks every input for the benchmark's tests;
// --perturb-reference scales one pinned reference value so its check fails.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::seconds_since;

struct Options {
  std::string workload;
  perfbench::Config config;
  double seconds = 10;
  bool trace = false;
  std::string git = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text, long long lo,
                    long long hi) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    usage("malformed value for " + flag + ": '" + text + "'");
  }
  if (used != text.size() || value < lo || value > hi) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.config.seed = static_cast<std::uint64_t>(
          parse_int(flag, value(), 0, std::numeric_limits<long long>::max()));
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_int(flag, value(), 1, 120));
    } else if (flag == "--trace") {
      o.trace = parse_int(flag, value(), 0, 1) == 1;
    } else if (flag == "--git") {
      o.git = value();
    } else if (flag == "--trace-out") {
      o.trace_out = value();
    } else if (flag == "--smoke") {
      o.config.smoke = true;
    } else if (flag == "--perturb-reference") {
      o.config.perturb_reference = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-up time, sampled in batches of warm set-ups, each long enough that
/// the clock's resolution does not matter. Batches are taken at the start
/// and again after every query, so their median spans the run the way the
/// query times do. The first set-up, which also pays one-time process work
/// (thread pool, first-touch memory), is printed but not sampled.
class SetupTimer {
 public:
  explicit SetupTimer(perfbench::Workload& workload) : workload_(workload) {
    const auto t0 = Clock::now();
    workload_.setup();
    first_ = seconds_since(t0);
    while (batch() < kBatchSeconds && reps_ < (1 << 20)) reps_ *= 2;
    for (int s = 0; s < kInitialSamples; ++s) sample();
  }

  void sample() { samples_.push_back(batch() / reps_); }
  double median_seconds() const { return median(samples_); }

  void print() const {
    std::cout << "setup: first " << first_ << " s; median of " << samples_.size()
              << " batches of " << reps_ << ": " << median_seconds() << " s\n";
  }

 private:
  static constexpr double kBatchSeconds = 0.02;
  static constexpr int kInitialSamples = 3;

  double batch() {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps_; ++r) workload_.setup();
    return seconds_since(t0);
  }

  perfbench::Workload& workload_;
  double first_ = 0;
  int reps_ = 1;
  std::vector<double> samples_;
};

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t last_ops = 1;  ///< ops of the last query that returned.

  void add(const perfbench::Checks& checks, const std::string& label) {
    attempted += checks.attempted();
    failed += checks.failed();
    last_ops = std::max<std::int64_t>(1, checks.attempted());
    for (const std::string& m : checks.messages()) {
      std::cout << "  FAILED (" << label << "): " << m << "\n";
    }
  }

  /// A query that throws fails every op it would have attempted.
  void add_throw(const std::exception& e, const std::string& label) {
    attempted += last_ops;
    failed += last_ops;
    std::cout << "  FAILED (" << label << "): threw: " << e.what() << "\n";
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Unit of every per-layer metric, in output order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"mr.classify_s", "s"},           {"mr.orders", "count"},
      {"mr.classes", "count"},          {"simmpi.plan_s", "s"},
      {"simmpi.plan_compiles", "count"}, {"simmpi.plan_hit_ratio", "ratio"},
      {"harness.jobs_s", "s"},          {"harness.jobs_calls", "count"},
      {"harness.self_s", "s"},          {"verify.bound_s", "s"},
      {"verify.bound_calls", "count"},  {"verify.bound_us_per_call", "us"},
      {"verify.structures_built", "count"}, {"verify.structure_reuses", "count"},
      {"sim.run_s", "s"},               {"sim.runs", "count"},
      {"sim.events", "count"},          {"sim.ns_per_event", "ns"},
      {"sim.flow_completions", "count"}, {"simnet.full_recomputes", "count"},
      {"simnet.pop_batches", "count"},  {"simnet.deferred_allocations", "count"},
      {"simnet.deferred_rejections", "count"}, {"simnet.peak_active_flows", "count"},
      {"apps.schedule_s", "s"},         {"apps.make_plan_s", "s"},
      {"tune.classes", "count"},        {"tune.pruned", "count"},
      {"tune.simulated", "count"},      {"tune.sim_points", "count"},
      {"tune.sim_point_ratio", "ratio"}, {"tune.self_s", "s"},
      {"pool.busy_ratio", "ratio"},     {"trace.overhead_ratio", "ratio"},
  };
  return units;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer values of one traced round.
std::map<std::string, double> round_metrics(const perfbench::TracedRound& round,
                                            const perfbench::LayerTimes& box,
                                            const perfbench::LayerTimes& replay,
                                            double busy_ratio) {
  const auto& c = round.counts;
  const double beyond = std::max(0.0, box.query_seconds - replay.layers_total());
  const auto n = [](std::int64_t v) { return static_cast<double>(v); };
  std::map<std::string, double> m;
  m["mr.classify_s"] = replay.call("mr.classify_orders");
  m["mr.orders"] = n(c.mr_orders);
  m["mr.classes"] = n(c.mr_classes);
  m["simmpi.plan_s"] = replay.layer("simmpi");
  m["simmpi.plan_compiles"] = n(c.plan_compiles);
  m["simmpi.plan_hit_ratio"] = ratio(n(c.plan_hits), n(c.plan_hits + c.plan_compiles));
  m["harness.jobs_s"] = replay.call("harness.protocol_jobs");
  m["harness.jobs_calls"] = n(c.jobs_calls);
  m["harness.self_s"] =
      replay.layer("harness") + (round.entry_layer == "harness" ? beyond : 0.0);
  m["verify.bound_s"] = replay.layer("verify");
  m["verify.bound_calls"] = n(c.bound_calls);
  m["verify.bound_us_per_call"] = 1e6 * ratio(replay.layer("verify"), n(c.bound_calls));
  m["verify.structures_built"] = n(c.structures_built);
  m["verify.structure_reuses"] = n(c.structure_reuses);
  m["sim.run_s"] = replay.layer("sim");
  m["sim.runs"] = n(c.sim_runs);
  m["sim.events"] = n(c.sim_events);
  m["sim.ns_per_event"] = 1e9 * ratio(replay.layer("sim"), n(c.sim_events));
  m["sim.flow_completions"] = n(c.flow_completions);
  m["simnet.full_recomputes"] = n(c.full_recomputes);
  m["simnet.pop_batches"] = n(c.pop_batches);
  m["simnet.deferred_allocations"] = n(c.deferred_allocations);
  m["simnet.deferred_rejections"] = n(c.deferred_rejections);
  m["simnet.peak_active_flows"] = n(c.peak_active_flows);
  m["apps.schedule_s"] =
      replay.call("apps.cpd_iteration_schedule") + replay.call("apps.alltoallv_schedule");
  m["apps.make_plan_s"] = replay.call("simmpi.make_plan");
  m["tune.classes"] = n(c.tune_classes);
  m["tune.pruned"] = n(c.tune_pruned);
  m["tune.simulated"] = n(c.tune_simulated);
  m["tune.sim_points"] = n(c.tune_sim_points);
  m["tune.sim_point_ratio"] = ratio(n(c.tune_sim_points), n(c.tune_exhaustive_points));
  m["tune.self_s"] = round.entry_layer == "tune" ? beyond : 0.0;
  m["pool.busy_ratio"] = busy_ratio;
  m["trace.overhead_ratio"] = ratio(replay.query_seconds, box.query_seconds);
  return m;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

/// Closed loop of untraced queries for the time budget; end-to-end metrics.
std::vector<Metric> run_untraced(perfbench::Workload& workload, const Options& opts,
                                 int threads, SetupTimer& setup, Tally& tally) {
  // Past the budget, queries continue up to kMinQueries while the next one
  // is expected to end within kOverrun budgets, so a slow host still
  // finishes in bounded time.
  constexpr int kMinQueries = 3;
  constexpr double kOverrun = 2.5;
  std::vector<double> wall, cpu;
  std::string digest;
  int throws = 0;
  const auto start = Clock::now();
  const auto more = [&] {
    const double elapsed = seconds_since(start);
    if (wall.empty() || elapsed < opts.seconds) return true;
    return static_cast<int>(wall.size()) < kMinQueries &&
           elapsed + wall.back() <= kOverrun * opts.seconds;
  };
  while (more() && throws < kMinQueries) {
    perfbench::QueryResult q;
    try {
      q = workload.query(threads);
    } catch (const std::exception& e) {
      ++throws;
      tally.add_throw(e, "query");
      continue;
    }
    wall.push_back(q.wall_seconds);
    cpu.push_back(q.cpu_seconds);
    tally.add(q.checks, "query " + std::to_string(wall.size()));
    if (digest.empty()) digest = q.digest;
    std::cout << "query " << wall.size() << ": " << q.wall_seconds << " s wall, "
              << q.cpu_seconds << " s cpu, " << q.checks.attempted() << " ops, "
              << q.checks.failed() << " failed, digest " << q.digest << "\n";
    setup.sample();
  }
  setup.print();
  const std::string pinned = workload.reference_digest();
  std::cout << "output digest " << digest << ": "
            << (pinned.empty() ? "no reference pinned for this seed"
                               : digest == pinned ? "byte-identical to the reference"
                                                  : "differs from the reference " + pinned)
            << " (information only)\n";
  const double ops = static_cast<double>(tally.attempted);
  std::cout << "samples: " << wall.size() << " queries, " << tally.attempted
            << " ops\n";
  return {
      {"query_s", "s", median(wall)},
      {"cpu_s", "s", median(cpu)},
      {"setup_s", "s", setup.median_seconds()},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"ops_ok_ratio", "ratio",
       ops > 0 ? (ops - static_cast<double>(tally.failed)) / ops : 0.0},
  };
}

/// One untraced parallel query (for pool.busy_ratio), then serial traced
/// rounds for the time budget; per-layer metrics as medians over rounds.
std::vector<Metric> run_traced(perfbench::Workload& workload, const Options& opts,
                               int threads, Tally& tally) {
  const auto start = Clock::now();
  perfbench::QueryResult q;
  try {
    q = workload.query(threads);
    tally.add(q.checks, "untraced query");
  } catch (const std::exception& e) {
    tally.add_throw(e, "untraced query");
  }
  const int used = workload.serial() ? 1 : threads;
  const double busy = ratio(q.cpu_seconds, used * q.wall_seconds);
  std::cout << "untraced query: " << q.wall_seconds << " s wall, " << q.cpu_seconds
            << " s cpu on " << used << " thread(s)\n";

  perfbench::Tracer tracer;
  std::map<std::string, std::vector<double>> values;
  perfbench::LayerCounts first_counts;
  perfbench::Fidelity fidelity;
  int rounds = 0;
  int throws = 0;
  while ((rounds < 1 || seconds_since(start) < opts.seconds) && throws < 2) {
    perfbench::TracedRound round;
    try {
      round = workload.traced(tracer);
    } catch (const std::exception& e) {
      ++throws;
      tally.add_throw(e, "traced round");
      continue;
    }
    ++rounds;
    tally.add(round.checks, "traced round " + std::to_string(rounds));
    fidelity.add(round.fidelity);
    // Deterministic counts must repeat exactly: one more op per round.
    ++tally.attempted;
    if (rounds == 1) {
      first_counts = round.counts;
    } else if (!(round.counts == first_counts)) {
      ++tally.failed;
      std::cout << "  FAILED: layer counts differ between traced rounds\n";
    }
    const auto box = perfbench::layer_times(tracer.spans(), round.blackbox_root);
    const auto replay = perfbench::layer_times(tracer.spans(), round.replay_root);
    for (const auto& [name, value] : round_metrics(round, box, replay, busy)) {
      values[name].push_back(value);
    }
    if (rounds == 1) {
      perfbench::print_share_table(std::cout, opts.workload + " replay", replay);
      std::cout << "black-box serial query " << box.query_seconds << " s; replay "
                << replay.query_seconds << " s; layers " << replay.layers_total()
                << " s; black-box time beyond the replayed layers ("
                << round.entry_layer << "): "
                << box.query_seconds - replay.layers_total() << " s\n";
      if (round.reported_bound_seconds >= 0) {
        const double replayed = replay.layer("verify") + replay.call("harness.protocol_jobs");
        std::cout << "tune() bound_seconds " << round.reported_bound_seconds
                  << " s vs replayed verify + protocol_jobs " << replayed
                  << " s (ratio " << ratio(replayed, round.reported_bound_seconds)
                  << ")\n";
      }
    }
  }
  std::cout << "replay fidelity: " << fidelity.compared - fidelity.differ << " of "
            << fidelity.compared << " replayed values bit-identical to the black-box call"
            << (fidelity.differ ? "; first difference: " + fidelity.first_difference : "")
            << " (information only)\n";
  std::cout << "samples: " << rounds << " traced round(s)\n";
  if (!opts.trace_out.empty()) {
    std::ofstream out(opts.trace_out);
    tracer.write_chrome_json(out);
    std::cout << "spans: " << tracer.spans().size() << " written to "
              << opts.trace_out << "\n";
  }
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_metric_units()) {
    metrics.push_back({name, unit, median(values[name])});
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  auto workload = perfbench::make_workload(opts.workload, opts.config);
  if (!workload) {
    std::string known;
    for (const auto& name : perfbench::workload_names()) known += " " + name;
    usage("unknown workload '" + opts.workload + "' (known:" + known + ")");
  }
  const int threads = nproc();
  try {
    std::cout << "perfbench workload=" << opts.workload << " seed=" << opts.config.seed
              << " seconds=" << opts.seconds << " trace=" << (opts.trace ? 1 : 0)
              << (opts.config.smoke ? " smoke" : "")
              << (opts.config.perturb_reference ? " perturb-reference" : "") << "\n";
    std::cout << "env: nproc=" << nproc() << " threads="
              << (workload->serial() ? 1 : threads) << " build=" << PERFBENCH_BUILD_TYPE
              << " compiler=\"" << PERFBENCH_COMPILER << "\" git=" << opts.git
              << "\n";
    SetupTimer setup(*workload);
    Tally tally;
    const std::vector<Metric> metrics =
        opts.trace ? run_traced(*workload, opts, threads, tally)
                   : run_untraced(*workload, opts, threads, setup, tally);
    print_result(tally, metrics);
  } catch (const std::exception& e) {
    // Queries that throw count as failed ops above; a set-up that throws
    // leaves nothing to measure, so the run fails without a result.
    std::cerr << "perfbench: " << opts.workload << " threw: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
