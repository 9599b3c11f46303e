#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>

#include "mixradix/apps/splatt.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/metrics.hpp"
#include "mixradix/mr/permutation.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/plan_cache.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/prng.hpp"
#include "mixradix/verify/binding.hpp"
#include "reference.hpp"

namespace perfbench {

namespace {

namespace harness = mr::harness;
namespace simmpi = mr::simmpi;
namespace splatt = mr::apps::splatt;

constexpr std::int64_t kMiB = 1ll << 20;
constexpr std::size_t kMaxMessages = 8;

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Times one call's wall and CPU seconds into `out`.
template <typename Fn>
void timed_call(QueryResult& out, const Fn& fn) {
  const double cpu0 = cpu_now();
  const auto t0 = Clock::now();
  fn();
  out.wall_seconds = seconds_since(t0);
  out.cpu_seconds = cpu_now() - cpu0;
}

std::string fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// --perturb-reference: the first pinned value a workload checks is
/// scaled, so the check must fail.
double pinned(double value, const Config& config, bool first) {
  return config.perturb_reference && first ? value * 1.5 : value;
}

/// harness::protocol_jobs's per-rank element count for `total_bytes`.
std::int64_t count_for(std::int64_t total_bytes, std::int64_t comm_size) {
  return std::max<std::int64_t>(1, total_bytes / (8 * comm_size));
}

/// Compile (or fetch) the plan protocol_jobs will use for `mb`, under its
/// own span, so plan compilation is timed apart from job construction.
void warm_plan(Tracer& tracer, mr::Engine& engine, const mr::topo::Machine& machine,
               const harness::MicrobenchConfig& mb) {
  const std::int64_t count = count_for(mb.total_bytes, mb.comm_size);
  const auto p = static_cast<std::int32_t>(mb.comm_size);
  const simmpi::PlanKey key{
      simmpi::selected_algorithm(mb.collective, p, count,
                                 machine.costs().eager_threshold),
      p, count, 0, mb.repetitions};
  Scoped span(tracer, "simmpi.PlanCache::get");
  engine.plan_cache().get(key);
}

std::vector<simmpi::PlanJob> traced_jobs(Tracer& tracer, mr::Engine& engine,
                                         const mr::topo::Machine& machine,
                                         const harness::MicrobenchConfig& mb,
                                         LayerCounts& counts) {
  Scoped span(tracer, "harness.protocol_jobs");
  ++counts.jobs_calls;
  return harness::protocol_jobs(engine, machine, mb);
}

simmpi::TimedResult traced_run(Tracer& tracer, const mr::topo::Machine& machine,
                               const std::vector<simmpi::PlanJob>& jobs,
                               const simmpi::ExecOptions& exec,
                               LayerCounts& counts) {
  simmpi::TimedResult timed;
  {
    Scoped span(tracer, "sim.run_timed");
    timed = simmpi::run_timed(machine, jobs, exec);
  }
  counts.add_run(timed);
  return timed;
}

void record_plan_stats(mr::Engine& engine, LayerCounts& counts) {
  const auto stats = engine.plan_cache().stats();
  counts.plan_compiles += static_cast<std::int64_t>(stats.misses);
  counts.plan_hits += static_cast<std::int64_t>(stats.hits);
}

// ---- fig3_sweep ---------------------------------------------------------------
//
// harness::run_sweep on hydra(16): alltoall in 16-process communicators,
// all 24 orders, paper sizes up to 64 MiB, single-comm then all-comms, the
// default completion slack. The seed shuffles the order in which the orders
// are submitted; the output is canonicalised back to lexicographic order.

class Fig3Sweep final : public Workload {
 public:
  explicit Fig3Sweep(const Config& config) : config_(config) {}

  void setup() override {
    machine_.emplace(mr::topo::hydra(16));
    orders_.clear();
    if (config_.smoke) {
      for (const char* text : {"0-1-2-3", "2-1-0-3", "1-3-2-0", "3-2-1-0"}) {
        orders_.push_back(mr::parse_order(text));
      }
    } else {
      orders_ = mr::all_orders_lexicographic(4);
    }
    mr::util::Xoshiro256 rng(config_.seed);
    for (std::size_t i = orders_.size(); i > 1; --i) {
      std::swap(orders_[i - 1], orders_[rng.next_below(i)]);
    }
    sizes_ = harness::paper_sizes(config_.smoke ? kMiB : 64 * kMiB);
    engine_.emplace();
    engine_->thread_pool();
  }

  QueryResult query(int threads) override {
    QueryResult out;
    std::vector<harness::SweepSeries> single, simultaneous;
    timed_call(out, [&] { run(threads, single, simultaneous); });
    out.checks = check(single, simultaneous);
    out.digest = fnv1a_hex(canonical_csv(single, simultaneous));
    return out;
  }

  TracedRound traced(Tracer& tracer) override {
    TracedRound round;
    round.entry_layer = "harness";
    std::vector<harness::SweepSeries> single, simultaneous;
    round.blackbox_root = tracer.begin_query("fig3_sweep.blackbox");
    {
      Scoped span(tracer, "harness.run_sweep");
      run(1, single, simultaneous);
    }
    tracer.end(round.blackbox_root);
    round.checks = check(single, simultaneous);

    // Replay run_sweep -> run_microbench point by point.
    mr::Engine engine;
    auto lease = engine.workspace();
    simmpi::ExecOptions exec;
    exec.workspace = lease.get();
    LayerCounts& counts = round.counts;
    counts.mr_orders = static_cast<std::int64_t>(orders_.size());
    round.replay_root = tracer.begin_query("fig3_sweep.replay");
    for (int scenario = 0; scenario < 2; ++scenario) {
      const auto& series = scenario == 0 ? single : simultaneous;
      for (const mr::Order& order : orders_) {
        Scoped span(tracer, "mr.characterize_order");
        mr::characterize_order(machine_->hierarchy(), order, kCommSize,
                               mr::MetricsImpl::Fast);
      }
      for (std::size_t si = 0; si < sizes_.size(); ++si) {
        harness::MicrobenchConfig mb = point_config(scenario == 1, sizes_[si]);
        warm_plan(tracer, engine, *machine_, mb);
        for (std::size_t oi = 0; oi < orders_.size(); ++oi) {
          mb.order = orders_[oi];
          const auto jobs = traced_jobs(tracer, engine, *machine_, mb, counts);
          const auto timed = traced_run(tracer, *machine_, jobs, exec, counts);
          // run_microbench's mean bandwidth: summed in ascending order.
          std::vector<double> bw;
          for (const double finish : timed.job_finish) {
            bw.push_back(static_cast<double>(mb.total_bytes) /
                         (finish / mb.repetitions));
          }
          std::sort(bw.begin(), bw.end());
          double mean = 0;
          for (const double b : bw) mean += b;
          mean /= static_cast<double>(bw.size());
          round.fidelity.compare(mean == series[oi].results[si].mean_bandwidth,
                                 "bandwidth at " + point_name(scenario, oi, si));
        }
      }
    }
    tracer.end(round.replay_root);
    record_plan_stats(engine, counts);
    return round;
  }

  std::string reference_digest() const override {
    // The output is canonicalised, so the seed does not change it.
    return config_.smoke ? reference::kFig3SmokeDigest : reference::kFig3Digest;
  }

 private:
  static constexpr std::int64_t kCommSize = 16;
  static constexpr const char* kScenario[2] = {"single", "simultaneous"};
  static constexpr double kWinTol = 0.05;

  /// The query: both scenarios through one fresh engine.
  void run(int threads, std::vector<harness::SweepSeries>& single,
           std::vector<harness::SweepSeries>& simultaneous) const {
    mr::Engine engine;
    harness::SweepConfig sweep = sweep_config(threads);
    single = harness::run_sweep(engine, *machine_, sweep);
    sweep.all_comms = true;
    simultaneous = harness::run_sweep(engine, *machine_, sweep);
  }

  harness::SweepConfig sweep_config(int threads) const {
    harness::SweepConfig sweep;
    sweep.orders = orders_;
    sweep.sizes = sizes_;
    sweep.comm_size = kCommSize;
    sweep.collective = simmpi::Collective::Alltoall;
    sweep.threads = threads;
    return sweep;
  }

  harness::MicrobenchConfig point_config(bool all_comms, std::int64_t size) const {
    harness::MicrobenchConfig mb;
    mb.comm_size = kCommSize;
    mb.collective = simmpi::Collective::Alltoall;
    mb.total_bytes = size;
    mb.all_comms = all_comms;
    return mb;
  }

  std::size_t op_index(int scenario, std::size_t oi, std::size_t si) const {
    return (static_cast<std::size_t>(scenario) * orders_.size() + oi) *
               sizes_.size() + si;
  }

  std::string point_name(int scenario, std::size_t oi, std::size_t si) const {
    return std::string(kScenario[scenario]) + " " +
           mr::order_to_string(orders_[oi]) + " " + std::to_string(sizes_[si]) + "B";
  }

  /// Submission-order indices sorted back to lexicographic order.
  std::vector<std::size_t> canonical_indices() const {
    std::vector<std::size_t> idx(orders_.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return orders_[a] < orders_[b]; });
    return idx;
  }

  std::string canonical_csv(const std::vector<harness::SweepSeries>& single,
                            const std::vector<harness::SweepSeries>& simultaneous) const {
    std::vector<harness::SweepSeries> a, b;
    for (const std::size_t i : canonical_indices()) {
      a.push_back(single[i]);
      b.push_back(simultaneous[i]);
    }
    std::ostringstream os;
    harness::write_figure_csv(os, "fig3", a, b);
    return os.str();
  }

  Checks check(const std::vector<harness::SweepSeries>& single,
               const std::vector<harness::SweepSeries>& simultaneous) const {
    Checks checks(2 * orders_.size() * sizes_.size());
    const auto find = [&](const std::string& text) -> std::optional<std::size_t> {
      for (std::size_t i = 0; i < orders_.size(); ++i) {
        if (mr::order_to_string(orders_[i]) == text) return i;
      }
      return std::nullopt;
    };
    for (int scenario = 0; scenario < 2; ++scenario) {
      const auto& series = scenario == 0 ? single : simultaneous;
      for (std::size_t oi = 0; oi < orders_.size(); ++oi) {
        for (std::size_t si = 0; si < sizes_.size(); ++si) {
          const auto& r = series[oi].results[si];
          checks.expect(op_index(scenario, oi, si),
                        std::isfinite(r.mean_bandwidth) && r.mean_bandwidth > 0 &&
                            std::isfinite(r.mean_seconds_per_op) &&
                            r.mean_seconds_per_op > 0,
                        "non-finite or non-positive point " +
                            point_name(scenario, oi, si));
        }
      }
    }
    bool first = true;
    for (const auto& ref : reference::kFig3) {
      const int scenario = std::string(ref.scenario) == kScenario[0] ? 0 : 1;
      const auto oi = find(ref.order);
      const auto it = std::find(sizes_.begin(), sizes_.end(), ref.size);
      if (!oi || it == sizes_.end()) continue;
      const auto si = static_cast<std::size_t>(it - sizes_.begin());
      const auto& series = scenario == 0 ? single : simultaneous;
      checks.near(op_index(scenario, *oi, si),
                  series[*oi].results[si].mean_bandwidth / 1e6,
                  pinned(ref.bandwidth_mbs, config_, first),
                  "bandwidth MB/s at " + point_name(scenario, *oi, si));
      first = false;
    }
    // The paper's shape: the fully spread order wins alone from 1 MiB up
    // (smaller, latency-bound sizes favour packed orders), the packed order
    // wins under contention at large sizes. "Wins" allows kWinTol: orders
    // mapping communicators to the same resources differ by 1-3% under
    // completion slack (2-3-x-x vs 3-2-x-x all-comms).
    const auto wins = [&](int scenario, const std::string& text,
                          std::int64_t min_size) {
      const auto winner = find(text);
      if (!winner) return;
      const auto& series = scenario == 0 ? single : simultaneous;
      for (std::size_t si = 0; si < sizes_.size(); ++si) {
        if (sizes_[si] < min_size) continue;
        const double mine = series[*winner].results[si].mean_bandwidth;
        for (std::size_t oi = 0; oi < orders_.size(); ++oi) {
          checks.expect(op_index(scenario, *winner, si),
                        series[oi].results[si].mean_bandwidth * (1 - kWinTol) <= mine,
                        text + " does not win at " + point_name(scenario, oi, si));
        }
      }
    };
    wins(0, "0-1-2-3", kMiB);
    wins(1, "3-2-1-0", 8 * kMiB);
    return checks;
  }

  Config config_;
  std::optional<mr::topo::Machine> machine_;
  std::vector<mr::Order> orders_;
  std::vector<std::int64_t> sizes_;
  /// Built with the inputs, so set-up covers engine construction and the
  /// process thread pool; each query still runs on a fresh engine.
  std::optional<mr::Engine> engine_;
};

// ---- depth8_tune --------------------------------------------------------------
//
// tune::tune on the depth-8 binary tree of bench/fig_depth8_tuned (8! =
// 40320 orders): all-comms alltoall in 16-process communicators, payloads
// {1, 8, 64} MiB, k = 3, exact timing. The seed jitters every level's link
// latency and bandwidth by up to +-2%.

constexpr double kLinkJitter = 0.02;

mr::topo::Machine deep8(std::uint64_t seed) {
  std::vector<mr::topo::LevelSpec> levels = {
      {"cabinet", 2, 2.0e-6, 25.0e9, 0.0},
      {"node", 2, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 0.0},
      {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
      {"l2", 2, 1.1e-7, 15.0e9, 0.0},
      {"core", 2, 1.0e-7, 9.0e9, 12.0e9},
  };
  mr::util::Xoshiro256 rng(seed);
  const auto jitter = [&] { return 1.0 + kLinkJitter * (2.0 * rng.next_double() - 1.0); };
  for (auto& level : levels) {
    level.link_latency *= jitter();
    level.link_bandwidth *= jitter();
  }
  return mr::topo::Machine("deep8", std::move(levels));
}

class Depth8Tune final : public Workload {
 public:
  explicit Depth8Tune(const Config& config) : config_(config) {}

  void setup() override {
    machine_.emplace(deep8(config_.seed));
    orders_ = mr::all_orders_lexicographic(machine_->depth());
    query_ = mr::tune::TuneQuery{};
    query_.collectives = {simmpi::Collective::Alltoall};
    query_.comm_sizes = {16};
    query_.total_bytes = config_.smoke
                             ? std::vector<std::int64_t>{kMiB}
                             : std::vector<std::int64_t>{kMiB, 8 * kMiB, 64 * kMiB};
    query_.concurrency = mr::tune::Concurrency::AllComms;
    query_.k = 3;
    query_.completion_slack = 0.0;
    engine_.emplace();
    engine_->thread_pool();
  }

  QueryResult query(int threads) override {
    QueryResult out;
    mr::tune::TuneReport report;
    timed_call(out, [&] {
      mr::Engine engine;
      mr::tune::TuneQuery q = query_;
      q.threads = threads;
      report = mr::tune::tune(engine, *machine_, q);
    });
    out.checks = check(report);
    out.digest = fnv1a_hex(report_json(report));
    return out;
  }

  TracedRound traced(Tracer& tracer) override {
    TracedRound round;
    round.entry_layer = "tune";
    mr::tune::TuneReport report;
    {
      mr::Engine engine;
      mr::tune::TuneQuery q = query_;
      q.threads = 1;
      round.blackbox_root = tracer.begin_query("depth8_tune.blackbox");
      {
        Scoped span(tracer, "tune.tune");
        report = mr::tune::tune(engine, *machine_, q);
      }
      tracer.end(round.blackbox_root);
    }
    round.checks = check(report);
    round.reported_bound_seconds = report.stats.bound_seconds;
    const auto& stats = report.stats;
    LayerCounts& counts = round.counts;
    counts.tune_classes = stats.classes;
    counts.tune_pruned = stats.pruned;
    counts.tune_simulated = stats.simulated;
    counts.tune_sim_points = stats.sim_points;
    counts.tune_exhaustive_points = stats.exhaustive_points;

    // Replay funnel stages 1-3 on the candidates tune() reported.
    mr::Engine engine;
    const mr::Hierarchy& h = machine_->hierarchy();
    const std::int64_t comm = query_.comm_sizes.front();
    round.replay_root = tracer.begin_query("depth8_tune.replay");
    mr::ClassifyStats cs;
    {
      Scoped span(tracer, "mr.classify_orders");
      mr::classify_orders(engine, h, comm, mr::Equivalence::SameSetsAndInternal,
                          1, mr::MetricsImpl::Fast, &cs);
    }
    counts.mr_orders = cs.orders;
    counts.mr_classes = cs.classes;
    round.fidelity.compare(cs.classes == stats.classes, "class count");
    for (const auto& c : report.candidates) {
      Scoped span(tracer, "mr.characterize_order");
      mr::characterize_order(h, c.order, comm, mr::MetricsImpl::Fast);
    }
    harness::MicrobenchConfig mb;
    mb.comm_size = comm;
    mb.collective = simmpi::Collective::Alltoall;
    mb.all_comms = true;
    mb.repetitions = query_.repetitions;
    mb.completion_slack = query_.completion_slack;
    for (const std::int64_t bytes : query_.total_bytes) {
      mb.total_bytes = bytes;
      warm_plan(tracer, engine, *machine_, mb);
    }
    for (std::size_t i = 0; i < report.candidates.size(); ++i) {
      const auto& c = report.candidates[i];
      mb.order = c.order;
      double bound = 0;
      for (const std::int64_t bytes : query_.total_bytes) {
        mb.total_bytes = bytes;
        const auto jobs = traced_jobs(tracer, engine, *machine_, mb, counts);
        std::vector<mr::verify::binding::JobBinding> bindings;
        for (const auto& job : jobs) {
          bindings.push_back({&job.plan->schedule, &job.plan->exec,
                              job.plan->repetitions, &job.core_of_rank,
                              job.start_time});
        }
        bool reused = false;
        mr::verify::binding::Result result;
        {
          Scoped span(tracer, "verify.BoundCache::analyze");
          result = engine.bound_cache().analyze(*machine_, bindings, &reused);
        }
        ++counts.bound_calls;
        ++(reused ? counts.structure_reuses : counts.structures_built);
        if (result.clean()) bound += result.bound.for_slack(query_.completion_slack);
      }
      round.fidelity.compare(bound == c.lower_bound,
                             "lower bound of " + mr::order_to_string(c.order));
    }
    auto lease = engine.workspace();
    simmpi::ExecOptions exec;
    exec.completion_slack = query_.completion_slack;
    exec.workspace = lease.get();
    for (std::size_t i = 0; i < report.candidates.size(); ++i) {
      const auto& c = report.candidates[i];
      if (c.fate != mr::tune::Fate::Simulated) continue;
      mb.order = c.order;
      double score = 0;
      for (const std::int64_t bytes : query_.total_bytes) {
        mb.total_bytes = bytes;
        const auto jobs = traced_jobs(tracer, engine, *machine_, mb, counts);
        score += traced_run(tracer, *machine_, jobs, exec, counts).makespan;
      }
      round.fidelity.compare(score == c.score,
                             "score of " + mr::order_to_string(c.order));
    }
    tracer.end(round.replay_root);
    record_plan_stats(engine, counts);
    round.fidelity.compare(counts.structures_built == stats.bound_structures_built &&
                               counts.structure_reuses == stats.bound_structure_reuses,
                           "bound-structure builds and reuses");
    return round;
  }

  std::string reference_digest() const override {
    if (config_.seed != kPinnedSeed) return "";
    return config_.smoke ? reference::kDepth8SmokeDigest : reference::kDepth8Digest;
  }

 private:
  static std::string report_json(const mr::tune::TuneReport& report) {
    std::ostringstream os;
    mr::tune::write_json(os, report, true);
    return os.str();
  }

  Checks check(const mr::tune::TuneReport& report) const {
    const auto& stats = report.stats;
    const std::size_t n = report.candidates.size();
    Checks checks(n);
    std::int64_t simulated = 0, pruned = 0, members = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& c = report.candidates[i];
      const std::string name = mr::order_to_string(c.order);
      members += static_cast<std::int64_t>(c.members.size());
      checks.expect(i, std::isfinite(c.lower_bound) && c.lower_bound > 0,
                    "bad lower bound for " + name);
      if (c.fate == mr::tune::Fate::Simulated) {
        ++simulated;
        checks.expect(i, std::isfinite(c.score) && c.score > 0,
                      "bad score for " + name);
        checks.expect(i, c.lower_bound <= c.score,
                      "lower bound above simulated score for " + name);
      } else {
        ++pruned;
        checks.expect(i, c.fate == mr::tune::Fate::Pruned,
                      "candidate neither simulated nor pruned: " + name);
      }
    }
    const auto npoints = static_cast<std::int64_t>(report.points.size());
    const bool closes =
        n > 0 && stats.orders == static_cast<std::int64_t>(orders_.size()) &&
        members == stats.orders && stats.classes == static_cast<std::int64_t>(n) &&
        stats.bounds_computed == stats.classes && stats.simulated == simulated &&
        stats.pruned == pruned &&
        stats.simulated + stats.pruned + stats.screened_out + stats.budget_skipped ==
            stats.classes &&
        stats.sim_points == stats.simulated * npoints &&
        stats.exhaustive_points == stats.orders * npoints && stats.exhausted;
    if (n > 0) {
      checks.expect(0, closes, "funnel accounting does not close");
      checks.expect(0, report.top.size() == static_cast<std::size_t>(query_.k),
                    "top-k has the wrong size");
    }
    // The ranking is deterministic by (score, representative order), so
    // the pinned seed must reproduce the pinned orders rank by rank; the
    // jitter of other seeds may reorder near-ties, so there only the
    // scores are checked.
    const auto& top = config_.smoke ? reference::kDepth8SmokeTop : reference::kDepth8Top;
    for (std::size_t r = 0; r < std::min(top.size(), report.top.size()); ++r) {
      const auto& c = report.candidates[report.top[r]];
      const std::string name = mr::order_to_string(c.order);
      const std::string rank = "rank-" + std::to_string(r + 1);
      checks.near(report.top[r], c.score, pinned(top[r].score, config_, r == 0),
                  rank + " score (" + name + ")");
      if (config_.seed != kPinnedSeed) continue;
      checks.expect(report.top[r], name == top[r].order,
                    rank + " order " + name + ", pinned " + top[r].order);
    }
    return checks;
  }

  Config config_;
  std::optional<mr::topo::Machine> machine_;
  std::vector<mr::Order> orders_;
  mr::tune::TuneQuery query_;
  /// As in Fig3Sweep: part of set-up, unused by the queries.
  std::optional<mr::Engine> engine_;
};

// ---- splatt_cpd ---------------------------------------------------------------
//
// apps::splatt::simulate_cpd on hydra(32, 1) (1024 ranks) for all 24
// orders, one simulated iteration, serial like Fig. 8. The seed selects the
// synthetic nell-1-like tensor.

class SplattCpd final : public Workload {
 public:
  explicit SplattCpd(const Config& config) : config_(config) {}

  void setup() override {
    machine_.emplace(mr::topo::hydra(32, 1));
    spec_ = splatt::nell1_like(config_.seed);
    grid_ = splatt::default_grid(static_cast<std::int32_t>(machine_->cores()));
    orders_.clear();
    if (config_.smoke) {
      for (const char* text : {"0-1-2-3", "1-3-2-0", "3-2-1-0"}) {
        orders_.push_back(mr::parse_order(text));
      }
    } else {
      orders_ = mr::all_orders_lexicographic(machine_->depth());
    }
    cpd_ = splatt::CpdConfig{};
    cpd_.sim_iterations = 1;
  }

  bool serial() const override { return true; }

  QueryResult query(int /*threads*/) override {
    QueryResult out;
    std::vector<splatt::CpdResult> results;
    timed_call(out, [&] {
      for (const mr::Order& order : orders_) {
        results.push_back(splatt::simulate_cpd(*machine_, spec_, order, cpd_));
      }
    });
    out.checks = check(results);
    out.digest = fnv1a_hex(digest_text(results));
    return out;
  }

  TracedRound traced(Tracer& tracer) override {
    TracedRound round;
    round.entry_layer = "apps";
    std::vector<splatt::CpdResult> results;
    round.blackbox_root = tracer.begin_query("splatt_cpd.blackbox");
    for (const mr::Order& order : orders_) {
      Scoped span(tracer, "apps.simulate_cpd");
      results.push_back(splatt::simulate_cpd(*machine_, spec_, order, cpd_));
    }
    tracer.end(round.blackbox_root);
    round.checks = check(results);

    // Replay simulate_cpd: schedule, plan, timed run; twice per order (the
    // whole mode block, then the layer alltoallv alone).
    LayerCounts& counts = round.counts;
    counts.mr_orders = static_cast<std::int64_t>(orders_.size());
    const double scale = 3.0 * cpd_.iterations / cpd_.sim_iterations;
    round.replay_root = tracer.begin_query("splatt_cpd.replay");
    for (std::size_t i = 0; i < orders_.size(); ++i) {
      simmpi::PlanJob job;
      {
        Scoped span(tracer, "mr.placement_of_new_ranks");
        const auto placement =
            mr::placement_of_new_ranks(machine_->hierarchy(), orders_[i]);
        job.core_of_rank.assign(placement.begin(), placement.end());
      }
      const auto seconds = [&](simmpi::Schedule schedule, const char* label) {
        {
          Scoped span(tracer, "simmpi.make_plan");
          job.plan = std::make_shared<const simmpi::Plan>(
              simmpi::make_plan(std::move(schedule), cpd_.sim_iterations, label));
        }
        ++counts.plan_compiles;
        return traced_run(tracer, *machine_, {job}, simmpi::ExecOptions{}, counts)
                   .makespan * scale;
      };
      simmpi::Schedule block;
      {
        Scoped span(tracer, "apps.cpd_iteration_schedule");
        block = splatt::cpd_iteration_schedule(*machine_, spec_, grid_, cpd_);
      }
      const double total = seconds(std::move(block), "cpd_mode_block");
      simmpi::Schedule alltoallv;
      {
        Scoped span(tracer, "apps.alltoallv_schedule");
        alltoallv = mode0_alltoallv();
      }
      const double comm = seconds(std::move(alltoallv), "cpd_mode_alltoallv");
      const std::string name = mr::order_to_string(orders_[i]);
      round.fidelity.compare(total == results[i].seconds, "CPD seconds of " + name);
      round.fidelity.compare(comm == results[i].alltoallv_seconds,
                             "alltoallv seconds of " + name);
    }
    tracer.end(round.replay_root);
    return round;
  }

  std::string reference_digest() const override {
    if (config_.seed != kPinnedSeed) return "";
    return config_.smoke ? reference::kSplattSmokeDigest : reference::kSplattDigest;
  }

 private:
  /// simulate_cpd's layer-alltoallv schedule, rebuilt from public calls:
  /// every mode-0 layer communicator's alltoallv merged into one schedule.
  simmpi::Schedule mode0_alltoallv() const {
    const auto comms = splatt::layer_comms(grid_, 0);
    std::vector<simmpi::Schedule> parts;
    for (std::size_t layer = 0; layer < comms.size(); ++layer) {
      parts.push_back(simmpi::alltoallv_pairwise(splatt::layer_volumes(
          spec_, grid_, 0, static_cast<std::int64_t>(layer), cpd_.factor_rank)));
    }
    return simmpi::merge(parts, comms, grid_.nprocs());
  }

  std::string digest_text(const std::vector<splatt::CpdResult>& results) const {
    std::string text;
    for (std::size_t i = 0; i < orders_.size(); ++i) {
      text += mr::order_to_string(orders_[i]) + " " + fmt(results[i].seconds) + " " +
              fmt(results[i].alltoallv_seconds) + "\n";
    }
    return text;
  }

  Checks check(const std::vector<splatt::CpdResult>& results) const {
    Checks checks(orders_.size());
    std::vector<double> totals, alltoallvs;
    std::optional<std::size_t> slurm;
    std::size_t best = 0;
    bool first = true;
    for (std::size_t i = 0; i < orders_.size(); ++i) {
      const auto& r = results[i];
      const std::string name = mr::order_to_string(orders_[i]);
      checks.expect(i, std::isfinite(r.seconds) && r.seconds > 0 &&
                           std::isfinite(r.alltoallv_seconds) && r.alltoallv_seconds > 0,
                    "non-finite or non-positive CPD time for " + name);
      for (const auto& ref : reference::kSplatt) {
        if (name != ref.order) continue;
        checks.near(i, r.seconds, pinned(ref.seconds, config_, first),
                    "CPD seconds for " + name);
        first = false;
        // Other tensors move the alltoallv share by up to 8% (the totals by
        // up to 3.5%), so it is pinned for the pinned seed only.
        if (config_.seed != kPinnedSeed) continue;
        checks.near(i, r.alltoallv_seconds, ref.alltoallv_seconds,
                    "alltoallv seconds for " + name);
      }
      totals.push_back(r.seconds);
      alltoallvs.push_back(r.alltoallv_seconds);
      if (name == "1-3-2-0") slurm = i;
      if (r.seconds < results[best].seconds) best = i;
    }
    if (orders_.size() >= 8) {
      const double r = splatt::pearson(totals, alltoallvs);
      checks.expect(0, r >= 0.9,
                    "Pearson r(CPD, alltoallv) = " + fmt(r) + " < 0.9");
    }
    if (slurm) {
      checks.expect(*slurm, results[best].seconds < results[*slurm].seconds,
                    "no order beats the Slurm default 1-3-2-0");
    }
    return checks;
  }

  Config config_;
  std::optional<mr::topo::Machine> machine_;
  splatt::TensorSpec spec_;
  splatt::Grid3 grid_;
  std::vector<mr::Order> orders_;
  splatt::CpdConfig cpd_;
};

}  // namespace

bool Checks::expect(std::size_t op, bool condition, const std::string& what) {
  if (!condition) {
    ok_[op] = false;
    if (messages_.size() < kMaxMessages) messages_.push_back(what);
  }
  return condition;
}

bool Checks::near(std::size_t op, double value, double reference,
                  const std::string& what) {
  const bool ok = std::isfinite(value) &&
                  std::abs(value - reference) <= kRelTol * std::abs(reference);
  return expect(op, ok,
                what + " = " + fmt(value) + ", pinned " + fmt(reference) +
                    " (tolerance " + fmt(kRelTol * 100) + "%)");
}

std::int64_t Checks::failed() const {
  return static_cast<std::int64_t>(std::count(ok_.begin(), ok_.end(), false));
}

void Fidelity::compare(bool same, const std::string& what) {
  ++compared;
  if (same) return;
  if (differ++ == 0) first_difference = what;
}

void Fidelity::add(const Fidelity& other) {
  compared += other.compared;
  if (differ == 0) first_difference = other.first_difference;
  differ += other.differ;
}

void LayerCounts::add_run(const simmpi::TimedResult& result) {
  ++sim_runs;
  sim_events += result.engine_stats.events_processed;
  flow_completions += result.total_flow_events;
  const auto& fs = result.flow_stats;
  full_recomputes += fs.full_recomputes;
  pop_batches += fs.pop_batches;
  deferred_allocations += fs.deferred_allocations;
  deferred_rejections += fs.deferred_rejections;
  peak_active_flows = std::max(peak_active_flows, fs.peak_active_flows);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig3_sweep", "depth8_tune",
                                                 "splatt_cpd"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "fig3_sweep") return std::make_unique<Fig3Sweep>(config);
  if (name == "depth8_tune") return std::make_unique<Depth8Tune>(config);
  if (name == "splatt_cpd") return std::make_unique<SplattCpd>(config);
  return nullptr;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
