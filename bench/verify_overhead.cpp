// Static-verifier overhead: time verify::analyze against the cost of
// generating the same schedule, across the generator matrix at Fig-3
// scale (16-rank alltoalls and friends, plus the composition shapes the
// sweeps replay). The verifier is meant to run inside every
// ScheduleBuilder::build() in checked builds, so it must stay a small
// fraction of generation time; this bench records the ratio per point and
// in aggregate to BENCH_verify.json so regressions show up across PRs.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench/bench_common.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/verify/generator_matrix.hpp"
#include "mixradix/verify/verify.hpp"

namespace {

/// Median-of-reps wall-clock of `fn()`, in seconds.
template <typename Fn>
double time_seconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Min-of-reps: for the microsecond-scale single-point timings, where
/// scheduler noise is strictly additive and the minimum is the estimate.
template <typename Fn>
double min_seconds(int reps, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (i == 0 || t < best) best = t;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const int reps = std::max(opts.repetitions, 3);

  // Fig-3 scale: the sweeps run 16-rank collectives; include the smaller
  // shapes too so per-point ratios expose any superlinear analysis cost.
  const auto points =
      mr::verify::generator_matrix({4, 8, 16}, {1, 1000, 100000});

  std::cout << "verify_overhead: " << points.size() << " schedules, median of "
            << reps << " reps\n";

  double generate_total = 0, analyze_total = 0, worst_ratio = 0;
  std::string worst_point;
  std::size_t messages_total = 0;
  for (const auto& point : points) {
    const auto schedule = point.make();
    messages_total += schedule.messages.size();
    const double generate_seconds = time_seconds(reps, [&] {
      volatile auto bytes = point.make().total_bytes();
      (void)bytes;
    });
    const double analyze_seconds = time_seconds(reps, [&] {
      volatile bool clean = mr::verify::analyze(schedule).clean();
      (void)clean;
    });
    generate_total += generate_seconds;
    analyze_total += analyze_seconds;
    const double ratio =
        generate_seconds > 0 ? analyze_seconds / generate_seconds : 0.0;
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst_point = point.name;
    }
  }

  const double aggregate_ratio =
      generate_total > 0 ? analyze_total / generate_total : 0.0;
  std::cout << "  generation: " << generate_total << " s total\n"
            << "  analysis:   " << analyze_total << " s total ("
            << aggregate_ratio * 100 << "% of generation)\n"
            << "  worst point: " << worst_point << " at " << worst_ratio * 100
            << "%\n";

  // The ratio that decides whether MIXRADIX_VERIFY_SCHEDULES can stay on in
  // sweep runs: analyzer cost against one real Fig-3 sweep point — the §4.1
  // protocol's run_microbench (16-rank alltoall on Hydra, 8 MiB, the
  // default 2 back-to-back repetitions). Since the plan-cache refactor a
  // point resolves its compiled plan through the engine's plan cache: with the
  // cache bypassed the analyzer runs once per compile (its share of the
  // point is analyze / point wall time); with the cache on it runs once per
  // distinct (algorithm, p, count, root, reps) key for the *whole* sweep,
  // so the steady-state cached point pays no generation or analysis at all.
  // Both paths are timed (min-of-reps: the cached path's first rep is the
  // one compile; the min is the steady state).
  const auto machine = mr::topo::hydra(16);
  const auto fig3 = mr::verify::make_named("alltoall_pairwise", 16, 1 << 20, 0);
  mr::harness::MicrobenchConfig mb;
  mb.order = mr::parse_order("0-1-2-3");
  mb.comm_size = 16;
  mb.collective = mr::simmpi::Collective::Alltoall;
  mb.total_bytes = 8ll << 20;
  const int fig3_reps = std::max(reps, 15);
  const double fig3_analyze = min_seconds(fig3_reps, [&] {
    volatile bool clean = mr::verify::analyze(fig3).clean();
    (void)clean;
  });
  mr::Engine engine;
  mb.use_plan_cache = false;
  const double fig3_point = min_seconds(fig3_reps, [&] {
    mr::harness::run_microbench(engine, machine, mb);
  });
  mb.use_plan_cache = true;
  const double fig3_point_cached = min_seconds(fig3_reps, [&] {
    mr::harness::run_microbench(engine, machine, mb);
  });
  const double fig3_pipeline_ratio = fig3_analyze / fig3_point;
  std::cout << "  fig3 point (alltoall p=16, 8 MiB): analyze "
            << fig3_analyze * 1e6 << " us, sweep point "
            << fig3_point * 1e6 << " us (compile per point), "
            << fig3_point_cached * 1e6 << " us (plan cache)\n"
            << "  analyzer share of an uncached fig3 sweep point: "
            << fig3_pipeline_ratio * 100 << "%"
            << (fig3_pipeline_ratio < 0.05 ? " (within the 5% budget)"
                                           : " (OVER the 5% budget)")
            << "; amortized to one analysis per distinct plan by the cache\n";

  std::ofstream json("BENCH_verify.json");
  json << "{\n"
       << "  \"bench\": \"verify_overhead\",\n"
       << "  \"points\": " << points.size() << ",\n"
       << "  \"messages_total\": " << messages_total << ",\n"
       << "  \"repetitions\": " << reps << ",\n"
       << "  \"generate_seconds\": " << generate_total << ",\n"
       << "  \"analyze_seconds\": " << analyze_total << ",\n"
       << "  \"analyze_over_generate\": " << aggregate_ratio << ",\n"
       << "  \"worst_ratio\": " << worst_ratio << ",\n"
       << "  \"worst_point\": \"" << worst_point << "\",\n"
       << "  \"fig3_analyze_seconds\": " << fig3_analyze << ",\n"
       << "  \"fig3_point_seconds\": " << fig3_point << ",\n"
       << "  \"fig3_point_cached_seconds\": " << fig3_point_cached << ",\n"
       << "  \"fig3_analyze_over_point\": " << fig3_pipeline_ratio << "\n"
       << "}\n";
  std::cout << "json written to BENCH_verify.json\n";
  return 0;
}
