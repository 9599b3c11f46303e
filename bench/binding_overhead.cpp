// Binding-analyzer overhead and soundness: time verify::binding::analyze
// against the timed simulation of the same bound point, across presets x
// registry algorithms at sweep scale, and assert the analyzer's lower
// bound never exceeds the simulated makespan at completion slack 0. The
// analyzer is meant to run as ExecOptions::preverify_binding ahead of
// sweeps, so it must stay a small fraction of one simulated point; the
// ratio and the soundness verdict go to BENCH_binding.json so CI can gate
// on `"sound": true` and watch the overhead across PRs.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/verify/binding.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const int reps = std::max(opts.repetitions, 3);

  const mr::topo::Machine machines[] = {mr::topo::testbox(),
                                        mr::topo::hydra(4),
                                        mr::topo::lumi(2)};
  const std::int64_t counts[] = {64, 65536};
  constexpr std::int32_t kP = 8;

  std::size_t points = 0, unsound = 0;
  std::string unsound_point;
  double analyze_total = 0, simulate_total = 0, worst_ratio = 0;
  std::string worst_point;

  for (const auto& machine : machines) {
    std::vector<std::int64_t> cores(kP);
    for (std::int32_t r = 0; r < kP; ++r) cores[static_cast<std::size_t>(r)] = r;
    for (const auto& info : mr::simmpi::algorithm_registry()) {
      if (!info.supported(kP)) continue;
      for (const std::int64_t count : counts) {
        ++points;
        const std::string label = machine.name() + "/" + info.name + "/" +
                                  std::to_string(count);
        const auto plan = std::make_shared<const mr::simmpi::Plan>(
            mr::simmpi::compile_plan(info.name, kP, count));
        const std::vector<mr::simmpi::PlanJob> jobs = {{plan, cores, 0.0}};

        mr::verify::binding::Result result;
        const double analyze_seconds = time_seconds(reps, [&] {
          result = mr::verify::binding::analyze(*plan, machine, cores);
        });
        double makespan = 0;
        const double simulate_seconds = time_seconds(reps, [&] {
          makespan = mr::simmpi::run_timed(machine, jobs, 0.0).makespan;
        });
        analyze_total += analyze_seconds;
        simulate_total += simulate_seconds;
        const double ratio =
            simulate_seconds > 0 ? analyze_seconds / simulate_seconds : 0.0;
        if (ratio > worst_ratio) {
          worst_ratio = ratio;
          worst_point = label;
        }
        if (!result.clean() ||
            result.bound.lower_bound > makespan * (1.0 + 1e-9)) {
          ++unsound;
          if (unsound_point.empty()) unsound_point = label;
          std::cout << "  UNSOUND " << label << ": bound "
                    << result.bound.lower_bound << " s > simulated "
                    << makespan << " s\n";
        }
      }
    }
  }

  const double aggregate_ratio =
      simulate_total > 0 ? analyze_total / simulate_total : 0.0;
  std::cout << "binding_overhead: " << points << " bound points, median of "
            << reps << " reps\n"
            << "  simulation: " << simulate_total << " s total\n"
            << "  analysis:   " << analyze_total << " s total ("
            << aggregate_ratio * 100 << "% of simulation)\n"
            << "  worst point: " << worst_point << " at " << worst_ratio * 100
            << "%\n"
            << "  soundness: " << points - unsound << "/" << points
            << " bounds below the simulated makespan\n";

  // The budget that decides whether preverify_binding can stay on ahead of
  // sweeps: what the preverify configuration (diagnostics only — the load
  // report and bound are CLI/CI products) adds to one real Fig-3 sweep
  // point (run_microbench: 16-rank alltoall on Hydra, 8 MiB, compile
  // included). The matrix above deliberately includes tiny messages where
  // analysis and simulation cost about the same; at sweep scale the
  // simulator's flow events dominate the analyzer's single CSR walk, and
  // THIS ratio is the one gated at < 10%.
  const auto fig3_machine = mr::topo::hydra(16);
  const auto fig3_plan = std::make_shared<const mr::simmpi::Plan>(
      mr::simmpi::compile_plan("alltoall_pairwise", 16, 1 << 20));
  std::vector<std::int64_t> fig3_cores(16);
  for (std::int32_t r = 0; r < 16; ++r) {
    fig3_cores[static_cast<std::size_t>(r)] = r * (fig3_machine.cores() / 16);
  }
  mr::verify::binding::Options preverify;
  preverify.load_report = false;
  preverify.lower_bound = false;
  const double fig3_preverify = time_seconds(reps, [&] {
    volatile bool clean = mr::verify::binding::analyze(*fig3_plan,
                                                       fig3_machine,
                                                       fig3_cores, preverify)
                              .clean();
    (void)clean;
  });
  const double fig3_analyze = time_seconds(reps, [&] {
    volatile bool clean =
        mr::verify::binding::analyze(*fig3_plan, fig3_machine, fig3_cores)
            .clean();
    (void)clean;
  });
  mr::harness::MicrobenchConfig mb;
  mb.order = mr::parse_order("0-1-2-3");
  mb.comm_size = 16;
  mb.collective = mr::simmpi::Collective::Alltoall;
  mb.total_bytes = 8ll << 20;
  mb.use_plan_cache = false;
  mr::Engine engine;
  const double fig3_point = time_seconds(reps, [&] {
    mr::harness::run_microbench(engine, fig3_machine, mb);
  });
  const double sweep_point_ratio =
      fig3_point > 0 ? fig3_preverify / fig3_point : 0.0;
  std::cout << "  fig3 point (alltoall p=16, 8 MiB): preverify "
            << fig3_preverify * 1e6 << " us, full analysis "
            << fig3_analyze * 1e6 << " us, sweep point " << fig3_point * 1e6
            << " us — preverify share " << sweep_point_ratio * 100 << "%"
            << (sweep_point_ratio < 0.10 ? " (within the 10% budget)"
                                         : " (OVER the 10% budget)")
            << "\n";

  std::ofstream json("BENCH_binding.json");
  json << "{\n"
       << "  \"bench\": \"binding_overhead\",\n"
       << "  \"points\": " << points << ",\n"
       << "  \"repetitions\": " << reps << ",\n"
       << "  \"analyze_seconds\": " << analyze_total << ",\n"
       << "  \"simulate_seconds\": " << simulate_total << ",\n"
       << "  \"analyze_over_simulate\": " << aggregate_ratio << ",\n"
       << "  \"worst_ratio\": " << worst_ratio << ",\n"
       << "  \"worst_point\": \"" << worst_point << "\",\n"
       << "  \"fig3_preverify_seconds\": " << fig3_preverify << ",\n"
       << "  \"fig3_analyze_seconds\": " << fig3_analyze << ",\n"
       << "  \"fig3_point_seconds\": " << fig3_point << ",\n"
       << "  \"fig3_preverify_over_point\": " << sweep_point_ratio << ",\n"
       << "  \"within_budget\": " << (sweep_point_ratio < 0.10 ? "true" : "false")
       << ",\n"
       << "  \"sound\": " << (unsound == 0 ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "json written to BENCH_binding.json\n";
  return unsound == 0 ? 0 : 1;
}
