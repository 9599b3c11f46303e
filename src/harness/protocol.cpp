#include <algorithm>
#include <cmath>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/simmpi/plan_cache.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::harness {

namespace {

/// Per-rank element count (doubles) so that comm_size * count * 8 bytes ==
/// total_bytes, following the paper's size definition (they use MPI_BYTE;
/// we use doubles, which only rescales `count`).
std::int64_t count_for(std::int64_t total_bytes, std::int64_t comm_size) {
  return std::max<std::int64_t>(1, total_bytes / (8 * comm_size));
}

}  // namespace

std::vector<simmpi::PlanJob> protocol_jobs(Engine& engine,
                                           const topo::Machine& machine,
                                           const MicrobenchConfig& config) {
  const Hierarchy& h = machine.hierarchy();
  MR_EXPECT(config.comm_size >= 2, "communicator needs at least two ranks");
  MR_EXPECT(h.total() % config.comm_size == 0,
            "comm size must divide the process count");
  MR_EXPECT(config.total_bytes >= 1, "total_bytes must be positive");
  MR_EXPECT(config.repetitions >= 1, "need at least one repetition");

  const std::int64_t count = count_for(config.total_bytes, config.comm_size);
  const auto p = static_cast<std::int32_t>(config.comm_size);
  // The plan depends only on (algorithm, p, count, repetitions) — never on
  // the order — so every h! enumeration order of a sweep shares one cached
  // compile. Repetitions are a plan loop count, not a materialized repeat().
  const std::shared_ptr<const simmpi::Plan> plan =
      engine.plan_cache().get(simmpi::PlanKey{
          simmpi::selected_algorithm(config.collective, p, count,
                                     machine.costs().eager_threshold),
          p, count, /*root=*/0, config.repetitions});

  // Step 1+2 of the protocol: reorder, then carve consecutive blocks of
  // reordered ranks; communicator k's rank j sits on the core that carries
  // reordered rank k*comm_size + j.
  const auto placement = placement_of_new_ranks(h, config.order);
  const std::int64_t ncomms =
      config.all_comms ? h.total() / config.comm_size : 1;

  std::vector<simmpi::PlanJob> jobs;
  jobs.reserve(static_cast<std::size_t>(ncomms));
  for (std::int64_t k = 0; k < ncomms; ++k) {
    simmpi::PlanJob job;
    job.plan = plan;
    job.core_of_rank.resize(static_cast<std::size_t>(config.comm_size));
    for (std::int64_t j = 0; j < config.comm_size; ++j) {
      job.core_of_rank[static_cast<std::size_t>(j)] =
          placement[static_cast<std::size_t>(k * config.comm_size + j)];
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

MicrobenchResult run_microbench(Engine& engine, const topo::Machine& machine,
                                const MicrobenchConfig& config) {
  const std::vector<simmpi::PlanJob> jobs =
      protocol_jobs(engine, machine, config);

  simmpi::ExecOptions exec;
  exec.completion_slack = config.completion_slack;
  // Lease a workspace from the engine's pool for this run (reused across
  // runs, reclaimed with the engine).
  Engine::WorkspaceLease lease = engine.workspace();
  exec.workspace = lease.get();
  const simmpi::TimedResult timed = simmpi::run_timed(machine, jobs, exec);

  std::vector<double> bandwidths;
  bandwidths.reserve(jobs.size());
  double sum_seconds = 0;
  for (double finish : timed.job_finish) {
    const double per_op = finish / config.repetitions;
    sum_seconds += per_op;
    bandwidths.push_back(static_cast<double>(config.total_bytes) / per_op);
  }
  std::sort(bandwidths.begin(), bandwidths.end());

  MicrobenchResult result;
  result.makespan = timed.makespan;
  result.mean_seconds_per_op = sum_seconds / static_cast<double>(jobs.size());
  double mean_bw = 0;
  for (double bw : bandwidths) mean_bw += bw;
  result.mean_bandwidth = mean_bw / static_cast<double>(bandwidths.size());
  const auto decile = [&](double q) {
    // Round to the nearest order statistic so the deciles always bracket
    // the mean for small communicator counts.
    const auto idx = static_cast<std::size_t>(
        std::llround(q * static_cast<double>(bandwidths.size() - 1)));
    return bandwidths[std::min(idx, bandwidths.size() - 1)];
  };
  result.bw_p10 = decile(0.1);
  result.bw_p90 = decile(0.9);
  result.algorithm = jobs.front().plan->algorithm;
  return result;
}

}  // namespace mr::harness
