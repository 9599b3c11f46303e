#include <algorithm>
#include <memory>

#include "mixradix/apps/splatt.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::apps::splatt {

namespace {

// MTTKRP cost model: per nonzero, SPLATT touches ~3 factor rows (3*F*8
// bytes, poor locality) plus the CSF indices, and performs 3*F flops.
// The imbalance factor reflects nell-1's heavy-tailed slice distribution:
// the slowest process owns a few times the average nonzero count.
constexpr double kBytesPerNnzPerF = 3.0 * 8.0 * 1.0;  // all-miss factor accesses
constexpr double kIndexBytesPerNnz = 12.0;
constexpr double kFlopsPerNnzPerF = 3.0;
constexpr double kImbalance = 4.0;
// Fixed local work per mode block (CSF traversal setup, fit residual,
// column normalisation) -- calibrated against the paper's absolute CPD
// durations on 1024 Hydra cores.
constexpr double kFixedBlockSeconds = 0.11;
// Completion slack of the proxy's one simulation per placement, the
// library's one slack user (FlowSim::FlowSim; exact is the default
// elsewhere). The imbalanced layer alltoallv keeps ~100 flows in one
// component, so every exact completion batch refills them; 2% defers those
// refills, and the 24-order Fig-8 set runs about 2x faster (DESIGN §10).
constexpr double kCompletionSlack = 0.02;

double mttkrp_seconds(const topo::Machine& machine, const TensorSpec& spec,
                      std::int32_t nprocs, std::int64_t factor_rank) {
  const double nnz_per_proc =
      static_cast<double>(spec.nnz) / static_cast<double>(nprocs) * kImbalance;
  const double flops =
      nnz_per_proc * kFlopsPerNnzPerF * static_cast<double>(factor_rank);
  const double bytes =
      nnz_per_proc *
      (kIndexBytesPerNnz + kBytesPerNnzPerF * static_cast<double>(factor_rank));
  // Every core busy: per-core memory bandwidth is the innermost level's.
  const double bw = machine.level(machine.depth() - 1).mem_bandwidth > 0
                        ? machine.level(machine.depth() - 1).mem_bandwidth
                        : 8e9;
  return kFixedBlockSeconds +
         std::max(flops / machine.core_flops(), bytes / bw);
}

/// All layer alltoallvs of one mode, merged into a world-size schedule.
simmpi::Schedule mode_alltoallv(const TensorSpec& spec, const Grid3& grid,
                                int mode, std::int64_t factor_rank) {
  const auto comms = layer_comms(grid, mode);
  std::vector<simmpi::Schedule> parts;
  std::vector<std::vector<std::int32_t>> rank_maps;
  parts.reserve(comms.size());
  for (std::size_t layer = 0; layer < comms.size(); ++layer) {
    parts.push_back(simmpi::alltoallv_pairwise(
        layer_volumes(spec, grid, mode, static_cast<std::int64_t>(layer),
                      factor_rank)));
    rank_maps.push_back(comms[layer]);
  }
  return simmpi::merge(parts, rank_maps, grid.nprocs());
}

/// Per-rank compute round.
simmpi::Schedule compute_schedule(std::int32_t nprocs, double seconds) {
  simmpi::ScheduleBuilder b(nprocs, 0);
  for (std::int32_t rank = 0; rank < nprocs; ++rank) {
    b.compute(0, rank, seconds);
  }
  return std::move(b).build();
}

/// World-wide small reduction modelled as binomial reduce + broadcast
/// (Rabenseifner-equivalent traffic at a fraction of the simulated
/// message count of recursive doubling).
std::vector<simmpi::Schedule> world_reduce_bcast(std::int32_t nprocs,
                                                 std::int64_t count) {
  return {simmpi::reduce_binomial(nprocs, count, 0),
          simmpi::bcast_binomial(nprocs, count, 0)};
}

/// The 256-process communicators mpisee observed (8 of them on 1024
/// ranks): two split families — contiguous quarters and stride-4 quarters —
/// each running a factor-norm allreduce (reduce+bcast) per mode.
std::vector<simmpi::Schedule> quarter_comm_phase(std::int32_t nprocs,
                                                 std::int64_t count) {
  if (nprocs % 16 != 0) return {};
  const std::int32_t quarter = nprocs / 4;
  std::vector<simmpi::Schedule> phases;
  for (int family = 0; family < 2; ++family) {
    std::vector<simmpi::Schedule> parts;
    std::vector<std::vector<std::int32_t>> rank_maps;
    for (std::int32_t q = 0; q < 4; ++q) {
      std::vector<std::int32_t> members;
      members.reserve(static_cast<std::size_t>(quarter));
      for (std::int32_t i = 0; i < quarter; ++i) {
        members.push_back(family == 0 ? q * quarter + i : i * 4 + q);
      }
      parts.push_back(simmpi::reduce_binomial(quarter, count, 0));
      rank_maps.push_back(std::move(members));
    }
    phases.push_back(simmpi::merge(parts, rank_maps, nprocs));
  }
  return phases;
}

/// One *mode block* opened by `alltoallv`: layer alltoallv -> MTTKRP ->
/// Gram reduce+bcast -> quarter-communicator norms. The three modes of a
/// CPD iteration are statistically identical (volumes drawn from the same
/// distribution), so simulate_cpd simulates one block and scales by three —
/// a 3x event-count saving that leaves the order sensitivity untouched.
simmpi::Schedule mode_block(const topo::Machine& machine, const TensorSpec& spec,
                            const Grid3& grid, const CpdConfig& config,
                            simmpi::Schedule alltoallv) {
  const std::int32_t nprocs = grid.nprocs();
  const double mttkrp =
      mttkrp_seconds(machine, spec, nprocs, config.factor_rank);
  std::vector<simmpi::Schedule> phases;
  phases.push_back(std::move(alltoallv));
  phases.push_back(compute_schedule(nprocs, mttkrp));
  for (auto& s : world_reduce_bcast(nprocs, config.factor_rank * config.factor_rank)) {
    phases.push_back(std::move(s));
  }
  for (auto& s : quarter_comm_phase(nprocs, config.factor_rank)) {
    phases.push_back(std::move(s));
  }
  return simmpi::concat(phases);
}

}  // namespace

simmpi::Schedule cpd_iteration_schedule(const topo::Machine& machine,
                                        const TensorSpec& spec, const Grid3& grid,
                                        const CpdConfig& config) {
  return mode_block(machine, spec, grid, config,
                    mode_alltoallv(spec, grid, 0, config.factor_rank));
}

CpdResult simulate_cpd(const topo::Machine& machine, const TensorSpec& spec,
                       const Order& order, const CpdConfig& config) {
  // Black-box rank reordering: application rank r runs on the core that
  // carries reordered rank r.
  const auto placement = placement_of_new_ranks(machine.hierarchy(), order);
  return simulate_cpd_placement(
      machine, spec, std::vector<std::int64_t>(placement.begin(), placement.end()),
      config);
}

CpdResult simulate_cpd_placement(const topo::Machine& machine,
                                 const TensorSpec& spec,
                                 std::vector<std::int64_t> core_of_rank,
                                 const CpdConfig& config) {
  const Grid3 grid = default_grid(static_cast<std::int32_t>(machine.cores()));
  MR_EXPECT(config.sim_iterations >= 1 &&
                config.sim_iterations <= config.iterations,
            "sim_iterations must be in [1, iterations]");
  MR_EXPECT(static_cast<std::int64_t>(core_of_rank.size()) == machine.cores(),
            "need one core per rank");

  // The layer alltoallv opens the block; its per-rank round counts locate
  // its end in the run's round timeline.
  simmpi::Schedule alltoallv = mode_alltoallv(spec, grid, 0, config.factor_rank);
  std::vector<std::size_t> alltoallv_rounds;
  for (const auto& program : alltoallv.programs) {
    alltoallv_rounds.push_back(program.rounds.size());
  }
  // One compiled mode block, looped sim_iterations times by the executor —
  // no materialized repeat() copies of the IR.
  const simmpi::PlanJob job{
      std::make_shared<const simmpi::Plan>(simmpi::make_plan(
          mode_block(machine, spec, grid, config, std::move(alltoallv)),
          config.sim_iterations, "cpd_mode_block")),
      std::move(core_of_rank)};
  // 3 mode blocks per iteration, `iterations` iterations.
  const double blocks = 3.0 * static_cast<double>(config.iterations);

  simmpi::ExecOptions exec;
  exec.completion_slack = kCompletionSlack;
  const simmpi::TimedResult run = simmpi::run_timed(machine, {job}, exec);
  CpdResult result;
  result.seconds = run.makespan * (blocks / config.sim_iterations);

  // The layer alltoallv's time inside the run, as mpisee measures it: from
  // the block's start to the last rank's last alltoallv round, in the first
  // simulated iteration. While each rank's MTTKRP round (at least
  // kFixedBlockSeconds) outlasts the spread of the ranks' alltoallv ends,
  // no later message overlaps the alltoallv, and this equals its standalone
  // makespan bit for bit (SimulateCpd.AlltoallvTimeMatchesStandaloneRun).
  const auto& rounds_begin = job.plan->exec.rank_rounds_begin;
  double alltoallv_end = 0;
  for (std::size_t rank = 0; rank < alltoallv_rounds.size(); ++rank) {
    if (alltoallv_rounds[rank] == 0) continue;
    alltoallv_end = std::max(
        alltoallv_end,
        run.round_finish[0][static_cast<std::size_t>(rounds_begin[rank]) +
                            alltoallv_rounds[rank] - 1]);
  }
  result.alltoallv_seconds = alltoallv_end * blocks;

  result.compute_seconds =
      3.0 * mttkrp_seconds(machine, spec, grid.nprocs(), config.factor_rank) *
      config.iterations;
  return result;
}

std::vector<std::vector<double>> cpd_comm_matrix(const TensorSpec& spec,
                                                 const Grid3& grid,
                                                 std::int64_t factor_rank) {
  const std::int32_t p = grid.nprocs();
  std::vector<std::vector<double>> matrix(
      static_cast<std::size_t>(p), std::vector<double>(static_cast<std::size_t>(p), 0));
  for (int mode = 0; mode < 3; ++mode) {
    const auto comms = layer_comms(grid, mode);
    for (std::size_t layer = 0; layer < comms.size(); ++layer) {
      const auto counts = layer_volumes(spec, grid, mode,
                                        static_cast<std::int64_t>(layer), factor_rank);
      const auto& members = comms[layer];
      for (std::size_t a = 0; a < members.size(); ++a) {
        for (std::size_t b = 0; b < members.size(); ++b) {
          matrix[static_cast<std::size_t>(members[a])]
                [static_cast<std::size_t>(members[b])] +=
              8.0 * static_cast<double>(counts[a][b]);
        }
      }
    }
  }
  return matrix;
}

}  // namespace mr::apps::splatt
