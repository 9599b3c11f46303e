#include <algorithm>
#include <memory>

#include "mixradix/apps/cg.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::apps::cg {

namespace {

int log2_exact(std::int32_t v) {
  int k = 0;
  while ((std::int32_t{1} << k) < v) ++k;
  MR_EXPECT((std::int32_t{1} << k) == v, "value must be a power of two");
  return k;
}

}  // namespace

simmpi::Schedule cg_schedule(const CgClass& klass, std::int32_t p,
                             const std::vector<double>& compute_time_per_rank,
                             int inner_iters) {
  MR_EXPECT(p >= 1 && (p & (p - 1)) == 0, "NPB-CG needs a power-of-two size");
  MR_EXPECT(static_cast<std::int32_t>(compute_time_per_rank.size()) == p,
            "need one compute time per rank");
  MR_EXPECT(inner_iters >= 1, "need at least one iteration");
  const Grid grid = npb_grid(p);
  const int lcols = log2_exact(grid.cols);
  const int lp = log2_exact(p);

  // Region sizes (doubles). The matvec row-reduce exchanges a rows-partition
  // of the vector; the transpose swap moves each process's n/p slice; dot
  // products move single doubles.
  const std::int64_t reduce_len = std::max<std::int64_t>(1, klass.n / grid.rows);
  const std::int64_t transpose_len = std::max<std::int64_t>(1, klass.n / p);
  const std::int64_t arena = std::max(reduce_len, transpose_len) + 1;
  const simmpi::Region vec{0, reduce_len};
  const simmpi::Region slice{0, transpose_len};
  const simmpi::Region scalar{arena - 1, 1};

  simmpi::ScheduleBuilder b(p, arena);
  int round = 0;
  for (int it = 0; it < inner_iters; ++it) {
    // Local matvec + vector updates (roofline time, varies per rank with
    // its memory-domain contention).
    for (std::int32_t rank = 0; rank < p; ++rank) {
      b.compute(round, rank, compute_time_per_rank[static_cast<std::size_t>(rank)]);
    }
    ++round;
    // Row reduce: log2(cols) pairwise exchanges across the process row.
    for (int k = 0; k < lcols; ++k, ++round) {
      for (std::int32_t rank = 0; rank < p; ++rank) {
        const std::int32_t col = rank % grid.cols;
        const std::int32_t partner =
            (rank - col) + (col ^ (std::int32_t{1} << k));
        b.message(round, rank, vec, round, partner, vec, simmpi::Combine::Sum);
      }
    }
    // Transpose swap of the solution vector slices. On a square grid the
    // partner is the transposed coordinate; NPB's rows==2*cols layout does
    // a staged swap that we approximate with a half-shift partner.
    if (p > 1) {
      for (std::int32_t rank = 0; rank < p; ++rank) {
        std::int32_t partner;
        if (grid.rows == grid.cols) {
          const std::int32_t row = rank / grid.cols;
          const std::int32_t col = rank % grid.cols;
          partner = col * grid.cols + row;
        } else {
          partner = (rank + p / 2) % p;
        }
        if (partner != rank) {
          b.message(round, rank, slice, round, partner, slice);
        }
      }
      ++round;
    }
    // Two dot-product allreduces (recursive doubling on one double each).
    for (int dot = 0; dot < 2; ++dot) {
      for (int k = 0; k < lp; ++k, ++round) {
        for (std::int32_t rank = 0; rank < p; ++rank) {
          const std::int32_t partner = rank ^ (std::int32_t{1} << k);
          b.message(round, rank, scalar, round, partner, scalar,
                    simmpi::Combine::Sum);
        }
      }
    }
  }
  return std::move(b).build();
}

CgResult simulate_cg(const topo::Machine& machine, const CgClass& klass,
                     const std::vector<std::int64_t>& core_list,
                     int sim_inner_iters) {
  const auto p = static_cast<std::int32_t>(core_list.size());
  MR_EXPECT(p >= 1, "need at least one process");

  std::vector<double> compute(static_cast<std::size_t>(p));
  for (std::int32_t rank = 0; rank < p; ++rank) {
    const double bw = process_mem_bandwidth(machine, core_list,
                                            core_list[static_cast<std::size_t>(rank)]);
    compute[static_cast<std::size_t>(rank)] =
        compute_seconds(klass, p, machine.core_flops(), bw);
  }

  const double total_inner =
      static_cast<double>(klass.iterations) * klass.inner_per_iteration;
  CgResult result;
  result.compute_seconds =
      *std::max_element(compute.begin(), compute.end()) * total_inner;

  if (p == 1) {
    result.seconds = result.compute_seconds;
    result.comm_seconds = 0;
    return result;
  }

  // Compile one inner iteration and loop it: cg_schedule appends identical
  // structure per iteration, so the plan repetition count reproduces
  // cg_schedule(..., sim_inner_iters) exactly without materializing it.
  MR_EXPECT(sim_inner_iters >= 1, "need at least one iteration");
  const simmpi::PlanJob job{
      std::make_shared<const simmpi::Plan>(simmpi::make_plan(
          cg_schedule(klass, p, compute, 1), sim_inner_iters, "npb_cg_inner")),
      core_list};
  const double simulated = simmpi::run_timed(machine, {job}).makespan;
  result.seconds = simulated * total_inner / sim_inner_iters;
  result.comm_seconds = std::max(0.0, result.seconds - result.compute_seconds);
  return result;
}

double serial_seconds(const topo::Machine& machine, const CgClass& klass) {
  // One process alone on core 0: full memory bandwidth of every domain.
  const double bw = process_mem_bandwidth(machine, {0}, 0);
  return compute_seconds(klass, 1, machine.core_flops(), bw) *
         static_cast<double>(klass.iterations) * klass.inner_per_iteration;
}

}  // namespace mr::apps::cg
