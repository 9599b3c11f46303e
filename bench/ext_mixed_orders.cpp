// Extension experiment (the paper's concluding future work): "being able
// to follow an order for a set of communicators and another order for
// remaining communicators and to have subcommunicators with different
// sizes."
//
// Setup: 16 Hydra nodes in two 8-node halves. The busy half is FULL: 16
// sixteen-process Alltoall communicators saturate it (packed wins under
// self-contention, Fig. 3 right). The other half is nearly idle: one
// eight-process large-message Alltoall communicator (spread gives each
// rank a whole NIC, Fig. 3 left). Uniform orders force one policy on both
// groups; a mixed mapping gives each group its own order. The closing
// reading is derived from the numbers printed above it.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>

#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/decompose.hpp"
#include "mixradix/mr/permutation.hpp"
#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/timed_executor.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/strings.hpp"
#include "mixradix/util/thread_pool.hpp"

namespace {

using namespace mr;

/// Jobs for one half of the machine: communicators of `comm_size` over the
/// cores listed in `cores` (block-partitioned in the given sequence).
void add_jobs(std::vector<simmpi::PlanJob>& jobs,
              const std::shared_ptr<const simmpi::Plan>& coll,
              const std::vector<std::int64_t>& cores, std::int64_t comm_size) {
  for (std::size_t base = 0; base + comm_size <= cores.size();
       base += comm_size) {
    simmpi::PlanJob job;
    job.plan = coll;
    job.core_of_rank.assign(cores.begin() + static_cast<std::ptrdiff_t>(base),
                            cores.begin() + static_cast<std::ptrdiff_t>(base + comm_size));
    jobs.push_back(std::move(job));
  }
}

/// Enumerate the cores of nodes [first, last) under `order` applied to the
/// 8-node sub-hierarchy.
std::vector<std::int64_t> half_cores(const Hierarchy& half, const Order& order,
                                     std::int64_t node_offset_cores) {
  const auto placement = placement_of_new_ranks(half, order);
  std::vector<std::int64_t> cores(placement.size());
  for (std::size_t i = 0; i < placement.size(); ++i) {
    cores[i] = placement[i] + node_offset_cores;
  }
  return cores;
}

}  // namespace

int main() {
  const auto machine = mr::topo::hydra(16);
  const Hierarchy half{8, 2, 2, 8};  // one 8-node half, 256 cores
  const std::int64_t offset = 256;   // second half starts at core 256

  // Busy half: a 16 KB-per-pair Alltoall in every communicator. Idle
  // half: one 2 MB-per-pair Alltoall on 8 of its 256 cores.
  // Compiled once, shared by every config's jobs (the configs only change
  // the rank->core bindings, never the plans).
  const auto busy = std::make_shared<const simmpi::Plan>(
      simmpi::make_plan(simmpi::alltoall_pairwise(16, 2048), 1, "busy_alltoall"));
  const auto sparse = std::make_shared<const simmpi::Plan>(simmpi::make_plan(
      simmpi::alltoall_pairwise(8, 262144), 1, "sparse_alltoall"));

  struct Config {
    const char* name;
    Order busy_order;
    Order sparse_order;
  };
  const std::vector<Config> configs = {
      {"uniform packed  [3-2-1-0] both", parse_order("3-2-1-0"), parse_order("3-2-1-0")},
      {"uniform spread  [0-1-2-3] both", parse_order("0-1-2-3"), parse_order("0-1-2-3")},
      {"uniform Slurm   [1-3-2-0] both", parse_order("1-3-2-0"), parse_order("1-3-2-0")},
      {"mixed: packed busy + spread sparse", parse_order("3-2-1-0"),
       parse_order("0-1-2-3")},
      {"mixed: spread busy + packed sparse", parse_order("0-1-2-3"),
       parse_order("3-2-1-0")},
  };

  const std::int64_t busy_comms = half.total() / 16;
  std::cout << "== Extension — per-group orders (the paper's future work) ==\n"
            << "16 Hydra nodes: busy half runs " << busy_comms
            << "x Alltoall(16 procs, 16 KB/pair);\n"
            << "idle half runs 1x Alltoall(8 procs, 2 MB/pair), simultaneously.\n\n";
  // Each config is an independent simulation: fan them out across the
  // engine's pool and print in input order. Times are kept in whole
  // microseconds, as printed, so the reading follows the printed numbers.
  struct Row {
    double busy_us = 0, sparse_us = 0, makespan_us = 0;
  };
  const auto printed_us = [](double seconds) {
    return std::stod(mr::util::format_fixed(seconds * 1e6, 0));
  };
  std::vector<Row> rows(configs.size());
  mr::Engine engine;
  engine.thread_pool().parallel_for(
      configs.size(), [&](std::size_t c) {
        const auto& config = configs[c];
        std::vector<simmpi::PlanJob> jobs;
        add_jobs(jobs, busy, half_cores(half, config.busy_order, 0), 16);
        const std::size_t busy_jobs = jobs.size();
        // Only the first communicator of the idle half exists.
        auto sparse_cores = half_cores(half, config.sparse_order, offset);
        sparse_cores.resize(8);
        add_jobs(jobs, sparse, sparse_cores, 8);
        const auto result = run_timed(machine, jobs);
        // Report the slowest communicator of each group.
        double worst_busy = 0, worst_sparse = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          double& worst = j < busy_jobs ? worst_busy : worst_sparse;
          worst = std::max(worst, result.job_finish[j]);
        }
        rows[c] = {printed_us(worst_busy), printed_us(worst_sparse),
                   printed_us(result.makespan)};
      });
  const auto us = [](double value) {
    return mr::util::format_fixed(value, 0) + " us";
  };
  double best_busy = rows.front().busy_us, best_sparse = rows.front().sparse_us;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const Row& row = rows[c];
    std::cout << "  " << std::left << std::setw(44) << configs[c].name << " busy "
              << std::setw(9) << us(row.busy_us) << "  sparse " << std::setw(9)
              << us(row.sparse_us) << "  makespan " << us(row.makespan_us) << "\n";
    best_busy = std::min(best_busy, row.busy_us);
    best_sparse = std::min(best_sparse, row.sparse_us);
  }

  // The first config that is the best, ties included, for both groups;
  // the uniform configs come first in the list.
  std::size_t both = 0;
  while (both < configs.size() && (rows[both].busy_us != best_busy ||
                                   rows[both].sparse_us != best_sparse)) {
    ++both;
  }
  std::cout << "\nreading: ";
  if (both == configs.size()) {
    std::cout << "no config is the best for both groups (busy best "
              << us(best_busy) << ", sparse best " << us(best_sparse) << ").\n";
  } else if (configs[both].busy_order == configs[both].sparse_order) {
    std::cout << "the uniform order [" << order_to_string(configs[both].busy_order)
              << "] is the best for both groups\n(busy " << us(best_busy)
              << ", sparse " << us(best_sparse)
              << "): one order serves both,\nand per-group orders gain nothing.\n";
  } else {
    std::cout << "no uniform order is the best for both groups; the mixed\n"
                 "mapping busy ["
              << order_to_string(configs[both].busy_order) << "] + sparse ["
              << order_to_string(configs[both].sparse_order) << "] is (busy "
              << us(best_busy) << ", sparse " << us(best_sparse)
              << ") — the case for the paper's proposed extension.\n";
  }
  return 0;
}
