// DataExecutor: runs a Schedule for *semantics*, not timing.
//
// Each rank owns an arena of doubles; the executor moves real payloads so
// tests can assert that, e.g., an allreduce schedule actually produces the
// elementwise sum on every rank. Within a round, operations execute in the
// order copies -> sends (payload snapshot) -> receives (combine), which is
// the concurrency contract generators rely on: a region may be sent and
// overwritten by a receive in the same round.
#pragma once

#include <memory>
#include <vector>

#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/schedule.hpp"

namespace mr::simmpi {

class DataExecutor {
 public:
  /// Takes its own copy of the schedule (executors outlive temporaries)
  /// and checks it with verify::analyze_structure; a malformed schedule
  /// throws mr::invalid_argument carrying the report.
  explicit DataExecutor(Schedule schedule);

  /// Compiled-plan flavour: repetitions > 1 are materialized (data
  /// semantics need the real repeated rounds). No check: make_plan or
  /// compile_plan already checked the plan's schedule.
  explicit DataExecutor(const std::shared_ptr<const Plan>& plan);

  /// Mutable arena of `rank` (size = schedule.arena_size), for initialising
  /// inputs before run() and reading outputs after.
  std::vector<double>& arena(std::int32_t rank);
  const std::vector<double>& arena(std::int32_t rank) const;

  /// Execute every round of every rank; throws mr::invalid_argument if the
  /// schedule deadlocks (a receive whose matching send can never execute).
  /// The thrown message carries the static analyzer's happens-before cycle
  /// trace (rank/round/message chain, verify::analyze_deadlock).
  void run();

 private:
  /// Shared tail of both constructors.
  void init();
  bool round_ready(std::int32_t rank) const;
  void execute_round(std::int32_t rank);

  Schedule schedule_;
  std::vector<std::vector<double>> arenas_;
  std::vector<std::size_t> pc_;                     ///< next round per rank.
  std::vector<std::vector<double>> mailbox_;        ///< payload per message.
  std::vector<bool> delivered_;                     ///< message sent yet?
};

/// Apply `combine` elementwise: dst = dst (op) src.
void combine_into(Combine combine, const double* src, double* dst,
                  std::int64_t count);

}  // namespace mr::simmpi
