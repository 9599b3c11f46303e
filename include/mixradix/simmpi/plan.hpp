// Compiled plans: the immutable execution artifact between schedule
// generation and the executors.
//
// A Schedule depends only on (algorithm, p, count, root) — never on the
// rank->core mapping — so the sweep engine's h! enumeration orders can all
// replay the *same* compiled artifact. A Plan packages:
//
//  * the single-repetition Schedule (the IR),
//  * a repetition count executed as a loop — back-to-back steady-state
//    operations no longer materialize `repeat()` copies of the IR,
//  * a flattened, machine-independent execution structure (per-rank
//    per-round message CSR, per-round cost inputs, per-message byte
//    counts) that the TimedExecutor consumes directly instead of
//    re-deriving from the nested Schedule per job.
//
// Plans are compiled by `compile_plan` (registry algorithms), which proves
// each schedule deadlock-, race- and conservation-free with the static
// analyzer, or wrapped around ad-hoc schedules by `make_plan` (application
// schedules: CG, SPLATT), which runs only its structure pass. The PlanCache
// (mixradix/simmpi/plan_cache.hpp) memoizes compile_plan by (algorithm, p,
// count, root, repetitions), so the analyzer runs once per plan key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mixradix/simmpi/schedule.hpp"
#include "mixradix/topo/machine.hpp"

namespace mr::simmpi {

/// Flattened execution structure of one Schedule, derived once at plan
/// compile time. All indices are machine-independent; the executors add
/// machine costs (overheads, copy rates) at run time.
struct PlanExec {
  /// CSR rank -> rounds: rank r's rounds occupy the flattened round range
  /// [rank_rounds_begin[r], rank_rounds_begin[r + 1]).
  std::vector<std::int64_t> rank_rounds_begin;
  /// Per flattened round: algorithm-inherent compute seconds and the total
  /// doubles written by local copies (the reduce-rate cost input).
  std::vector<double> round_compute;
  std::vector<std::int64_t> round_copy_doubles;
  /// CSR round -> ops: round i's sends are send_msg[send_begin[i] ..
  /// send_begin[i + 1]), its receives recv_msg[recv_begin[i] ..
  /// recv_begin[i + 1]). Op order matches the Schedule's.
  std::vector<std::int64_t> send_begin;
  std::vector<std::int64_t> recv_begin;
  std::vector<std::int32_t> send_msg;
  std::vector<std::int32_t> recv_msg;
  /// Payload bytes per message id.
  std::vector<std::int64_t> msg_bytes;

  std::int64_t rounds_of(std::int32_t rank) const {
    return rank_rounds_begin[static_cast<std::size_t>(rank) + 1] -
           rank_rounds_begin[static_cast<std::size_t>(rank)];
  }
};

/// CPU-serial seconds of flattened round `round` under `costs`: algorithm
/// compute + per-message overheads + local copy costs. The one definition
/// the timed executor charges and verify::binding's bound reads, so the
/// bound cannot drift above the simulated makespan through it.
inline double round_cpu_time(const PlanExec& exec,
                             const topo::MessagingCosts& costs,
                             std::int64_t round) {
  const auto i = static_cast<std::size_t>(round);
  double cpu = exec.round_compute[i];
  cpu += costs.send_overhead *
         static_cast<double>(exec.send_begin[i + 1] - exec.send_begin[i]);
  cpu += costs.recv_overhead *
         static_cast<double>(exec.recv_begin[i + 1] - exec.recv_begin[i]);
  cpu += static_cast<double>(exec.round_copy_doubles[i]) * 8.0 *
         costs.reduce_seconds_per_byte;
  return cpu;
}

/// Derive the flattened execution structure from a schedule.
PlanExec derive_exec(const Schedule& schedule);

struct Plan {
  Schedule schedule;       ///< single-repetition IR.
  int repetitions = 1;     ///< executed as a loop, never materialized.
  std::string algorithm;   ///< registry name, or an ad-hoc label.
  PlanExec exec;

  std::int32_t nranks() const { return schedule.nranks; }
  /// Messages per repetition.
  std::int64_t messages_per_rep() const {
    return static_cast<std::int64_t>(schedule.messages.size());
  }
  std::int64_t total_messages() const {
    return messages_per_rep() * repetitions;
  }
};

/// Wrap an already-generated schedule into a plan: checks it with
/// verify::analyze_structure (mr::invalid_argument carrying the report
/// otherwise) and derives the execution structure; no cache. The one door
/// through which a raw Schedule becomes runnable.
Plan make_plan(Schedule schedule, int repetitions = 1,
               std::string algorithm = {});

/// Compile registry algorithm `name` into a plan. The schedule is analyzed
/// (verify::analyze) exactly once, before anything else reads it; an
/// Error-level finding throws mr::invalid_argument carrying the report.
Plan compile_plan(const std::string& algorithm, std::int32_t p,
                  std::int64_t count, std::int32_t root = 0,
                  int repetitions = 1);

}  // namespace mr::simmpi
