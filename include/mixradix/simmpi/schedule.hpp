// Communication schedules: the intermediate representation between
// collective algorithms and the two executors.
//
// A collective algorithm (ring allgather, pairwise alltoall, ...) is
// compiled into one RankProgram per communicator rank: a sequence of
// rounds, each posting a batch of non-blocking sends/receives plus local
// copies/reductions, then waiting for all of them (the classic
// post-then-waitall structure of MPI collective implementations).
//
// The same schedule feeds:
//  * DataExecutor  — moves real doubles between per-rank arenas, so the
//    algorithm's *semantics* are testable (does allreduce produce the sum?);
//  * TimedExecutor — replays the schedule on the flow-level network
//    simulator, producing *durations* under contention.
//
// Messages are matched by explicit id (assigned at generation time), not
// by (source, tag) matching: generated schedules are deterministic, so
// runtime matching would only add failure modes.
//
// Building or composing a schedule checks only each call's arguments. The
// schedule is checked once, where it becomes runnable (make_plan,
// compile_plan, the DataExecutor), by mixradix/verify/verify.hpp.
#pragma once

#include <cstdint>
#include <vector>

namespace mr::simmpi {

/// A contiguous region of a rank's arena, in doubles.
struct Region {
  std::int64_t offset = 0;
  std::int64_t count = 0;
};

/// How received (or copied) data combines into the destination region.
enum class Combine { Replace, Sum, Max, Min, Prod };

/// One point-to-point message. Ranks are communicator ranks.
struct MsgInfo {
  std::int32_t src = -1;
  std::int32_t dst = -1;
  Region src_region;  ///< in the sender's arena.
  Region dst_region;  ///< in the receiver's arena.
  Combine combine = Combine::Replace;

  std::int64_t bytes() const { return src_region.count * 8; }
};

struct SendOp {
  std::int32_t msg = -1;
};
struct RecvOp {
  std::int32_t msg = -1;
};
/// Local copy/reduction within one arena, executed at round start.
struct CopyOp {
  Region src;
  Region dst;
  Combine combine = Combine::Replace;
};

struct Round {
  std::vector<SendOp> sends;
  std::vector<RecvOp> recvs;
  std::vector<CopyOp> copies;
  double compute_seconds = 0;  ///< algorithm-inherent local work.
};

struct RankProgram {
  std::vector<Round> rounds;
};

struct Schedule {
  std::int32_t nranks = 0;
  std::int64_t arena_size = 0;  ///< doubles per rank.
  std::vector<MsgInfo> messages;
  std::vector<RankProgram> programs;  ///< one per rank.

  /// Total payload bytes over all messages.
  std::int64_t total_bytes() const;
};

/// Incremental construction helper used by the algorithm generators.
class ScheduleBuilder {
 public:
  ScheduleBuilder(std::int32_t nranks, std::int64_t arena_size);

  /// Add a message plus its SendOp (sender round) and RecvOp (receiver
  /// round). Missing rounds are created on both sides.
  void message(int send_round, std::int32_t src, Region src_region,
               int recv_round, std::int32_t dst, Region dst_region,
               Combine combine = Combine::Replace);

  /// Convenience for the common same-round case.
  void exchange(int round, std::int32_t src, Region src_region,
                std::int32_t dst, Region dst_region,
                Combine combine = Combine::Replace) {
    message(round, src, src_region, round, dst, dst_region, combine);
  }

  void copy(int round, std::int32_t rank, Region src, Region dst,
            Combine combine = Combine::Replace);

  void compute(int round, std::int32_t rank, double seconds);

  /// Finalise, with no structure check: the calls above reject bad ranks,
  /// rounds, self-messages and compute times, and the door the schedule
  /// runs through checks the rest (regions inside the arena, ...).
  Schedule build() &&;

 private:
  Round& round_of(std::int32_t rank, int round);
  Schedule schedule_;
};

/// Back-to-back repetition of a schedule (steady-state measurements):
/// ranks run `times` copies of their program sequentially. Prefer a Plan
/// with a repetition count (mixradix/simmpi/plan.hpp) for execution — it
/// loops over one copy of the IR instead of materializing `times` copies.
Schedule repeat(const Schedule& schedule, int times);

/// Sequential composition: all schedules must have the same nranks; each
/// rank runs part 0's rounds, then part 1's, and so on. No barrier is
/// inserted between parts — exactly like consecutive MPI calls, ordering
/// is enforced only by each rank's own program and by message matching.
Schedule concat(const std::vector<Schedule>& parts);

/// Merge independent schedules over disjoint rank sets into one schedule
/// over `total_ranks` ranks; `rank_of[k][i]` is the global rank of
/// communicator k's rank i. Used to run several subcommunicators'
/// collectives simultaneously as a single job.
Schedule merge(const std::vector<Schedule>& parts,
               const std::vector<std::vector<std::int32_t>>& rank_of,
               std::int32_t total_ranks);

}  // namespace mr::simmpi
