#include "mixradix/simmpi/data_executor.hpp"

#include <algorithm>

#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::simmpi {

void combine_into(Combine combine, const double* src, double* dst,
                  std::int64_t count) {
  switch (combine) {
    case Combine::Replace:
      std::copy(src, src + count, dst);
      return;
    case Combine::Sum:
      for (std::int64_t i = 0; i < count; ++i) dst[i] += src[i];
      return;
    case Combine::Max:
      for (std::int64_t i = 0; i < count; ++i) dst[i] = std::max(dst[i], src[i]);
      return;
    case Combine::Min:
      for (std::int64_t i = 0; i < count; ++i) dst[i] = std::min(dst[i], src[i]);
      return;
    case Combine::Prod:
      for (std::int64_t i = 0; i < count; ++i) dst[i] *= src[i];
      return;
  }
  MR_ASSERT_INTERNAL(false);
}

DataExecutor::DataExecutor(Schedule schedule) : schedule_(std::move(schedule)) {
  const verify::Report report = verify::analyze_structure(schedule_);
  MR_EXPECT(report.clean(), "malformed schedule:\n" + report.to_string());
  init();
}

DataExecutor::DataExecutor(const std::shared_ptr<const Plan>& plan) {
  MR_EXPECT(plan != nullptr, "executor without plan");
  schedule_ = plan->repetitions == 1
                  ? plan->schedule
                  : repeat(plan->schedule, plan->repetitions);
  init();
}

void DataExecutor::init() {
  arenas_.assign(static_cast<std::size_t>(schedule_.nranks),
                 std::vector<double>(static_cast<std::size_t>(schedule_.arena_size), 0.0));
  pc_.assign(static_cast<std::size_t>(schedule_.nranks), 0);
  mailbox_.resize(schedule_.messages.size());
  delivered_.assign(schedule_.messages.size(), false);
}

std::vector<double>& DataExecutor::arena(std::int32_t rank) {
  MR_EXPECT(rank >= 0 && rank < schedule_.nranks, "rank out of range");
  return arenas_[static_cast<std::size_t>(rank)];
}

const std::vector<double>& DataExecutor::arena(std::int32_t rank) const {
  MR_EXPECT(rank >= 0 && rank < schedule_.nranks, "rank out of range");
  return arenas_[static_cast<std::size_t>(rank)];
}

// A round executes in two phases, mirroring post-then-waitall semantics:
//   phase 0 (on entering the round): copies, then sends — payloads snapshot
//   into the mailbox immediately, like buffered isends;
//   phase 1 (once every expected payload is in the mailbox): receives
//   combine, the rank moves to the next round.
// Splitting phases is what lets two ranks exchange messages within the same
// round without deadlocking the sweep below.
bool DataExecutor::round_ready(std::int32_t rank) const {
  const auto& rounds = schedule_.programs[static_cast<std::size_t>(rank)].rounds;
  const std::size_t pc = pc_[static_cast<std::size_t>(rank)];
  MR_ASSERT_INTERNAL(pc < rounds.size());
  for (const auto& op : rounds[pc].recvs) {
    if (!delivered_[static_cast<std::size_t>(op.msg)]) return false;
  }
  return true;
}

void DataExecutor::execute_round(std::int32_t rank) {
  auto& arena = arenas_[static_cast<std::size_t>(rank)];
  const auto& round =
      schedule_.programs[static_cast<std::size_t>(rank)]
          .rounds[pc_[static_cast<std::size_t>(rank)]];
  for (const auto& op : round.copies) {
    // Copies may alias; stage through a scratch buffer for safety.
    std::vector<double> scratch(arena.begin() + op.src.offset,
                                arena.begin() + op.src.offset + op.src.count);
    combine_into(op.combine, scratch.data(), arena.data() + op.dst.offset,
                 op.dst.count);
  }
  for (const auto& op : round.sends) {
    const auto& msg = schedule_.messages[static_cast<std::size_t>(op.msg)];
    mailbox_[static_cast<std::size_t>(op.msg)].assign(
        arena.begin() + msg.src_region.offset,
        arena.begin() + msg.src_region.offset + msg.src_region.count);
    delivered_[static_cast<std::size_t>(op.msg)] = true;
  }
}

void DataExecutor::run() {
  const auto n = static_cast<std::size_t>(schedule_.nranks);
  std::vector<bool> posted(n, false);  // phase flag for the current round
  while (true) {
    bool progress = false;
    bool done = true;
    for (std::int32_t rank = 0; rank < schedule_.nranks; ++rank) {
      const auto r = static_cast<std::size_t>(rank);
      const auto& rounds = schedule_.programs[r].rounds;
      while (pc_[r] < rounds.size()) {
        if (!posted[r]) {
          execute_round(rank);  // copies + sends
          posted[r] = true;
          progress = true;
        }
        if (!round_ready(rank)) break;  // receives still missing payloads
        auto& arena = arenas_[r];
        for (const auto& op : rounds[pc_[r]].recvs) {
          const auto& msg = schedule_.messages[static_cast<std::size_t>(op.msg)];
          const auto& payload = mailbox_[static_cast<std::size_t>(op.msg)];
          MR_ASSERT_INTERNAL(static_cast<std::int64_t>(payload.size()) ==
                             msg.dst_region.count);
          combine_into(msg.combine, payload.data(),
                       arena.data() + msg.dst_region.offset, msg.dst_region.count);
        }
        ++pc_[r];
        posted[r] = false;
        progress = true;
      }
      if (pc_[r] < rounds.size()) done = false;
    }
    if (done) return;
    if (!progress) {
      // The static analyzer reconstructs *why*: the happens-before cycle
      // with its rank/round/message chain beats "a receive waits on a send".
      std::string detail = "a receive waits on a send that can never execute";
      const verify::Report report = verify::analyze_deadlock(schedule_);
      if (!report.clean()) detail = report.to_string();
      MR_EXPECT(false, "schedule deadlocks: " + detail);
    }
  }
}

}  // namespace mr::simmpi
