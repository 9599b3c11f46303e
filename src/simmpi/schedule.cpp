#include "mixradix/simmpi/schedule.hpp"

#include <algorithm>
#include <string>

#include "mixradix/util/expect.hpp"

namespace mr::simmpi {

std::int64_t Schedule::total_bytes() const {
  std::int64_t total = 0;
  for (const auto& m : messages) total += m.bytes();
  return total;
}

ScheduleBuilder::ScheduleBuilder(std::int32_t nranks, std::int64_t arena_size) {
  MR_EXPECT(nranks >= 1, "schedule needs at least one rank");
  MR_EXPECT(arena_size >= 0, "arena size must be non-negative");
  schedule_.nranks = nranks;
  schedule_.arena_size = arena_size;
  schedule_.programs.resize(static_cast<std::size_t>(nranks));
}

Round& ScheduleBuilder::round_of(std::int32_t rank, int round) {
  MR_EXPECT(rank >= 0 && rank < schedule_.nranks, "rank out of range");
  MR_EXPECT(round >= 0, "round index must be non-negative");
  auto& rounds = schedule_.programs[static_cast<std::size_t>(rank)].rounds;
  if (rounds.size() <= static_cast<std::size_t>(round)) {
    rounds.resize(static_cast<std::size_t>(round) + 1);
  }
  return rounds[static_cast<std::size_t>(round)];
}

void ScheduleBuilder::message(int send_round, std::int32_t src, Region src_region,
                              int recv_round, std::int32_t dst, Region dst_region,
                              Combine combine) {
  MR_EXPECT(src != dst, "self-messages should be local copies");
  const auto id = static_cast<std::int32_t>(schedule_.messages.size());
  schedule_.messages.push_back(MsgInfo{src, dst, src_region, dst_region, combine});
  round_of(src, send_round).sends.push_back(SendOp{id});
  round_of(dst, recv_round).recvs.push_back(RecvOp{id});
}

void ScheduleBuilder::copy(int round, std::int32_t rank, Region src, Region dst,
                           Combine combine) {
  round_of(rank, round).copies.push_back(CopyOp{src, dst, combine});
}

void ScheduleBuilder::compute(int round, std::int32_t rank, double seconds) {
  MR_EXPECT(seconds >= 0, "compute time must be non-negative");
  round_of(rank, round).compute_seconds += seconds;
}

Schedule ScheduleBuilder::build() && { return std::move(schedule_); }

/// concat/merge precondition: part `k` holds one program per rank.
static void expect_programs(const char* op, const Schedule& part,
                            std::size_t k) {
  MR_EXPECT(static_cast<std::int64_t>(part.programs.size()) == part.nranks,
            std::string(op) + " part " + std::to_string(k) + " has " +
                std::to_string(part.programs.size()) + " rank programs for " +
                std::to_string(part.nranks) + " ranks");
}

Schedule repeat(const Schedule& schedule, int times) {
  MR_EXPECT(times >= 1, "repetition count must be >= 1");
  if (times == 1) return schedule;
  Schedule out;
  out.nranks = schedule.nranks;
  out.arena_size = schedule.arena_size;
  const auto msgs = static_cast<std::int32_t>(schedule.messages.size());
  out.messages.reserve(static_cast<std::size_t>(msgs) * times);
  for (int it = 0; it < times; ++it) {
    out.messages.insert(out.messages.end(), schedule.messages.begin(),
                        schedule.messages.end());
  }
  out.programs.resize(schedule.programs.size());
  for (std::size_t rank = 0; rank < schedule.programs.size(); ++rank) {
    auto& prog = out.programs[rank];
    for (int it = 0; it < times; ++it) {
      const std::int32_t shift = msgs * it;
      for (const auto& round : schedule.programs[rank].rounds) {
        Round r = round;
        for (auto& op : r.sends) op.msg += shift;
        for (auto& op : r.recvs) op.msg += shift;
        prog.rounds.push_back(std::move(r));
      }
    }
  }
  return out;
}

Schedule concat(const std::vector<Schedule>& parts) {
  MR_EXPECT(!parts.empty(), "need at least one schedule");
  Schedule out;
  out.nranks = parts.front().nranks;
  out.programs.resize(parts.front().programs.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const Schedule& part = parts[k];
    MR_EXPECT(part.nranks == out.nranks, "concat needs equal rank counts");
    expect_programs("concat", part, k);
    out.arena_size = std::max(out.arena_size, part.arena_size);
    const auto shift = static_cast<std::int32_t>(out.messages.size());
    out.messages.insert(out.messages.end(), part.messages.begin(),
                        part.messages.end());
    for (std::int32_t rank = 0; rank < out.nranks; ++rank) {
      auto& prog = out.programs[static_cast<std::size_t>(rank)];
      for (const auto& round : part.programs[static_cast<std::size_t>(rank)].rounds) {
        Round r = round;
        for (auto& op : r.sends) op.msg += shift;
        for (auto& op : r.recvs) op.msg += shift;
        prog.rounds.push_back(std::move(r));
      }
    }
  }
  return out;
}

Schedule merge(const std::vector<Schedule>& parts,
               const std::vector<std::vector<std::int32_t>>& rank_of,
               std::int32_t total_ranks) {
  MR_EXPECT(parts.size() == rank_of.size(), "parts/rank_of size mismatch");
  MR_EXPECT(total_ranks >= 1, "need at least one rank");
  Schedule out;
  out.nranks = total_ranks;
  out.programs.resize(static_cast<std::size_t>(total_ranks));
  std::vector<bool> used(static_cast<std::size_t>(total_ranks), false);
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const Schedule& part = parts[k];
    const auto& map = rank_of[k];
    MR_EXPECT(static_cast<std::int32_t>(map.size()) == part.nranks,
              "rank map size must equal the part's nranks");
    expect_programs("merge", part, k);
    out.arena_size = std::max(out.arena_size, part.arena_size);
    const auto shift = static_cast<std::int32_t>(out.messages.size());
    for (std::size_t i = 0; i < part.messages.size(); ++i) {
      const MsgInfo& m = part.messages[i];
      MR_EXPECT(m.src >= 0 && m.src < part.nranks && m.dst >= 0 &&
                    m.dst < part.nranks,
                "merge part " + std::to_string(k) + " message " +
                    std::to_string(i) + " has endpoints " +
                    std::to_string(m.src) + " -> " + std::to_string(m.dst) +
                    " outside [0, " + std::to_string(part.nranks) + ")");
      MsgInfo global = m;
      global.src = map[static_cast<std::size_t>(m.src)];
      global.dst = map[static_cast<std::size_t>(m.dst)];
      out.messages.push_back(global);
    }
    for (std::int32_t local = 0; local < part.nranks; ++local) {
      const std::int32_t global = map[static_cast<std::size_t>(local)];
      MR_EXPECT(global >= 0 && global < total_ranks, "global rank out of range");
      MR_EXPECT(!used[static_cast<std::size_t>(global)],
                "rank appears in two merged communicators");
      used[static_cast<std::size_t>(global)] = true;
      auto& prog = out.programs[static_cast<std::size_t>(global)];
      prog = part.programs[static_cast<std::size_t>(local)];
      for (auto& round : prog.rounds) {
        for (auto& op : round.sends) op.msg += shift;
        for (auto& op : round.recvs) op.msg += shift;
      }
    }
  }
  return out;
}

}  // namespace mr::simmpi
