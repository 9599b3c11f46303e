#include "mixradix/simmpi/plan.hpp"

#include <utility>

#include "mixradix/simmpi/registry.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::simmpi {

PlanExec derive_exec(const Schedule& schedule) {
  PlanExec exec;
  const auto nranks = static_cast<std::size_t>(schedule.nranks);
  exec.rank_rounds_begin.reserve(nranks + 1);
  exec.rank_rounds_begin.push_back(0);
  std::size_t total_rounds = 0, total_sends = 0, total_recvs = 0;
  for (const RankProgram& prog : schedule.programs) {
    total_rounds += prog.rounds.size();
    exec.rank_rounds_begin.push_back(static_cast<std::int64_t>(total_rounds));
    for (const Round& round : prog.rounds) {
      total_sends += round.sends.size();
      total_recvs += round.recvs.size();
    }
  }
  exec.round_compute.reserve(total_rounds);
  exec.round_copy_doubles.reserve(total_rounds);
  exec.send_begin.reserve(total_rounds + 1);
  exec.recv_begin.reserve(total_rounds + 1);
  exec.send_msg.reserve(total_sends);
  exec.recv_msg.reserve(total_recvs);
  exec.send_begin.push_back(0);
  exec.recv_begin.push_back(0);
  for (const RankProgram& prog : schedule.programs) {
    for (const Round& round : prog.rounds) {
      exec.round_compute.push_back(round.compute_seconds);
      std::int64_t copy_doubles = 0;
      for (const CopyOp& op : round.copies) copy_doubles += op.dst.count;
      exec.round_copy_doubles.push_back(copy_doubles);
      for (const SendOp& op : round.sends) exec.send_msg.push_back(op.msg);
      for (const RecvOp& op : round.recvs) exec.recv_msg.push_back(op.msg);
      exec.send_begin.push_back(static_cast<std::int64_t>(exec.send_msg.size()));
      exec.recv_begin.push_back(static_cast<std::int64_t>(exec.recv_msg.size()));
    }
  }
  exec.msg_bytes.reserve(schedule.messages.size());
  for (const MsgInfo& m : schedule.messages) exec.msg_bytes.push_back(m.bytes());
  return exec;
}

namespace {

Plan wrap(Schedule schedule, int repetitions, std::string algorithm) {
  MR_EXPECT(repetitions >= 1, "repetition count must be >= 1");
  Plan plan;
  plan.schedule = std::move(schedule);
  plan.repetitions = repetitions;
  plan.algorithm = std::move(algorithm);
  plan.exec = derive_exec(plan.schedule);
  return plan;
}

}  // namespace

Plan make_plan(Schedule schedule, int repetitions, std::string algorithm) {
  const verify::Report report = verify::analyze_structure(schedule);
  MR_EXPECT(report.clean(), "malformed schedule:\n" + report.to_string());
  return wrap(std::move(schedule), repetitions, std::move(algorithm));
}

Plan compile_plan(const std::string& algorithm, std::int32_t p,
                  std::int64_t count, std::int32_t root, int repetitions) {
  MR_EXPECT(repetitions >= 1, "repetition count must be >= 1");
  Schedule schedule = make_algorithm(algorithm, p, count, root);
  const verify::Report report = verify::analyze(schedule);
  MR_EXPECT(report.clean(), "plan " + algorithm +
                                " fails static verification:\n" +
                                report.to_string());
  return wrap(std::move(schedule), repetitions, algorithm);
}

}  // namespace mr::simmpi
