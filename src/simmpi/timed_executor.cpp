#include "mixradix/simmpi/timed_executor.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>

#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/simnet/route_table.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::simmpi {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-15;

/// Global (job, virtual message) key for flow cookies. Virtual message ids
/// enumerate repetitions: v = rep * messages_per_rep + base_msg, exactly
/// the ids a materialized repeat() would assign.
struct MsgKey {
  std::int32_t job;
  std::int32_t msg;
};
std::int64_t encode(MsgKey k) {
  return (static_cast<std::int64_t>(k.job) << 32) |
         static_cast<std::uint32_t>(k.msg);
}
MsgKey decode(std::int64_t cookie) {
  return MsgKey{static_cast<std::int32_t>(cookie >> 32),
                static_cast<std::int32_t>(cookie & 0xffffffff)};
}

struct MsgState {
  double sender_posted = -1;
  double receiver_posted = -1;
  bool flow_scheduled = false;
  bool transfer_done = false;
  double transfer_time = 0;
};

struct RankState {
  std::int64_t round = 0;  ///< virtual round: rep * rounds_per_rep + local.
  int outstanding = 0;     ///< unfinished sends+recvs of the current round.
  bool posted = false;
  double last_time = 0;    ///< completion time of the last finished op/round.
  bool finished = false;
};

}  // namespace

/// Everything the engine allocates, hoisted so reuse across runs is
/// alloc-free once warm: the flow simulator (with its channel lists and
/// completion heap), the route table (which also holds the machine's
/// channel capacities), the event heap, and per-job message and rank state.
struct SimWorkspace::Impl {
  simnet::FlowSim flows;
  simnet::RouteTable routes;
  std::string fingerprint;
  std::vector<detail::Event> events;  ///< binary min-heap (Event::operator>).
  std::vector<std::vector<MsgState>> msg_state;
  std::vector<std::vector<RankState>> rank_state;
  std::vector<std::vector<simnet::RouteTable::RouteId>> msg_route;
  std::vector<double> finish;

  /// Bind to `machine`: a changed fingerprint rebinds the route table
  /// (dropping interned routes); an equivalent machine only retargets the
  /// table's reference.
  void bind(const topo::Machine& machine) {
    std::string fp = topo::machine_fingerprint(machine);
    if (fp == fingerprint) {
      routes.rebind_equivalent(machine);
      return;
    }
    fingerprint = std::move(fp);
    routes.bind(machine);
  }
};

SimWorkspace::SimWorkspace() : impl_(std::make_unique<Impl>()) {}
SimWorkspace::~SimWorkspace() = default;
SimWorkspace::SimWorkspace(SimWorkspace&&) noexcept = default;
SimWorkspace& SimWorkspace::operator=(SimWorkspace&&) noexcept = default;

simnet::RouteTable& SimWorkspace::route_table(const topo::Machine& machine) {
  impl_->bind(machine);
  return impl_->routes;
}

namespace {

class Engine {
 public:
  Engine(const topo::Machine& machine, const std::vector<PlanJob>& jobs,
         const ExecOptions& options, SimWorkspace::Impl& ws)
      : machine_(machine), jobs_(jobs), ws_(ws) {
    ws_.bind(machine);
    ws_.flows.reset(ws_.routes.capacities(), options.completion_slack);
    ws_.events.clear();
    const std::size_t njobs = jobs_.size();
    ws_.msg_state.resize(njobs);
    ws_.rank_state.resize(njobs);
    ws_.msg_route.resize(njobs);
    ws_.finish.assign(njobs, 0.0);
    result_.round_finish.resize(njobs);
    route_hits_before_ = ws_.routes.stats().hits;
    route_misses_before_ = ws_.routes.stats().misses;
    for (std::size_t j = 0; j < njobs; ++j) {
      const PlanJob& job = jobs_[j];
      const Plan& plan = *job.plan;
      MR_EXPECT(plan.repetitions >= 1, "repetition count must be >= 1");
      MR_EXPECT(static_cast<std::int32_t>(job.core_of_rank.size()) ==
                    plan.nranks(),
                "core binding size must equal the plan's nranks");
      for (std::size_t r = 0; r < job.core_of_rank.size(); ++r) {
        const std::int64_t core = job.core_of_rank[r];
        MR_EXPECT(core >= 0 && core < machine.cores(),
                  "job " + std::to_string(j) + " rank " + std::to_string(r) +
                      ": core " + std::to_string(core) +
                      " is out of range (machine has " +
                      std::to_string(machine.cores()) + " cores)");
      }
      const std::int64_t virtual_msgs = plan.total_messages();
      MR_EXPECT(virtual_msgs <= std::numeric_limits<std::int32_t>::max(),
                "repetitions * messages overflows the message id space");
      ws_.msg_state[j].assign(static_cast<std::size_t>(virtual_msgs),
                              MsgState{});
      ws_.rank_state[j].assign(static_cast<std::size_t>(plan.nranks()),
                               RankState{});
      result_.round_finish[j].assign(
          static_cast<std::size_t>(plan.exec.rank_rounds_begin.back()), 0.0);
      // Pre-resolve every base message's route once per (plan, binding) —
      // repetitions and StartFlow events then index straight into the
      // interned table.
      auto& routes = ws_.msg_route[j];
      routes.clear();
      routes.reserve(plan.schedule.messages.size());
      for (const MsgInfo& m : plan.schedule.messages) {
        routes.push_back(ws_.routes.route(
            job.core_of_rank[static_cast<std::size_t>(m.src)],
            job.core_of_rank[static_cast<std::size_t>(m.dst)]));
        MR_EXPECT(!ws_.routes.too_deep(routes.back()),
                  "a route crosses more channels than the flow simulator "
                  "carries (kMaxChannelsPerFlow)");
      }
      for (std::int32_t r = 0; r < plan.nranks(); ++r) {
        push({job.start_time, detail::EventKind::PostRound,
              static_cast<std::int32_t>(j), r});
      }
      result_.total_messages += virtual_msgs;
    }
  }

  TimedResult run() {
    while (true) {
      const double t_evt = ws_.events.empty() ? kInf : ws_.events.front().time;
      const auto flow_next = ws_.flows.next_completion_time();
      const double t_flow = flow_next.value_or(kInf);
      if (t_evt == kInf && t_flow == kInf) break;
      if (t_flow <= t_evt + kTimeEps) {
        for (const auto& done : ws_.flows.advance_and_pop()) {
          ++result_.total_flow_events;
          on_transfer_done(decode(done.user), done.time);
        }
      } else {
        ws_.flows.advance_to(t_evt);
        // Handle every event at this timestamp before giving the flow
        // simulator a chance to recompute rates.
        while (!ws_.events.empty() && ws_.events.front().time <= t_evt + kTimeEps) {
          const detail::Event e = pop();
          ++result_.engine_stats.events_processed;
          if (e.kind == detail::EventKind::PostRound) {
            post_round(e.job, e.a, e.time);
          } else {
            start_flow(e.job, e.a);
          }
        }
      }
    }
    check_finished();
    result_.job_finish = ws_.finish;
    for (double f : ws_.finish) {
      result_.makespan = std::max(result_.makespan, f);
    }
    result_.flow_stats = ws_.flows.stats();
    result_.engine_stats.route_cache_hits =
        ws_.routes.stats().hits - route_hits_before_;
    result_.engine_stats.route_cache_misses =
        ws_.routes.stats().misses - route_misses_before_;
    return std::move(result_);
  }

 private:
  /// The event queue ran dry: a rank short of its last round means its
  /// job deadlocked. The analyzer runs only then, for the cycle trace.
  void check_finished() const {
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const auto& ranks = ws_.rank_state[j];
      const auto stuck =
          std::find_if(ranks.begin(), ranks.end(),
                       [](const RankState& state) { return !state.finished; });
      if (stuck == ranks.end()) continue;
      const Plan& plan = *jobs_[j].plan;
      const auto rank = static_cast<std::int32_t>(stuck - ranks.begin());
      std::ostringstream os;
      os << "job " << j;
      if (!plan.algorithm.empty()) os << " (" << plan.algorithm << ")";
      os << " deadlocks: rank " << rank << " stops in round " << stuck->round
         << " of " << plan.exec.rounds_of(rank) * plan.repetitions << "\n";
      // The analyzer's happens-before graph treats every send as posted
      // unconditionally; without a cycle there, rendezvous closed the loop.
      const verify::Report report = verify::analyze_deadlock(plan.schedule);
      os << (report.clean() ? "no happens-before cycle: a rendezvous send "
                              "waits for a receive that is never posted"
                            : report.to_string());
      throw mr::invalid_argument(os.str());
    }
  }

  void push(detail::Event e) {
    ws_.events.push_back(e);
    std::push_heap(ws_.events.begin(), ws_.events.end(), std::greater<>{});
    result_.engine_stats.peak_event_queue =
        std::max(result_.engine_stats.peak_event_queue,
                 static_cast<std::int64_t>(ws_.events.size()));
  }

  detail::Event pop() {
    std::pop_heap(ws_.events.begin(), ws_.events.end(), std::greater<>{});
    const detail::Event e = ws_.events.back();
    ws_.events.pop_back();
    return e;
  }

  const Plan& plan_of(std::int32_t job) const {
    return *jobs_[static_cast<std::size_t>(job)].plan;
  }

  std::int64_t messages_per_rep(std::int32_t job) const {
    return plan_of(job).messages_per_rep();
  }

  /// Message metadata of a virtual message id (repetitions share it).
  const MsgInfo& msg_info(std::int32_t job, std::int32_t msg) const {
    return plan_of(job).schedule.messages[static_cast<std::size_t>(
        msg % messages_per_rep(job))];
  }

  simnet::RouteTable::RouteId route_of(std::int32_t job,
                                       std::int32_t msg) const {
    return ws_.msg_route[static_cast<std::size_t>(job)][static_cast<std::size_t>(
        msg % messages_per_rep(job))];
  }

  bool is_eager(std::int32_t job, std::int32_t msg) const {
    return plan_of(job).exec.msg_bytes[static_cast<std::size_t>(
               msg % messages_per_rep(job))] <= machine_.costs().eager_threshold;
  }

  void post_round(std::int32_t job, std::int32_t rank, double t) {
    const auto j = static_cast<std::size_t>(job);
    const Plan& plan = plan_of(job);
    const PlanExec& exec = plan.exec;
    auto& state = ws_.rank_state[j][static_cast<std::size_t>(rank)];
    const std::int64_t rounds_per_rep = exec.rounds_of(rank);
    const std::int64_t total_rounds = rounds_per_rep * plan.repetitions;
    // This post (or the rank's finish) is when its previous round ended.
    if (state.round > 0 && state.round <= rounds_per_rep) {
      result_.round_finish[j][static_cast<std::size_t>(
          exec.rank_rounds_begin[static_cast<std::size_t>(rank)] +
          state.round - 1)] = t;
    }
    if (state.round >= total_rounds) {
      state.finished = true;
      state.last_time = t;
      on_rank_finished(job, t);
      return;
    }
    // Flattened CSR index of this round and the repetition's message shift.
    const std::int64_t gi =
        exec.rank_rounds_begin[static_cast<std::size_t>(rank)] +
        state.round % rounds_per_rep;
    const std::int32_t shift = static_cast<std::int32_t>(
        state.round / rounds_per_rep * messages_per_rep(job));
    const auto i = static_cast<std::size_t>(gi);
    const double ready = t + round_cpu_time(exec, machine_.costs(), gi);
    state.posted = true;
    state.outstanding = static_cast<int>(
        (exec.send_begin[i + 1] - exec.send_begin[i]) +
        (exec.recv_begin[i + 1] - exec.recv_begin[i]));

    for (std::int64_t k = exec.send_begin[i]; k < exec.send_begin[i + 1]; ++k) {
      const std::int32_t msg = exec.send_msg[static_cast<std::size_t>(k)] + shift;
      auto& ms = ws_.msg_state[j][static_cast<std::size_t>(msg)];
      ms.sender_posted = ready;
      if (is_eager(job, msg)) {
        // Fire-and-forget: the flow departs regardless of the receiver and
        // the sender's op completes at the post.
        schedule_flow(job, msg, ready);
        op_complete(job, rank, ready);
      } else if (ms.receiver_posted >= 0) {
        schedule_flow(job, msg, std::max(ready, ms.receiver_posted));
      }
    }
    for (std::int64_t k = exec.recv_begin[i]; k < exec.recv_begin[i + 1]; ++k) {
      const std::int32_t msg = exec.recv_msg[static_cast<std::size_t>(k)] + shift;
      auto& ms = ws_.msg_state[j][static_cast<std::size_t>(msg)];
      ms.receiver_posted = ready;
      if (ms.transfer_done) {
        // Eager payload already arrived; completing costs nothing extra.
        op_complete(job, rank, std::max(ready, ms.transfer_time));
      } else if (!is_eager(job, msg) && ms.sender_posted >= 0 &&
                 !ms.flow_scheduled) {
        schedule_flow(job, msg, std::max(ready, ms.sender_posted));
      }
    }
    // Ops completing synchronously above (eager sends, already-arrived
    // receives) may have driven outstanding to zero and advanced the round
    // from inside op_complete — in that case posted is already false and
    // advancing again here would double-post the next round.
    if (state.posted && state.outstanding == 0) {
      advance_rank(job, rank, ready);
    }
  }

  void schedule_flow(std::int32_t job, std::int32_t msg, double post_time) {
    auto& ms = ws_.msg_state[static_cast<std::size_t>(job)]
                            [static_cast<std::size_t>(msg)];
    MR_ASSERT_INTERNAL(!ms.flow_scheduled);
    ms.flow_scheduled = true;
    push({post_time + ws_.routes.latency(route_of(job, msg)),
          detail::EventKind::StartFlow, job, msg});
  }

  void start_flow(std::int32_t job, std::int32_t msg) {
    ws_.flows.add_flow(ws_.routes.channels(route_of(job, msg)),
                       static_cast<double>(msg_info(job, msg).bytes()),
                       encode({job, msg}));
  }

  void on_transfer_done(MsgKey key, double t) {
    auto& ms = ws_.msg_state[static_cast<std::size_t>(key.job)]
                            [static_cast<std::size_t>(key.msg)];
    ms.transfer_done = true;
    ms.transfer_time = t;
    const MsgInfo& m = msg_info(key.job, key.msg);
    if (!is_eager(key.job, key.msg)) {
      // Rendezvous: the sender's op was pending on the transfer.
      op_complete(key.job, m.src, t);
    }
    if (ms.receiver_posted >= 0) {
      op_complete(key.job, m.dst, t);
    }
    // else: eager arrival before the receiver posted; the receive completes
    // when the receiver posts its round (handled in post_round).
  }

  void op_complete(std::int32_t job, std::int32_t rank, double t) {
    auto& state = ws_.rank_state[static_cast<std::size_t>(job)]
                                [static_cast<std::size_t>(rank)];
    MR_ASSERT_INTERNAL(state.posted && state.outstanding > 0);
    state.last_time = std::max(state.last_time, t);
    if (--state.outstanding == 0) {
      advance_rank(job, rank, state.last_time);
    }
  }

  void advance_rank(std::int32_t job, std::int32_t rank, double t) {
    auto& state = ws_.rank_state[static_cast<std::size_t>(job)]
                                [static_cast<std::size_t>(rank)];
    state.posted = false;
    ++state.round;
    push({t, detail::EventKind::PostRound, job, rank});
  }

  void on_rank_finished(std::int32_t job, double t) {
    auto& finish = ws_.finish[static_cast<std::size_t>(job)];
    finish = std::max(finish, t);
  }

  const topo::Machine& machine_;
  const std::vector<PlanJob>& jobs_;
  SimWorkspace::Impl& ws_;
  std::int64_t route_hits_before_ = 0;
  std::int64_t route_misses_before_ = 0;
  TimedResult result_;
};

}  // namespace

TimedResult run_timed(const topo::Machine& machine,
                      const std::vector<PlanJob>& jobs,
                      const ExecOptions& options) {
  MR_EXPECT(!jobs.empty(), "need at least one job");
  for (const PlanJob& job : jobs) {
    MR_EXPECT(job.plan != nullptr, "job without plan");
  }
  std::optional<SimWorkspace> local;
  SimWorkspace* ws = options.workspace;
  if (ws == nullptr) ws = &local.emplace();
  Engine engine(machine, jobs, options, ws->impl());
  return engine.run();
}

}  // namespace mr::simmpi
