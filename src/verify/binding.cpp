#include "mixradix/verify/binding.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mixradix/util/expect.hpp"

namespace mr::verify::binding {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Diagnostic accumulator that prefixes "job k:" when several jobs are
/// analyzed, mirroring the run_timed job indexing.
class Sink {
 public:
  Sink(Report& report, bool multi_job) : report_(report), multi_(multi_job) {}

  void job(int j) { job_ = j; }

  template <typename... Parts>
  void error(std::int32_t rank, int round, std::int32_t msg, Parts&&... parts) {
    add(Severity::Error, rank, round, msg, std::forward<Parts>(parts)...);
  }
  template <typename... Parts>
  void warn(std::int32_t rank, int round, std::int32_t msg, Parts&&... parts) {
    add(Severity::Warning, rank, round, msg, std::forward<Parts>(parts)...);
  }

 private:
  template <typename... Parts>
  void add(Severity severity, std::int32_t rank, int round, std::int32_t msg,
           Parts&&... parts) {
    std::ostringstream os;
    if (multi_ && job_ >= 0) {
      os << "job " << job_ << ": ";
    }
    (os << ... << parts);
    report_.diagnostics.push_back(
        {severity, Check::Binding, rank, round, msg, os.str()});
  }

  Report& report_;
  bool multi_ = false;
  int job_ = 0;
};

/// Per-message structural facts, for one repetition of one job (routes
/// and round placement are repetition- and payload-invariant).
struct MsgFacts {
  std::int64_t send_gi = -1;  ///< flattened CSR round index of the send.
  std::int64_t recv_gi = -1;
  simnet::RouteTable::RouteId route = -1;
  double latency = 0;         ///< the route's path latency.
  double cap_min = kInf;      ///< bottleneck capacity along the route; inf = self.
  bool crosses_network = false;  ///< route non-empty.
};

/// Per-job structural state shared by the load report and the bound.
struct JobFacts {
  std::vector<MsgFacts> msgs;  ///< indexed by message id (one rep).
};

/// Validate one job's binding; returns false when later phases must not
/// trust its indices. Fills `facts` (rounds/routes) only on success.
bool check_job(const topo::Machine& machine, const JobBinding& job,
               simnet::RouteTable& routes, Sink& sink, JobFacts& facts) {
  if (job.schedule == nullptr || job.exec == nullptr ||
      job.core_of_rank == nullptr) {
    sink.error(-1, -1, -1, "job is missing its ",
               job.schedule == nullptr  ? "schedule"
               : job.exec == nullptr    ? "execution structure"
                                        : "core_of_rank binding");
    return false;
  }
  const simmpi::Schedule& sched = *job.schedule;
  const simmpi::PlanExec& exec = *job.exec;
  const std::vector<std::int64_t>& cores = *job.core_of_rank;
  bool ok = true;

  if (job.repetitions < 1) {
    sink.error(-1, -1, -1, "repetitions must be >= 1, got ", job.repetitions);
    ok = false;
  }
  if (!std::isfinite(job.start_time) || job.start_time < 0) {
    sink.error(-1, -1, -1, "start_time must be finite and >= 0, got ",
               job.start_time);
    ok = false;
  }
  if (cores.size() != static_cast<std::size_t>(sched.nranks)) {
    sink.error(-1, -1, -1, "core_of_rank has ", cores.size(),
               " entries for ", sched.nranks, " ranks");
    return false;
  }
  for (std::int32_t r = 0; r < sched.nranks; ++r) {
    const std::int64_t core = cores[static_cast<std::size_t>(r)];
    if (core < 0 || core >= machine.cores()) {
      sink.error(r, -1, -1, "rank ", r, " is bound to core ", core,
                 " outside machine '", machine.name(), "' with ",
                 machine.cores(), " cores");
      ok = false;
    }
  }
  if (!ok) {
    return false;
  }
  {
    // Two ranks sharing a core is legal (latency-only self routes) but is
    // almost always a mapping-generator bug worth surfacing.
    std::vector<std::int64_t> sorted = cores;
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) {
      sink.warn(-1, -1, -1, "two ranks share core ", *dup,
                "; their traffic is modelled latency-only");
    }
  }
  // The TimedExecutor shifts message ids by rep * messages_per_rep in
  // int32 arithmetic; overflow would alias messages across repetitions.
  const auto msgs_per_rep = static_cast<std::int64_t>(sched.messages.size());
  if (msgs_per_rep * job.repetitions >
      static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max())) {
    sink.error(-1, -1, -1, "repetitions * messages (", job.repetitions, " * ",
               msgs_per_rep, ") overflows the 32-bit message id space");
    return false;
  }
  if (exec.msg_bytes.size() != sched.messages.size() ||
      exec.rank_rounds_begin.size() !=
          static_cast<std::size_t>(sched.nranks) + 1) {
    sink.error(-1, -1, -1,
               "execution structure does not match the schedule (",
               exec.msg_bytes.size(), " vs ", sched.messages.size(),
               " messages, ", exec.rank_rounds_begin.size(), " vs ",
               sched.nranks + 1, " rank offsets); was it derived from a "
               "different plan?");
    return false;
  }
  // Endpoints index the binding and the round offsets below.
  const auto in_range = [&](std::int32_t r) {
    return r >= 0 && r < sched.nranks;
  };
  for (std::size_t m = 0; m < sched.messages.size(); ++m) {
    const simmpi::MsgInfo& info = sched.messages[m];
    if (!in_range(info.src) || !in_range(info.dst)) {
      sink.error(in_range(info.src) ? info.src : -1, -1,
                 static_cast<std::int32_t>(m), "message ", m,
                 " runs from rank ", info.src, " to rank ", info.dst,
                 ", outside the schedule's ", sched.nranks, " ranks");
      ok = false;
    }
  }
  if (!ok) {
    return false;
  }

  // Locate every message's send/recv round in the CSR, then resolve and
  // vet its route.
  facts.msgs.assign(sched.messages.size(), {});
  const std::int64_t total_rounds = exec.rank_rounds_begin.back();
  for (std::int64_t gi = 0; gi < total_rounds; ++gi) {
    const auto i = static_cast<std::size_t>(gi);
    for (std::int64_t k = exec.send_begin[i]; k < exec.send_begin[i + 1];
         ++k) {
      facts.msgs[static_cast<std::size_t>(
                     exec.send_msg[static_cast<std::size_t>(k)])]
          .send_gi = gi;
    }
    for (std::int64_t k = exec.recv_begin[i]; k < exec.recv_begin[i + 1];
         ++k) {
      facts.msgs[static_cast<std::size_t>(
                     exec.recv_msg[static_cast<std::size_t>(k)])]
          .recv_gi = gi;
    }
  }
  for (std::size_t m = 0; m < sched.messages.size(); ++m) {
    const simmpi::MsgInfo& info = sched.messages[m];
    MsgFacts& mf = facts.msgs[m];
    const auto msg_id = static_cast<std::int32_t>(m);
    if (mf.send_gi < 0 || mf.recv_gi < 0) {
      sink.error(info.src, -1, msg_id, "message ", m,
                 " is never ", mf.send_gi < 0 ? "sent" : "received",
                 " in the execution structure");
      ok = false;
      continue;
    }
    const int send_round = static_cast<int>(
        mf.send_gi -
        exec.rank_rounds_begin[static_cast<std::size_t>(info.src)]);
    mf.route = routes.route(cores[static_cast<std::size_t>(info.src)],
                            cores[static_cast<std::size_t>(info.dst)]);
    // The simulator refuses these routes; report them as analysis
    // findings so a too-deep machine fails with a location.
    if (routes.too_deep(mf.route)) {
      sink.error(info.src, send_round, msg_id,
                 "route crosses ", routes.channel_count(mf.route),
                 " channels, above the simulator limit of ",
                 simnet::kMaxChannelsPerFlow);
      ok = false;
      continue;
    }
    mf.latency = routes.latency(mf.route);
    mf.cap_min = routes.capacity(mf.route);
    mf.crosses_network = routes.channel_count(mf.route) > 0;
    if (mf.cap_min <= 0) {
      sink.error(info.src, send_round, msg_id,
                 "route bottleneck capacity is ", mf.cap_min,
                 "; transfers would never complete");
      ok = false;
    }
  }
  return ok;
}

/// One (channel, round, bytes) contribution; bucketed by channel with a
/// counting sort to aggregate without per-channel hash maps or a
/// comparison sort on the analyzer hot path.
struct ChannelTouch {
  simnet::ChannelId channel = -1;
  std::int32_t round = 0;
  std::int64_t bytes = 0;
};

void build_load_report(const topo::Machine& machine,
                       const std::vector<JobBinding>& jobs,
                       const std::vector<JobFacts>& facts,
                       const simnet::RouteTable& routes, int top_k,
                       LoadReport& load) {
  const std::vector<double>& capacities = routes.capacities();
  std::vector<ChannelTouch> touches;
  std::vector<double> round_straggler;  ///< slowest uncontended msg per round.
  // Per-channel totals over all jobs and repetitions, kept sparse via the
  // touched list so the flat arrays are only ever scanned where traffic is.
  std::vector<std::int64_t> chan_bytes(capacities.size(), 0);
  std::vector<std::int64_t> chan_flows(capacities.size(), 0);
  std::vector<simnet::ChannelId> touched;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobBinding& job = jobs[j];
    const simmpi::Schedule& sched = *job.schedule;
    const simmpi::PlanExec& exec = *job.exec;
    const auto reps = static_cast<std::int64_t>(job.repetitions);
    for (std::size_t m = 0; m < sched.messages.size(); ++m) {
      const MsgFacts& mf = facts[j].msgs[m];
      const std::int64_t bytes = sched.messages[m].bytes();
      if (!mf.crosses_network) {
        load.self_bytes += bytes * reps;
        continue;
      }
      load.total_bytes += bytes * reps;
      load.total_flows += reps;
      // Report rounds by the sender's local round index within one
      // repetition — the axis schedules are written along.
      const std::int64_t round =
          mf.send_gi - exec.rank_rounds_begin[static_cast<std::size_t>(
                           sched.messages[m].src)];
      if (round >= static_cast<std::int64_t>(load.rounds.size())) {
        load.rounds.resize(static_cast<std::size_t>(round) + 1);
        round_straggler.resize(static_cast<std::size_t>(round) + 1, 0.0);
      }
      RoundLoad& rl = load.rounds[static_cast<std::size_t>(round)];
      rl.bytes += bytes;
      rl.flows += 1;
      round_straggler[static_cast<std::size_t>(round)] =
          std::max(round_straggler[static_cast<std::size_t>(round)],
                   static_cast<double>(bytes) / mf.cap_min);
      const simnet::ChanSet& set = routes.channels(mf.route);
      for (std::int32_t k = 0; k < set.count; ++k) {
        const simnet::ChannelId c = set.ids[static_cast<std::size_t>(k)];
        if (chan_flows[static_cast<std::size_t>(c)] == 0) {
          touched.push_back(c);
        }
        chan_bytes[static_cast<std::size_t>(c)] += bytes * reps;
        chan_flows[static_cast<std::size_t>(c)] += reps;
        touches.push_back({c, static_cast<std::int32_t>(round), bytes});
      }
    }
  }
  for (std::size_t r = 0; r < load.rounds.size(); ++r) {
    load.rounds[r].round = static_cast<std::int64_t>(r);
  }

  // Counting sort by channel: occurrence counts -> bucket offsets ->
  // scatter. O(touches + touched channels), no comparisons.
  std::sort(touched.begin(), touched.end());
  std::vector<std::int32_t> bucket_begin(touched.size() + 1, 0);
  std::vector<std::int32_t> bucket_of_channel(capacities.size(), -1);
  for (std::size_t t = 0; t < touched.size(); ++t) {
    bucket_of_channel[static_cast<std::size_t>(touched[t])] =
        static_cast<std::int32_t>(t);
  }
  for (const ChannelTouch& t : touches) {
    ++bucket_begin[static_cast<std::size_t>(
                       bucket_of_channel[static_cast<std::size_t>(t.channel)]) +
                   1];
  }
  for (std::size_t t = 1; t <= touched.size(); ++t) {
    bucket_begin[t] += bucket_begin[t - 1];
  }
  std::vector<ChannelTouch> bucketed(touches.size());
  {
    std::vector<std::int32_t> cursor(bucket_begin.begin(),
                                     bucket_begin.end() - 1);
    for (const ChannelTouch& t : touches) {
      const auto b = static_cast<std::size_t>(
          bucket_of_channel[static_cast<std::size_t>(t.channel)]);
      bucketed[static_cast<std::size_t>(cursor[b]++)] = t;
    }
  }

  // Per-round scratch, reset via the seen list after each channel.
  std::vector<std::int64_t> round_sum(load.rounds.size(), 0);
  std::vector<std::int32_t> rounds_seen;
  std::vector<ChannelLoad> ranked;
  ranked.reserve(touched.size());
  for (std::size_t t = 0; t < touched.size(); ++t) {
    const simnet::ChannelId id = touched[t];
    ChannelLoad cl;
    cl.channel = id;
    cl.bytes = chan_bytes[static_cast<std::size_t>(id)];
    cl.flows = chan_flows[static_cast<std::size_t>(id)];
    const double cap = capacities[static_cast<std::size_t>(id)];
    cl.serialization_seconds = static_cast<double>(cl.bytes) / cap;
    rounds_seen.clear();
    for (std::int32_t e = bucket_begin[t]; e < bucket_begin[t + 1]; ++e) {
      const ChannelTouch& touch = bucketed[static_cast<std::size_t>(e)];
      const auto r = static_cast<std::size_t>(touch.round);
      if (round_sum[r] == 0 && touch.bytes != 0) {
        rounds_seen.push_back(touch.round);
      }
      round_sum[r] += touch.bytes;
    }
    for (const std::int32_t round : rounds_seen) {
      const auto r = static_cast<std::size_t>(round);
      const std::int64_t bytes = round_sum[r];
      round_sum[r] = 0;
      const double straggler = round_straggler[r];
      if (straggler <= 0) {
        continue;
      }
      const double over = static_cast<double>(bytes) / cap / straggler;
      cl.oversubscription = std::max(cl.oversubscription, over);
      RoundLoad& rl = load.rounds[r];
      if (over > rl.max_oversubscription) {
        rl.max_oversubscription = over;
        rl.hottest = id;
      }
    }
    ranked.push_back(std::move(cl));
  }
  for (RoundLoad& rl : load.rounds) {
    if (rl.hottest >= 0) {
      rl.hottest_name = channel_name(machine, rl.hottest);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ChannelLoad& a, const ChannelLoad& b) {
              if (a.serialization_seconds != b.serialization_seconds) {
                return a.serialization_seconds > b.serialization_seconds;
              }
              return a.channel < b.channel;
            });
  if (static_cast<int>(ranked.size()) > top_k) {
    ranked.resize(static_cast<std::size_t>(top_k));
  }
  // Names are built only for the channels that survived the cut.
  for (ChannelLoad& cl : ranked) {
    cl.name = channel_name(machine, cl.channel);
  }
  load.top_channels = std::move(ranked);
}

/// Critical-path DP over (job, rank, virtual round) nodes plus the
/// per-channel serialization bound, for every lane at once. The structure
/// (node numbering, pend counts, worklist pops) comes from lane 0; each
/// lane l keeps its own doubles, stored lane-minor (node n's lane-l value
/// at [n * P + l]) so one node's lanes share a cache line.
///
/// Each node splits into a READY event (previous round finished + this
/// round's CPU cost) and a FINISH event (all posted ops complete). A
/// message constrains the receiver's FINISH by the sender's READY — not
/// its FINISH — which is what lets the ubiquitous same-round exchange
/// (a<->b sendrecv) stay acyclic: posts are non-blocking, only the
/// waitall orders rounds. FINISH events left unprocessed mean a genuine
/// happens-before cycle: diagnosed, and the bound stays 0 (trivially
/// sound). Pend counts and worklist pushes depend only on the CSR edges,
/// never on message bytes, and every value is a max/min of `a + b` terms,
/// so the pop order cannot change any lane's doubles.
void build_bound(const topo::Machine& machine,
                 const std::vector<std::vector<JobBinding>>& lanes,
                 const std::vector<JobFacts>& facts,
                 const simnet::RouteTable& routes, Sink& sink,
                 std::vector<Result>& results) {
  const std::vector<JobBinding>& jobs = lanes.front();
  const std::size_t nlanes = lanes.size();
  const std::size_t njobs = jobs.size();

  // Nodes: per job, per rank, virtual round vr = rep * rounds + local in
  // [0, rounds_of(rank) * repetitions), numbered job-, rank-, then
  // vr-major, so a node's predecessor in program order is node - 1.
  struct Node {
    std::int32_t job = 0;
    std::int32_t rep = 0;
    std::int64_t round = 0;  ///< CSR round index within the job.
    bool first = false;      ///< vr == 0: starts at the job's start time.
    bool last = false;       ///< the rank's final virtual round.
  };
  std::vector<Node> nodes;
  std::vector<std::int64_t> worklist;  ///< seeded with each rank's first READY.
  std::vector<std::size_t> msg_base(njobs + 1, 0);
  std::vector<std::size_t> round_base(njobs + 1, 0);
  std::vector<std::int64_t> rank_first;  ///< first node of (job, rank).
  std::vector<std::size_t> rank_first_base(njobs + 1, 0);
  for (std::size_t j = 0; j < njobs; ++j) {
    const simmpi::PlanExec& exec = *jobs[j].exec;
    const int reps = jobs[j].repetitions;
    for (std::int32_t r = 0; r < jobs[j].schedule->nranks; ++r) {
      const std::int64_t rounds = exec.rounds_of(r);
      const std::int64_t begin =
          exec.rank_rounds_begin[static_cast<std::size_t>(r)];
      rank_first.push_back(static_cast<std::int64_t>(nodes.size()));
      if (rounds > 0) {
        worklist.push_back(2 * static_cast<std::int64_t>(nodes.size()));
      }
      for (int rep = 0; rep < reps; ++rep) {
        for (std::int64_t local = 0; local < rounds; ++local) {
          nodes.push_back({static_cast<std::int32_t>(j), rep, begin + local,
                           rep == 0 && local == 0,
                           rep == reps - 1 && local == rounds - 1});
        }
      }
    }
    rank_first_base[j + 1] = rank_first.size();
    msg_base[j + 1] = msg_base[j] + facts[j].msgs.size();
    round_base[j + 1] =
        round_base[j] + static_cast<std::size_t>(exec.rank_rounds_begin.back());
  }
  const std::size_t n = nodes.size();
  const std::size_t nmsgs = msg_base[njobs];

  // Receiving node of each message in repetition 0, and the node stride
  // between repetitions; FINISH prerequisites outstanding per node (own
  // READY plus one per incoming receive edge).
  std::vector<std::int64_t> recv_node(nmsgs);
  std::vector<std::int64_t> recv_stride(nmsgs);
  std::vector<std::int32_t> pend(n, 1);
  for (std::size_t j = 0; j < njobs; ++j) {
    const simmpi::PlanExec& exec = *jobs[j].exec;
    for (std::size_t m = 0; m < facts[j].msgs.size(); ++m) {
      const std::int32_t dst = jobs[j].schedule->messages[m].dst;
      const auto d = static_cast<std::size_t>(dst);
      const std::size_t mi = msg_base[j] + m;
      recv_node[mi] = rank_first[rank_first_base[j] + d] +
                      facts[j].msgs[m].recv_gi - exec.rank_rounds_begin[d];
      recv_stride[mi] = exec.rounds_of(dst);
      for (int rep = 0; rep < jobs[j].repetitions; ++rep) {
        ++pend[static_cast<std::size_t>(recv_node[mi] + rep * recv_stride[mi])];
      }
    }
  }

  // Payload terms, lane-minor, with the exact expressions the engine uses.
  const topo::MessagingCosts& costs = machine.costs();
  std::vector<double> floors(nmsgs * nlanes);  ///< latency + bytes / cap.
  std::vector<std::uint8_t> eager(nmsgs * nlanes);
  std::vector<std::int64_t> rep_bytes(nmsgs * nlanes);  ///< bytes * reps.
  std::vector<double> round_cpu(round_base[njobs] * nlanes);
  for (std::size_t l = 0; l < nlanes; ++l) {
    for (std::size_t j = 0; j < njobs; ++j) {
      const JobBinding& job = lanes[l][j];
      for (std::size_t m = 0; m < facts[j].msgs.size(); ++m) {
        const MsgFacts& mf = facts[j].msgs[m];
        const std::int64_t bytes = job.schedule->messages[m].bytes();
        const std::size_t at = (msg_base[j] + m) * nlanes + l;
        floors[at] = mf.latency + static_cast<double>(bytes) / mf.cap_min;
        eager[at] = bytes <= costs.eager_threshold ? 1 : 0;
        rep_bytes[at] = bytes * job.repetitions;
      }
      const std::size_t rounds = round_base[j + 1] - round_base[j];
      for (std::size_t gi = 0; gi < rounds; ++gi) {
        round_cpu[(round_base[j] + gi) * nlanes + l] = simmpi::round_cpu_time(
            *job.exec, costs, static_cast<std::int64_t>(gi));
      }
    }
  }

  std::vector<double> finish(n * nlanes, 0.0);
  // Max over constraints a node's FINISH must respect beyond its own
  // READY: incoming message floors and its own rendezvous floors.
  std::vector<double> inbound(n * nlanes, 0.0);

  // Each message's earliest channel entry (sender READY + latency in
  // repetition 0), per lane; the channel bound is aggregated after the DP.
  std::vector<double> entry(nmsgs * nlanes);
  std::size_t finished = 0;
  std::vector<double> cp(nlanes, 0.0);
  std::vector<double> ready(nlanes);
  std::vector<std::uint8_t> merge_ready(nlanes);

  while (!worklist.empty()) {
    const std::int64_t event = worklist.back();
    worklist.pop_back();
    const std::int64_t node = event / 2;
    const auto ni = static_cast<std::size_t>(node);
    const Node& nd = nodes[ni];
    const auto j = static_cast<std::size_t>(nd.job);
    const simmpi::PlanExec& exec = *jobs[j].exec;
    // The previous round's FINISH, or the job start for the first round.
    const double* prev = nd.first ? nullptr : &finish[(ni - 1) * nlanes];
    const double start = jobs[j].start_time;
    double* in = &inbound[ni * nlanes];

    if (event % 2 == 1) {
      // FINISH: all prerequisites delivered. NOT clamped to this round's
      // own ready: the engine completes an in-flight receive at transfer
      // time without waiting out the receiver's CPU serialisation, so a
      // recv-only round can finish before its own ready. The ready term
      // was merged into `inbound` at READY time exactly when the engine
      // guarantees it (eager sends complete at ready; op-less rounds
      // advance at ready).
      double* fin = &finish[ni * nlanes];
      for (std::size_t l = 0; l < nlanes; ++l) {
        fin[l] = std::max(prev == nullptr ? start : prev[l], in[l]);
      }
      ++finished;
      if (nd.last) {
        for (std::size_t l = 0; l < nlanes; ++l) cp[l] = std::max(cp[l], fin[l]);
      } else {
        worklist.push_back(2 * (node + 1));
      }
      continue;
    }

    // READY: the previous round's FINISH (or the job start) is known.
    const auto i = static_cast<std::size_t>(nd.round);
    const double* cpu = &round_cpu[(round_base[j] + i) * nlanes];
    for (std::size_t l = 0; l < nlanes; ++l) {
      ready[l] = (prev == nullptr ? start : prev[l]) + cpu[l];
    }
    // The engine only guarantees finish >= ready when an eager send
    // completes at ready, or when the round has no network ops and
    // advances at ready. A recv-only round's in-flight receives complete
    // at raw transfer time, possibly before the receiver's own ready.
    const bool no_ops = exec.send_begin[i + 1] == exec.send_begin[i] &&
                        exec.recv_begin[i + 1] == exec.recv_begin[i];
    std::fill(merge_ready.begin(), merge_ready.end(), no_ops ? 1 : 0);
    for (std::int64_t k = exec.send_begin[i]; k < exec.send_begin[i + 1];
         ++k) {
      const auto m = static_cast<std::size_t>(
          exec.send_msg[static_cast<std::size_t>(k)]);
      const MsgFacts& mf = facts[j].msgs[m];
      const std::size_t mi = msg_base[j] + m;
      const std::size_t at = mi * nlanes;
      // The receiver's FINISH of the same repetition waits at least the
      // transfer floor past this READY.
      const auto ri =
          static_cast<std::size_t>(recv_node[mi] + nd.rep * recv_stride[mi]);
      double* rin = &inbound[ri * nlanes];
      for (std::size_t l = 0; l < nlanes; ++l) {
        rin[l] = std::max(rin[l], ready[l] + floors[at + l]);
        if (eager[at + l] != 0) {
          merge_ready[l] = 1;
        } else {
          // Rendezvous sends complete no earlier than their own transfer
          // floor (the receiver-ready term is dropped to keep the DP
          // acyclic — still a valid lower bound).
          in[l] = std::max(in[l], ready[l] + floors[at + l]);
        }
      }
      if (--pend[ri] == 0) {
        worklist.push_back(2 * static_cast<std::int64_t>(ri) + 1);
      }
      if (nd.rep == 0) {
        // ready is non-decreasing across repetitions, so repetition 0
        // holds each channel's earliest possible entry.
        for (std::size_t l = 0; l < nlanes; ++l) {
          entry[at + l] = ready[l] + mf.latency;
        }
      }
    }
    for (std::int64_t k = exec.recv_begin[i]; k < exec.recv_begin[i + 1];
         ++k) {
      const std::size_t at =
          (msg_base[j] + static_cast<std::size_t>(
                             exec.recv_msg[static_cast<std::size_t>(k)])) *
          nlanes;
      for (std::size_t l = 0; l < nlanes; ++l) {
        if (eager[at + l] == 0) {
          // Rendezvous transfers start only after the receiver posts.
          in[l] = std::max(in[l], ready[l] + floors[at + l]);
        }
      }
    }
    for (std::size_t l = 0; l < nlanes; ++l) {
      if (merge_ready[l] != 0) in[l] = std::max(in[l], ready[l]);
    }
    if (--pend[ni] == 0) {
      worklist.push_back(2 * node + 1);
    }
  }

  if (finished != n) {
    sink.error(-1, -1, -1,
               "happens-before graph has a cycle through ", n - finished,
               " of ", n, " rounds; the schedule deadlocks on this binding "
               "and no finite lower bound exists");
    return;
  }

  // Channel serialization: per channel, the earliest entry over the
  // messages crossing it plus their total bytes over its capacity. Flat
  // arrays + a touched list keep the pass hash-free; which channels are
  // touched is structural (a finite lane-0 entry marks one).
  struct ChannelLane {
    double entry = kInf;
    std::int64_t bytes = 0;
  };
  const std::vector<double>& capacities = routes.capacities();
  std::vector<ChannelLane> chan(capacities.size() * nlanes);
  std::vector<simnet::ChannelId> chan_touched;
  for (std::size_t j = 0; j < njobs; ++j) {
    for (std::size_t m = 0; m < facts[j].msgs.size(); ++m) {
      const MsgFacts& mf = facts[j].msgs[m];
      if (!mf.crosses_network) continue;
      const std::size_t at = (msg_base[j] + m) * nlanes;
      const simnet::ChanSet& set = routes.channels(mf.route);
      for (std::int32_t s = 0; s < set.count; ++s) {
        const simnet::ChannelId id = set.ids[static_cast<std::size_t>(s)];
        ChannelLane* cl = &chan[static_cast<std::size_t>(id) * nlanes];
        if (cl[0].entry == kInf) chan_touched.push_back(id);
        for (std::size_t l = 0; l < nlanes; ++l) {
          cl[l].entry = std::min(cl[l].entry, entry[at + l]);
          cl[l].bytes += rep_bytes[at + l];
        }
      }
    }
  }
  for (std::size_t l = 0; l < nlanes; ++l) {
    double agg = 0.0;
    for (const simnet::ChannelId id : chan_touched) {
      const auto c = static_cast<std::size_t>(id);
      const ChannelLane& cl = chan[c * nlanes + l];
      agg = std::max(agg, cl.entry + static_cast<double>(cl.bytes) /
                                         capacities[c]);
    }
    Bound& bound = results[l].bound;
    bound.critical_path = cp[l];
    bound.channel_serialization = agg;
    bound.lower_bound = std::max(cp[l], agg);
  }
}

}  // namespace

std::string channel_name(const topo::Machine& machine, simnet::ChannelId id) {
  static constexpr const char* kKind[3] = {"egress", "ingress", "mem"};
  const std::int64_t dense = id / 3;
  std::ostringstream os;
  if (id < 0 || dense >= machine.total_components()) {
    os << "channel[" << id << "]";
    return os.str();
  }
  int level = 0;
  for (int k = machine.depth() - 1; k >= 0; --k) {
    if (machine.component_id(k, 0) <= dense) {
      level = k;
      break;
    }
  }
  os << machine.level(level).name << '[' << dense - machine.component_id(level, 0)
     << "]." << kKind[id % 3];
  return os.str();
}

std::string Result::to_string() const {
  std::ostringstream os;
  os << "binding analysis of machine '" << machine << "': "
     << report.summary() << '\n';
  for (const Diagnostic& d : report.diagnostics) {
    os << "  " << d.to_string() << '\n';
  }
  if (!report.clean()) {
    return os.str();
  }
  os << "traffic: " << load.total_bytes << " bytes in " << load.total_flows
     << " flows over " << load.rounds.size() << " rounds ("
     << load.self_bytes << " self bytes)\n";
  for (const RoundLoad& r : load.rounds) {
    os << "  round " << r.round << ": " << r.bytes << " bytes, " << r.flows
       << " flows";
    if (r.hottest >= 0) {
      os << ", max oversubscription " << r.max_oversubscription << " on "
         << r.hottest_name;
    }
    os << '\n';
  }
  if (!load.top_channels.empty()) {
    os << "hottest channels:\n";
    for (const ChannelLoad& c : load.top_channels) {
      os << "  " << c.name << ": " << c.bytes << " bytes in " << c.flows
         << " flows, " << c.serialization_seconds
         << " s serialization, oversubscription " << c.oversubscription
         << '\n';
    }
  }
  os << "lower bound: " << bound.lower_bound << " s (critical path "
     << bound.critical_path << " s, channel serialization "
     << bound.channel_serialization << " s)\n";
  return os.str();
}

bool same_structure(const std::vector<JobBinding>& a,
                    const std::vector<JobBinding>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  // Jobs of one list usually share a plan; compare each plan pair once.
  const JobBinding* last_x = nullptr;
  const JobBinding* last_y = nullptr;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const JobBinding& x = a[j];
    const JobBinding& y = b[j];
    if (x.schedule == nullptr || x.exec == nullptr ||
        x.core_of_rank == nullptr || y.schedule == nullptr ||
        y.exec == nullptr || y.core_of_rank == nullptr) {
      return false;
    }
    if (x.repetitions != y.repetitions || x.start_time != y.start_time ||
        *x.core_of_rank != *y.core_of_rank) {
      return false;
    }
    if (last_x != nullptr && x.schedule == last_x->schedule &&
        x.exec == last_x->exec && y.schedule == last_y->schedule &&
        y.exec == last_y->exec) {
      continue;
    }
    last_x = &x;
    last_y = &y;
    const simmpi::Schedule& sx = *x.schedule;
    const simmpi::Schedule& sy = *y.schedule;
    if (sx.nranks != sy.nranks || sx.messages.size() != sy.messages.size()) {
      return false;
    }
    for (std::size_t m = 0; m < sx.messages.size(); ++m) {
      if (sx.messages[m].src != sy.messages[m].src ||
          sx.messages[m].dst != sy.messages[m].dst) {
        return false;
      }
    }
    const simmpi::PlanExec& ex = *x.exec;
    const simmpi::PlanExec& ey = *y.exec;
    if (ex.rank_rounds_begin != ey.rank_rounds_begin ||
        ex.send_begin != ey.send_begin || ex.recv_begin != ey.recv_begin ||
        ex.send_msg != ey.send_msg || ex.recv_msg != ey.recv_msg ||
        ex.msg_bytes.size() != ey.msg_bytes.size() ||
        ex.round_compute.size() != ey.round_compute.size() ||
        ex.round_copy_doubles.size() != ey.round_copy_doubles.size()) {
      return false;
    }
  }
  return true;
}

std::vector<Result> analyze_lanes(
    const topo::Machine& machine,
    const std::vector<std::vector<JobBinding>>& lanes, const Options& options,
    simnet::RouteTable* routes) {
  MR_EXPECT(!lanes.empty(), "analyze_lanes needs at least one lane");
  for (std::size_t l = 1; l < lanes.size(); ++l) {
    MR_EXPECT(same_structure(lanes.front(), lanes[l]),
              "lane " + std::to_string(l) +
                  " differs from lane 0 in cores, repetitions, start times, "
                  "message endpoints or execution structure; analyze it in "
                  "a separate pass");
  }
  simnet::RouteTable local;
  if (routes == nullptr) {
    local.bind(machine);
    routes = &local;
  }
  MR_EXPECT(routes->machine() == &machine,
            "route table is bound to a different machine");

  // Diagnostics depend only on the structure, so the lanes share them.
  const std::vector<JobBinding>& jobs = lanes.front();
  std::vector<Result> results(lanes.size());
  Report report;
  Sink sink(report, jobs.size() > 1);
  std::vector<JobFacts> facts(jobs.size());
  bool ok = !jobs.empty();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sink.job(static_cast<int>(j));
    ok = check_job(machine, jobs[j], *routes, sink, facts[j]) && ok;
  }
  sink.job(-1);
  if (ok && options.load_report) {
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      build_load_report(machine, lanes[l], facts, *routes, options.top_k,
                        results[l].load);
    }
  }
  if (ok) {
    build_bound(machine, lanes, facts, *routes, sink, results);
  }
  for (Result& result : results) {
    result.machine = machine.name();
    result.report = report;
  }
  return results;
}

std::int64_t ComponentSums::channel_bytes(simnet::ChannelId id,
                                          std::size_t lane) const {
  MR_EXPECT(lane < lanes_, "lane out of range for the last floor call");
  MR_EXPECT(id >= 0 && id / 3 < offset_.back(),
            "channel id out of range for the last floor call");
  const std::int64_t component = id / 3;
  const auto at = static_cast<std::size_t>(component) * lanes_ + lane;
  switch (id % 3) {
    case 0: return egress(at);
    case 1: return ingress(at);
    default: {
      const auto level = std::upper_bound(offset_.begin(), offset_.end(),
                                          component) - offset_.begin() - 1;
      return memory_[static_cast<std::size_t>(level)] != 0 ? memory(at) : 0;
    }
  }
}

std::vector<double> serialization_floor(
    const topo::Machine& machine,
    const std::vector<std::vector<JobBinding>>& lanes, ComponentSums* sums) {
  MR_EXPECT(!lanes.empty(), "serialization_floor needs at least one lane");
  const std::vector<JobBinding>& jobs = lanes.front();
  for (const JobBinding& job : jobs) {
    MR_EXPECT(job.schedule != nullptr && job.exec != nullptr &&
                  job.core_of_rank != nullptr,
              "job is missing its schedule, execution structure or "
              "core_of_rank binding");
    MR_EXPECT(job.core_of_rank->size() ==
                  static_cast<std::size_t>(job.schedule->nranks),
              "core_of_rank has " + std::to_string(job.core_of_rank->size()) +
                  " entries for " + std::to_string(job.schedule->nranks) +
                  " ranks");
    MR_EXPECT(job.repetitions >= 1, "repetitions must be >= 1");
    MR_EXPECT(std::isfinite(job.start_time) && job.start_time >= 0,
              "start_time must be finite and >= 0");
    for (const std::int64_t core : *job.core_of_rank) {
      MR_EXPECT(core >= 0 && core < machine.cores(),
                "core " + std::to_string(core) + " is outside machine '" +
                    machine.name() + "'");
    }
  }
  for (std::size_t l = 1; l < lanes.size(); ++l) {
    MR_EXPECT(same_structure(jobs, lanes[l]),
              "lane " + std::to_string(l) +
                  " differs from lane 0 in cores, repetitions, start times, "
                  "message endpoints or execution structure");
  }
  ComponentSums local;
  ComponentSums& s = sums != nullptr ? *sums : local;
  const std::size_t nlanes = lanes.size();
  const auto depth = static_cast<std::size_t>(machine.depth());
  const auto ncomp = static_cast<std::size_t>(machine.total_components());
  s.lanes_ = nlanes;
  s.sent_.assign(ncomp * nlanes, 0);
  s.recv_.assign(ncomp * nlanes, 0);
  s.inner_.assign(ncomp * nlanes, 0);
  s.offset_.resize(depth + 1);
  s.memory_.resize(depth);
  for (std::size_t k = 0; k < depth; ++k) {
    s.offset_[k] = machine.component_id(static_cast<int>(k), 0);
    s.memory_[k] = machine.level(static_cast<int>(k)).mem_bandwidth > 0;
  }
  s.offset_[depth] = static_cast<std::int64_t>(ncomp);
  const std::vector<std::int64_t>& offset = s.offset_;
  const std::vector<int>& radix = machine.hierarchy().radices();

  double start = std::numeric_limits<double>::infinity();
  std::vector<const simmpi::MsgInfo*> lane_msgs(nlanes);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobBinding& job = jobs[j];
    start = std::min(start, job.start_time);
    const std::vector<std::int64_t>& cores = *job.core_of_rank;
    // Dense component of every rank at every level: the leaf component is
    // the core, and each outer one the inner one over the inner radix.
    s.component_.resize(cores.size() * depth);
    for (std::size_t r = 0; r < cores.size(); ++r) {
      std::int64_t c = cores[r];
      for (std::size_t k = depth; k-- > 0;) {
        s.component_[r * depth + k] = offset[k] + c;
        c /= radix[k];
      }
    }
    for (std::size_t l = 0; l < nlanes; ++l) {
      lane_msgs[l] = lanes[l][j].schedule->messages.data();
    }
    const std::vector<simmpi::MsgInfo>& messages = job.schedule->messages;
    const std::int64_t reps = job.repetitions;
    const std::int32_t nranks = job.schedule->nranks;
    for (std::size_t m = 0; m < messages.size(); ++m) {
      const simmpi::MsgInfo& info = messages[m];
      MR_EXPECT(info.src >= 0 && info.src < nranks && info.dst >= 0 &&
                    info.dst < nranks,
                "message " + std::to_string(m) + " has an endpoint outside " +
                    std::to_string(nranks) + " ranks");
      const auto src = static_cast<std::size_t>(info.src);
      const auto dst = static_cast<std::size_t>(info.dst);
      if (cores[src] == cores[dst]) continue;  // a self route crosses nothing.
      const std::int64_t* a = &s.component_[src * depth];
      const std::int64_t* b = &s.component_[dst * depth];
      std::size_t fd = 0;  // first divergent level; the leaves differ.
      while (a[fd] == b[fd]) ++fd;
      const auto slot = [nlanes](std::int64_t component) {
        return static_cast<std::size_t>(component) * nlanes;
      };
      std::int64_t* sent = &s.sent_[slot(a[depth - 1])];
      std::int64_t* recv = &s.recv_[slot(b[depth - 1])];
      std::int64_t* inner = fd > 0 ? &s.inner_[slot(a[fd - 1])] : nullptr;
      for (std::size_t l = 0; l < nlanes; ++l) {
        const std::int64_t bytes = lane_msgs[l][m].bytes() * reps;
        sent[l] += bytes;
        recv[l] += bytes;
        if (inner != nullptr) inner[l] += bytes;
      }
    }
  }
  // Fold every component into its parent, innermost level first, so each
  // sum covers the whole subtree.
  for (std::size_t k = depth - 1; k > 0; --k) {
    for (std::int64_t c = offset[k]; c < offset[k + 1]; ++c) {
      const auto child = static_cast<std::size_t>(c) * nlanes;
      const auto parent =
          static_cast<std::size_t>(offset[k - 1] + (c - offset[k]) / radix[k]) *
          nlanes;
      for (std::size_t l = 0; l < nlanes; ++l) {
        s.sent_[parent + l] += s.sent_[child + l];
        s.recv_[parent + l] += s.recv_[child + l];
        s.inner_[parent + l] += s.inner_[child + l];
      }
    }
  }

  // Per level, the largest channel total per lane: a level's channels
  // share one capacity and one entry floor, so its largest total attains
  // the level's max of entry + bytes / capacity.
  std::vector<double> floor(nlanes, 0.0);
  std::vector<std::int64_t> link_max(nlanes);
  std::vector<std::int64_t> mem_max(nlanes);
  const double base_latency = machine.costs().base_latency;
  const auto entry_latency = [&](std::size_t k) {
    // Summed outward-in from the base, exactly like RouteTable::derive.
    double latency = base_latency;
    for (std::size_t l = k; l < depth; ++l) {
      latency += 2.0 * machine.level(static_cast<int>(l)).link_latency;
    }
    return latency;
  };
  const double mem_entry = start + entry_latency(depth - 1);
  for (std::size_t k = 0; k < depth; ++k) {
    const topo::LevelSpec& spec = machine.level(static_cast<int>(k));
    const bool mem = s.memory_[k] != 0;
    std::fill(link_max.begin(), link_max.end(), 0);
    std::fill(mem_max.begin(), mem_max.end(), 0);
    for (std::int64_t c = offset[k]; c < offset[k + 1]; ++c) {
      const auto at = static_cast<std::size_t>(c) * nlanes;
      for (std::size_t l = 0; l < nlanes; ++l) {
        link_max[l] =
            std::max({link_max[l], s.egress(at + l), s.ingress(at + l)});
        if (mem) mem_max[l] = std::max(mem_max[l], s.memory(at + l));
      }
    }
    const double link_entry = start + entry_latency(k);
    for (std::size_t l = 0; l < nlanes; ++l) {
      if (link_max[l] > 0) {
        const double drain =
            static_cast<double>(link_max[l]) / spec.link_bandwidth;
        floor[l] = std::max(floor[l], link_entry + drain);
      }
      if (mem_max[l] > 0) {
        const double drain =
            static_cast<double>(mem_max[l]) / spec.mem_bandwidth;
        floor[l] = std::max(floor[l], mem_entry + drain);
      }
    }
  }
  return floor;
}

Result analyze_jobs(const topo::Machine& machine,
                    const std::vector<JobBinding>& jobs,
                    const Options& options) {
  return std::move(analyze_lanes(machine, {jobs}, options).front());
}

Result analyze(const simmpi::Plan& plan, const topo::Machine& machine,
               const std::vector<std::int64_t>& core_of_rank,
               const Options& options) {
  JobBinding job;
  job.schedule = &plan.schedule;
  job.exec = &plan.exec;
  job.repetitions = plan.repetitions;
  job.core_of_rank = &core_of_rank;
  return analyze_jobs(machine, {job}, options);
}


Result BoundCache::analyze(const topo::Machine& machine,
                           const std::vector<JobBinding>& jobs,
                           bool* structure_reused) {
  if (structure_reused != nullptr) {
    *structure_reused = false;
  }
  Options options;
  options.load_report = false;
  return analyze_jobs(machine, jobs, options);
}

}  // namespace mr::verify::binding
