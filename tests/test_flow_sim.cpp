#include "mixradix/simnet/flow_sim.hpp"

#include <gtest/gtest.h>

#include "mixradix/simnet/path.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

#include <limits>
#include <map>
#include <set>

#include "mixradix/util/prng.hpp"

namespace mr::simnet {
namespace {

TEST(FlowSim, SingleFlowDrainsAtCapacity) {
  FlowSim sim({100.0});  // 100 B/s
  sim.add_flow({0}, 500.0, 7);
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 5.0);
  EXPECT_EQ(done[0].user, 7);
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowSim, TwoFlowsShareAChannelFairly) {
  FlowSim sim({100.0});
  const auto f1 = sim.add_flow({0}, 500.0, 1);
  const auto f2 = sim.add_flow({0}, 500.0, 2);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f1), 50.0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f2), 50.0);
  const auto done = sim.advance_and_pop();
  // Both complete simultaneously and batch into one event.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 10.0);
}

TEST(FlowSim, RatesRecomputeWhenAFlowFinishes) {
  FlowSim sim({100.0});
  sim.add_flow({0}, 100.0, 1);  // finishes first
  sim.add_flow({0}, 300.0, 2);
  auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].user, 1);
  EXPECT_DOUBLE_EQ(done[0].time, 2.0);  // 100 B at 50 B/s
  done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].user, 2);
  // Flow 2 had 300-2*50 = 200 B left, now alone at 100 B/s: +2 s.
  EXPECT_DOUBLE_EQ(done[0].time, 4.0);
}

TEST(FlowSim, MaxMinBottleneckSharing) {
  // Channel 0: cap 100 shared by A and B; channel 1: cap 30, used by B only.
  // Max-min: B is capped at 30 by channel 1; A gets the remaining 70.
  FlowSim sim({100.0, 30.0});
  const auto a = sim.add_flow({0}, 700.0, 1);
  const auto b = sim.add_flow({0, 1}, 300.0, 2);
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 70.0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(b), 30.0);
}

TEST(FlowSim, EmptyChannelListIsInfinitelyFast) {
  FlowSim sim({100.0});
  sim.add_flow({}, 1e12, 1);
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 0.0);
}

TEST(FlowSim, ZeroByteFlowCompletesInstantly) {
  FlowSim sim({100.0});
  sim.add_flow({0}, 0.0, 1);
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 0.0);
}

TEST(FlowSim, DuplicateChannelIdsCollapse) {
  FlowSim sim({100.0});
  const auto f = sim.add_flow({0, 0, 0}, 100.0, 1);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f), 100.0);
}

TEST(FlowSim, ValidatesInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FlowSim({0.0}), invalid_argument);
  EXPECT_THROW(FlowSim({-1.0}), invalid_argument);
  // A non-finite capacity or size used to abort on an internal invariant
  // (an infinite fair share; a NaN merge window of 0 x inf) at the first
  // refill or pop instead of being rejected here.
  EXPECT_THROW(FlowSim({inf}), invalid_argument);
  EXPECT_THROW(FlowSim({nan}), invalid_argument);
  FlowSim sim({10.0});
  EXPECT_THROW(sim.add_flow({1}, 10.0, 0), invalid_argument);
  EXPECT_THROW(sim.add_flow({0}, -5.0, 0), invalid_argument);
  EXPECT_THROW(sim.add_flow({0}, inf, 0), invalid_argument);
  EXPECT_THROW(sim.add_flow({0}, nan, 0), invalid_argument);
  EXPECT_THROW(sim.advance_to(-1.0), invalid_argument);
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowSim, StaggeredArrival) {
  FlowSim sim({100.0});
  sim.add_flow({0}, 400.0, 1);
  sim.advance_to(2.0);  // flow 1 has 200 B left
  sim.add_flow({0}, 200.0, 2);
  // Both now at 50 B/s with 200 B each: finish together at t = 6.
  const auto done = sim.advance_and_pop();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 6.0);
}

TEST(FlowSim, InternedChanSetOverloadMatchesVectorOverload) {
  // The RouteTable fast path hands FlowSim pre-sorted inline channel sets;
  // both entry points must produce identical flows.
  FlowSim via_vector({100.0, 30.0});
  FlowSim via_set({100.0, 30.0});
  ChanSet set;
  set.ids[0] = 0;
  set.ids[1] = 1;
  set.count = 2;
  const auto fv = via_vector.add_flow({0, 1}, 300.0, 2);
  const auto fs = via_set.add_flow(set, 300.0, 2);
  EXPECT_EQ(via_set.flow_rate(fs), via_vector.flow_rate(fv));
  const auto done_vector = via_vector.advance_and_pop();
  const auto done_set = via_set.advance_and_pop();
  ASSERT_EQ(done_set.size(), 1u);
  EXPECT_EQ(done_set[0].time, done_vector[0].time);
}

TEST(FlowSim, StealScalesVictimsToTheFairShare) {
  // Deferred-mode steal: rates are clean, the newcomer's fair share is not
  // available as headroom, so the victims on the saturated channel scale
  // down proportionally and the newcomer gets exactly its fair share.
  FlowSim sim({100.0}, 0.01);
  const auto a = sim.add_flow({0}, 1000.0, 1);
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 100.0);  // recompute: rates now clean
  const auto b = sim.add_flow({0}, 1000.0, 2);  // headroom 0 -> steal
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 50.0);
  EXPECT_DOUBLE_EQ(sim.flow_rate(b), 50.0);
  EXPECT_EQ(sim.stats().full_recomputes, 1);  // no exact pass triggered
  EXPECT_EQ(sim.stats().deferred_rejections, 0);
}

TEST(FlowSim, StealRefusesCrowdedChannelsAndFallsBackToExact) {
  // A channel with more than 64 victims makes the proportional scaling
  // pass worth less than the exact recompute: the steal must refuse and
  // count a rejection, and the next query must deliver exact fairness.
  FlowSim sim({4290.0}, 0.01);  // 4290 = 65 * 66: both shares exact
  for (int i = 0; i < 65; ++i) sim.add_flow({0}, 1e6, i);
  EXPECT_DOUBLE_EQ(sim.flow_rate(0), 66.0);  // 4290 / 65, rates now clean
  const auto late = sim.add_flow({0}, 1e6, 65);
  EXPECT_EQ(sim.stats().deferred_rejections, 1);
  EXPECT_DOUBLE_EQ(sim.flow_rate(late), 65.0);  // exact pass: 4290 / 66
  EXPECT_EQ(sim.stats().full_recomputes, 2);
}

TEST(FlowSim, FlowRateQueryableAfterCompletion) {
  FlowSim sim({100.0});
  const auto a = sim.add_flow({0}, 100.0, 1);
  const auto b = sim.add_flow({0}, 300.0, 2);
  (void)sim.advance_and_pop();  // a completes at its last rate, 50 B/s
  EXPECT_DOUBLE_EQ(sim.flow_rate(a), 50.0);
  (void)sim.advance_and_pop();  // b finishes alone at full capacity
  EXPECT_DOUBLE_EQ(sim.flow_rate(b), 100.0);
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowSim, ChannelListsStayExactUnderSequentialChurn) {
  // Hundreds of short flows over one channel: linking and unlinking each
  // one must keep the per-channel list exact and the simulation exact.
  FlowSim sim({100.0}, 0.01);
  double last = 0;
  for (int i = 0; i < 200; ++i) {
    sim.add_flow({0}, 100.0, i);
    const auto done = sim.advance_and_pop();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].user, i);
    last = done[0].time;
  }
  EXPECT_DOUBLE_EQ(last, 200.0);  // 1 s per flow, no time lost to churn
  EXPECT_EQ(sim.active_flows(), 0u);
}

TEST(FlowSim, HeapRegimeMatchesReferenceScan) {
  // Above kScanFlows active flows the incremental tracker switches from
  // the reference scan to the lazy deadline heap; completions must stay
  // bit-identical between the two modes through the regime crossing
  // (100 flows down to 0).
  std::vector<double> caps(100, 100.0);
  std::vector<std::vector<Completion>> runs;
  for (const bool incremental : {true, false}) {
    FlowSim sim;
    sim.reset(caps, 0.0, incremental);
    for (int i = 0; i < 100; ++i) {
      sim.add_flow({static_cast<ChannelId>(i)}, 100.0 * (i + 1), i);
    }
    std::vector<Completion> done;
    while (sim.active_flows() > 0) {
      const auto batch = sim.advance_and_pop();
      done.insert(done.end(), batch.begin(), batch.end());
    }
    runs.push_back(std::move(done));
  }
  ASSERT_EQ(runs[0].size(), 100u);
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].user, runs[1][i].user);
    EXPECT_EQ(runs[0][i].time, runs[1][i].time);  // exact, not NEAR
    EXPECT_DOUBLE_EQ(runs[0][i].time, static_cast<double>(i + 1));
  }
}

TEST(FlowSim, RefillReachesOnlyTheChangedComponent) {
  // Two channel-disjoint groups of 10 flows. Completing a flow of group A
  // refills exactly its 9 survivors; group B keeps its rates untouched.
  // The reference mode refills every active flow.
  for (const bool incremental : {true, false}) {
    FlowSim sim;
    sim.reset({100.0, 100.0, 50.0, 50.0}, 0.0, incremental);
    std::vector<std::int64_t> a, b;
    for (int i = 0; i < 10; ++i) a.push_back(sim.add_flow({0, 1}, 100.0 * (i + 1), i));
    for (int i = 0; i < 10; ++i) b.push_back(sim.add_flow({2, 3}, 1e4, 10 + i));
    EXPECT_DOUBLE_EQ(sim.flow_rate(a[0]), 10.0);
    EXPECT_DOUBLE_EQ(sim.flow_rate(b[0]), 5.0);
    EXPECT_EQ(sim.stats().refilled_flows, 20);

    const auto done = sim.advance_and_pop();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].user, 0);
    EXPECT_DOUBLE_EQ(sim.flow_rate(a[1]), 100.0 / 9);
    EXPECT_DOUBLE_EQ(sim.flow_rate(b[9]), 5.0);
    EXPECT_EQ(sim.stats().full_recomputes, 2);
    EXPECT_EQ(sim.stats().refilled_flows, incremental ? 20 + 9 : 20 + 19);
  }
}

namespace {
// One randomized churn run: bursts of arrivals over channels drawn from a
// local window (so the flows form several components that merge and
// split), interleaved with completion batches, to the end. With `check`
// set, every burst is followed by a feasibility check of the rates.
std::vector<Completion> churn(std::uint64_t seed, double slack, bool incremental,
                              bool check) {
  util::Xoshiro256 rng(seed);
  const auto nchannels = 4 + rng.next_below(40);
  std::vector<double> caps;
  for (std::uint64_t c = 0; c < nchannels; ++c) {
    caps.push_back(1.0 + static_cast<double>(rng.next_below(1000)));
  }
  FlowSim sim;
  sim.reset(caps, slack, incremental);
  std::map<std::int64_t, std::vector<ChannelId>> active;
  std::vector<Completion> done;
  int user = 0;
  for (int burst = 0; burst < 12; ++burst) {
    for (auto k = 1 + rng.next_below(8); k > 0; --k) {
      const auto base = rng.next_below(nchannels);
      const auto span = 1 + rng.next_below(6);
      std::vector<ChannelId> channels;
      for (auto w = 1 + rng.next_below(4); w > 0; --w) {
        channels.push_back(
            static_cast<ChannelId>((base + rng.next_below(span)) % nchannels));
      }
      const double bytes = 1.0 + static_cast<double>(rng.next_below(100000));
      active[sim.add_flow(channels, bytes, user++)] = channels;
    }
    if (check) {
      std::vector<double> used(caps.size(), 0.0);
      for (const auto& [id, channels] : active) {
        const double rate = sim.flow_rate(id);
        for (ChannelId c : std::set<ChannelId>(channels.begin(), channels.end())) {
          used[static_cast<std::size_t>(c)] += rate;
        }
      }
      for (std::size_t c = 0; c < caps.size(); ++c) {
        EXPECT_LE(used[c], caps[c] * (1 + 1e-9))
            << "seed " << seed << " burst " << burst << " channel " << c;
      }
    }
    for (auto pops = rng.next_below(6); pops > 0 && sim.active_flows() > 0; --pops) {
      for (const Completion& c : sim.advance_and_pop()) {
        done.push_back(c);
        active.erase(c.flow);
      }
    }
  }
  while (sim.active_flows() > 0) {
    for (const Completion& c : sim.advance_and_pop()) done.push_back(c);
  }
  return done;
}
}  // namespace

TEST(FlowSim, ComponentRefillMatchesFullPass) {
  // The oracle for the component-local refill: at slack 0 the local and
  // the full refill give the same doubles; under slack the freeze rule
  // couples components, so only feasibility is checked there.
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    const auto local = churn(seed, 0.0, true, false);
    const auto full = churn(seed, 0.0, false, false);
    ASSERT_EQ(local.size(), full.size()) << "seed " << seed;
    for (std::size_t i = 0; i < local.size(); ++i) {
      EXPECT_EQ(local[i].user, full[i].user) << "seed " << seed;
      EXPECT_EQ(local[i].time, full[i].time) << "seed " << seed;  // exact
    }
    churn(seed, 0.02, true, true);
    churn(seed, 0.02, false, true);
  }
}

// Topology paths: verify channel lists against the machine structure.
TEST(Path, SelfMessageHasNoChannels) {
  const auto m = topo::testbox();
  EXPECT_TRUE(flow_channels(m, 3, 3).empty());
}

namespace {
std::multiset<ChannelId> as_set(const std::vector<ChannelId>& v) {
  return {v.begin(), v.end()};
}
}  // namespace

TEST(Path, IntraSocketUsesCoreLinksAndLocalMemory) {
  const auto m = topo::testbox();  // [2, 2, 4], mem on socket + core levels
  const auto ch = as_set(flow_channels(m, 0, 1));  // same socket
  EXPECT_TRUE(ch.contains(egress_channel(m, 2, 0)));
  EXPECT_TRUE(ch.contains(ingress_channel(m, 2, 1)));
  // Shared socket memory appears (twice pre-dedup: both endpoints).
  EXPECT_EQ(ch.count(memory_channel(m, 1, 0)), 2u);
  EXPECT_TRUE(ch.contains(memory_channel(m, 2, 0)));
  EXPECT_TRUE(ch.contains(memory_channel(m, 2, 1)));
  // No socket/node link crossings.
  EXPECT_FALSE(ch.contains(egress_channel(m, 1, 0)));
  EXPECT_FALSE(ch.contains(egress_channel(m, 0, 0)));
}

TEST(Path, CrossNodeClimbsAllLevels) {
  const auto m = topo::testbox();
  const auto ch = as_set(flow_channels(m, 0, 15));  // node 0 -> node 1 last core
  EXPECT_TRUE(ch.contains(egress_channel(m, 0, 0)));    // node 0 egress
  EXPECT_TRUE(ch.contains(ingress_channel(m, 0, 1)));   // node 1 ingress
  EXPECT_TRUE(ch.contains(egress_channel(m, 1, 0)));    // socket 0 egress
  EXPECT_TRUE(ch.contains(ingress_channel(m, 1, 3)));   // socket 3 ingress
  EXPECT_TRUE(ch.contains(egress_channel(m, 2, 0)));
  EXPECT_TRUE(ch.contains(ingress_channel(m, 2, 15)));
  // Memory of both endpoints' sockets, now distinct components.
  EXPECT_TRUE(ch.contains(memory_channel(m, 1, 0)));
  EXPECT_TRUE(ch.contains(memory_channel(m, 1, 3)));
}

TEST(FlowSimStats, ScriptedScenarioCountsDeferredAndFullRecomputes) {
  // With completion slack on, the second flow arrives after the first
  // completed and freed exactly its headroom: the deferred fast path
  // grants it without an exact recompute.
  FlowSim sim({100.0}, 0.01);
  sim.add_flow({0}, 100.0, 1);  // rates dirty at construction: no defer.
  auto done = sim.advance_and_pop();  // exact recompute #1, batch #1.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 1.0);
  sim.add_flow({0}, 100.0, 2);        // deferred allocation #1.
  done = sim.advance_and_pop();       // rates still clean, batch #2.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 2.0);

  const FlowSim::Stats& stats = sim.stats();
  EXPECT_EQ(stats.deferred_allocations, 1);
  EXPECT_EQ(stats.deferred_rejections, 0);
  EXPECT_EQ(stats.full_recomputes, 1);
  EXPECT_EQ(stats.pop_batches, 2);
}

TEST(FlowSimStats, ExactModeNeverDefers) {
  // Slack 0 disables the fast path: every batch forces an exact pass.
  FlowSim sim({100.0});
  sim.add_flow({0}, 100.0, 1);
  sim.advance_and_pop();
  sim.add_flow({0}, 100.0, 2);
  sim.advance_and_pop();

  const FlowSim::Stats& stats = sim.stats();
  EXPECT_EQ(stats.deferred_allocations, 0);
  EXPECT_EQ(stats.deferred_rejections, 0);
  EXPECT_EQ(stats.full_recomputes, 2);
  EXPECT_EQ(stats.pop_batches, 2);
}

TEST(FlowSimStats, InstancesAreIndependent) {
  // Formerly file-scope globals: one instance's traffic must not leak
  // into another's counters (a prerequisite for concurrent simulations).
  FlowSim busy({100.0}, 0.01);
  FlowSim idle({100.0}, 0.01);
  busy.add_flow({0}, 100.0, 1);
  busy.advance_and_pop();
  EXPECT_EQ(busy.stats().full_recomputes, 1);
  EXPECT_EQ(busy.stats().pop_batches, 1);
  EXPECT_EQ(idle.stats().full_recomputes, 0);
  EXPECT_EQ(idle.stats().pop_batches, 0);
  EXPECT_EQ(idle.stats().deferred_allocations, 0);
}

TEST(Path, MemoryChannelRequiresAModeledLevel) {
  const auto m = topo::testbox();  // node level has mem_bandwidth 0
  EXPECT_THROW(memory_channel(m, 0, 0), invalid_argument);
}

TEST(Path, CapacitiesMatchLevelBandwidths) {
  const auto m = topo::testbox();
  const auto caps = channel_capacities(m);
  ASSERT_EQ(caps.size(), static_cast<std::size_t>(3 * m.total_components()));
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(egress_channel(m, 0, 0))], 1.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(ingress_channel(m, 1, 2))], 2.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(egress_channel(m, 2, 9))], 4.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(memory_channel(m, 1, 1))], 8.0e9);
  EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(memory_channel(m, 2, 5))], 4.0e9);
}

}  // namespace
}  // namespace mr::simnet
