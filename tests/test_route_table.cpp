// RouteTable: per-machine interning of (src_core, dst_core) channel sets,
// path latencies and bottleneck capacities — the one route derivation the
// timed executor and the binding analyzer share. flow_channels() stays the
// reference: the table must give byte-for-byte the answers of deriving the
// route per message with flow_channels()/channel_capacities()/
// path_latency(), on every machine preset.
#include "mixradix/simnet/route_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mixradix/simnet/path.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::simnet {
namespace {

std::vector<ChannelId> as_vector(const ChanSet& set) {
  return {set.ids.begin(), set.ids.begin() + set.count};
}

std::vector<ChannelId> derived(const topo::Machine& m, std::int64_t src,
                               std::int64_t dst) {
  std::vector<ChannelId> ids = flow_channels(m, src, dst);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Eight binary levels with memory controllers on four of them: the
/// deepest routes cross exactly kMaxChannelsPerFlow channels.
topo::Machine deep8() {
  return topo::Machine("deep8", {{"cabinet", 2, 2.0e-6, 25.0e9, 0.0},
                                 {"node", 2, 1.0e-6, 12.5e9, 0.0},
                                 {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
                                 {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
                                 {"half", 2, 1.5e-7, 40.0e9, 0.0},
                                 {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
                                 {"l2", 2, 1.1e-7, 15.0e9, 0.0},
                                 {"core", 2, 1.0e-7, 9.0e9, 12.0e9}});
}

std::vector<std::pair<std::string, topo::Machine>> presets() {
  std::vector<std::pair<std::string, topo::Machine>> machines;
  machines.emplace_back("testbox", topo::testbox());
  machines.emplace_back("hydra(4)", topo::hydra(4));
  machines.emplace_back("hydra_node", topo::hydra_node());
  machines.emplace_back("lumi(2)", topo::lumi(2));
  machines.emplace_back("lumi_node", topo::lumi_node());
  machines.emplace_back("generic(2,2,2)", topo::generic(2, 2, 2));
  machines.emplace_back("deep8", deep8());
  return machines;
}

TEST(RouteTable, MatchesFlowChannelsOnEveryPreset) {
  for (const auto& [name, m] : presets()) {
    RouteTable table;
    table.bind(m);
    const std::vector<double> caps = channel_capacities(m);
    EXPECT_EQ(table.capacities(), caps) << name;
    // Every core pair on the smaller machines; a strided sample on the
    // bigger ones keeps the test fast without losing level coverage.
    const std::int64_t n = m.cores();
    const std::int64_t stride = n > 64 ? 7 : 1;
    for (std::int64_t src = 0; src < n; src += stride) {
      for (std::int64_t dst = 0; dst < n; dst += stride) {
        const auto id = table.route(src, dst);
        const std::vector<ChannelId> want = derived(m, src, dst);
        EXPECT_EQ(as_vector(table.channels(id)), want)
            << name << " route " << src << " -> " << dst;
        EXPECT_EQ(table.channel_count(id), static_cast<int>(want.size()));
        EXPECT_FALSE(table.too_deep(id));
        EXPECT_EQ(table.latency(id), m.path_latency(src, dst))
            << name << " latency " << src << " -> " << dst;
        double cap = std::numeric_limits<double>::infinity();
        for (const ChannelId c : want) {
          cap = std::min(cap, caps[static_cast<std::size_t>(c)]);
        }
        EXPECT_EQ(table.capacity(id), cap)
            << name << " capacity " << src << " -> " << dst;
      }
    }
  }
}

TEST(RouteTable, RecordsTooDeepRoutesInsteadOfAborting) {
  // Seven levels with memory controllers everywhere: diverging at the top
  // crosses 2*7 + 2*7 = 28 channels, more than FlowSim carries.
  std::vector<topo::LevelSpec> levels(7, {"", 2, 1e-7, 1e10, 2e10});
  for (std::size_t k = 0; k < levels.size(); ++k) {
    levels[k].name = std::to_string(k);
  }
  const topo::Machine m("deep", std::move(levels));
  RouteTable table;
  table.bind(m);
  const auto deep = table.route(0, m.cores() - 1);
  EXPECT_TRUE(table.too_deep(deep));
  EXPECT_EQ(table.channel_count(deep),
            static_cast<int>(derived(m, 0, m.cores() - 1).size()));
  EXPECT_EQ(table.channel_count(deep), 28);
  EXPECT_EQ(table.channels(deep).count, 0);
  // Routes inside the lower levels still fit and match the reference.
  const auto near = table.route(0, 1);
  EXPECT_FALSE(table.too_deep(near));
  EXPECT_EQ(as_vector(table.channels(near)), derived(m, 0, 1));
}

TEST(RouteTable, GrowsItsIndexWithoutLosingRoutes) {
  // Every pair of a 256-core machine: the index rehashes many times and
  // must still map each pair to the id it was first given.
  const auto m = deep8();
  RouteTable table;
  table.bind(m);
  std::vector<RouteTable::RouteId> first;
  for (std::int64_t src = 0; src < m.cores(); ++src) {
    for (std::int64_t dst = 0; dst < m.cores(); ++dst) {
      first.push_back(table.route(src, dst));
    }
  }
  EXPECT_EQ(table.size(), static_cast<std::size_t>(m.cores() * m.cores()));
  std::size_t k = 0;
  for (std::int64_t src = 0; src < m.cores(); ++src) {
    for (std::int64_t dst = 0; dst < m.cores(); ++dst) {
      ASSERT_EQ(table.route(src, dst), first[k++]);
    }
  }
  EXPECT_EQ(table.stats().hits, m.cores() * m.cores());
}

TEST(RouteTable, InternsOncePerPair) {
  const auto m = topo::testbox();
  RouteTable table;
  table.bind(m);
  const auto a = table.route(0, 5);
  const auto b = table.route(0, 5);
  const auto c = table.route(5, 0);  // direction matters: distinct route
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.stats().misses, 2);
  EXPECT_EQ(table.stats().hits, 1);
}

TEST(RouteTable, SelfRouteIsEmptyWithZeroLatency) {
  const auto m = topo::testbox();
  RouteTable table;
  table.bind(m);
  const auto id = table.route(3, 3);
  EXPECT_EQ(table.channels(id).count, 0);
  EXPECT_EQ(table.latency(id), m.path_latency(3, 3));
}

TEST(RouteTable, ClearKeepsBindingAndCounters) {
  const auto m = topo::testbox();
  RouteTable table;
  table.bind(m);
  (void)table.route(0, 1);
  (void)table.route(0, 1);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.stats().hits, 1);  // counters survive clear()
  const auto id = table.route(0, 1);  // still bound: re-derives
  EXPECT_EQ(as_vector(table.channels(id)), derived(m, 0, 1));
  EXPECT_EQ(table.stats().misses, 2);
}

TEST(RouteTable, RebindEquivalentKeepsInternedRoutes) {
  const auto m1 = topo::testbox();
  const auto m2 = topo::testbox();  // distinct instance, same parameters
  RouteTable table;
  table.bind(m1);
  const auto id = table.route(0, 9);
  table.rebind_equivalent(m2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.route(0, 9), id);  // served from the table
  EXPECT_EQ(table.stats().hits, 1);
  EXPECT_EQ(as_vector(table.channels(id)), derived(m2, 0, 9));
}

TEST(RouteTable, ValidatesUseBeforeBindAndCoreRange) {
  RouteTable unbound;
  EXPECT_THROW(unbound.route(0, 1), invalid_argument);
  const auto m = topo::testbox();
  RouteTable table;
  table.bind(m);
  EXPECT_THROW(table.route(-1, 0), invalid_argument);
  EXPECT_THROW(table.route(0, m.cores()), invalid_argument);
}

}  // namespace
}  // namespace mr::simnet
