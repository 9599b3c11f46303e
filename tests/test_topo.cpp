// Machine model and host discovery.
#include "mixradix/topo/machine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "mixradix/topo/discover.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::topo {
namespace {

TEST(Machine, PresetShapes) {
  EXPECT_EQ(hydra(16).hierarchy(), Hierarchy({16, 2, 2, 8}));
  EXPECT_EQ(hydra(16).cores(), 512);
  EXPECT_EQ(hydra(32).cores(), 1024);
  EXPECT_EQ(lumi(16).hierarchy(), Hierarchy({16, 2, 4, 2, 8}));
  EXPECT_EQ(lumi(16).cores(), 2048);
  EXPECT_EQ(lumi_node().hierarchy(), Hierarchy({2, 4, 2, 8}));
  EXPECT_EQ(testbox().hierarchy(), Hierarchy({2, 2, 4}));
  EXPECT_EQ(hydra_node().hierarchy(), Hierarchy({2, 2, 8}));
}

TEST(Machine, ComponentOf) {
  const Machine m = testbox();  // [2, 2, 4]
  EXPECT_EQ(m.component_of(0, 0), 0);   // node of core 0
  EXPECT_EQ(m.component_of(8, 0), 1);   // node of core 8
  EXPECT_EQ(m.component_of(7, 1), 1);   // socket of core 7
  EXPECT_EQ(m.component_of(15, 2), 15); // core of core 15
  EXPECT_THROW(m.component_of(16, 0), invalid_argument);
  EXPECT_THROW(m.component_of(0, 3), invalid_argument);
}

TEST(Machine, ComponentIdsAreDenseAndUnique) {
  const Machine m = testbox();
  EXPECT_EQ(m.total_components(), 2 + 4 + 16);
  std::vector<bool> seen(static_cast<std::size_t>(m.total_components()), false);
  for (int level = 0; level < m.depth(); ++level) {
    for (std::int64_t comp = 0; comp < m.hierarchy().components_at(level); ++comp) {
      const std::int64_t id = m.component_id(level, comp);
      ASSERT_GE(id, 0);
      ASSERT_LT(id, m.total_components());
      ASSERT_FALSE(seen[static_cast<std::size_t>(id)]);
      seen[static_cast<std::size_t>(id)] = true;
    }
  }
}

TEST(Machine, NicScaleMultipliesNodeBandwidthOnly) {
  const Machine one = hydra(16, 1);
  const Machine two = hydra(16, 2);
  EXPECT_DOUBLE_EQ(two.level(0).link_bandwidth, 2 * one.level(0).link_bandwidth);
  for (int k = 1; k < one.depth(); ++k) {
    EXPECT_DOUBLE_EQ(two.level(k).link_bandwidth, one.level(k).link_bandwidth);
  }
  const Machine scaled = one.with_nic_scale(2.0);
  EXPECT_DOUBLE_EQ(scaled.level(0).link_bandwidth, two.level(0).link_bandwidth);
}

TEST(Machine, WithNodesChangesOuterRadix) {
  const Machine m = hydra(16).with_nodes(32);
  EXPECT_EQ(m.cores(), 1024);
  EXPECT_EQ(m.level(0).radix, 32);
  EXPECT_THROW(hydra(16).with_nodes(1), invalid_argument);
}

TEST(Machine, PathLatencyIsSymmetricAndMonotone) {
  const Machine m = lumi(4);
  EXPECT_DOUBLE_EQ(m.path_latency(0, 100), m.path_latency(100, 0));
  // Crossing more levels never reduces latency.
  const double same_l3 = m.path_latency(0, 1);
  const double same_numa = m.path_latency(0, 9);
  const double same_socket = m.path_latency(0, 17);
  const double same_node = m.path_latency(0, 65);
  const double cross_node = m.path_latency(0, 129);
  EXPECT_LT(same_l3, same_numa);
  EXPECT_LT(same_numa, same_socket);
  EXPECT_LT(same_socket, same_node);
  EXPECT_LT(same_node, cross_node);
}

TEST(Machine, DescribeMentionsEveryLevel) {
  const std::string text = lumi(16).describe();
  for (const char* level : {"node", "socket", "numa", "l3", "core"}) {
    EXPECT_NE(text.find(level), std::string::npos) << level;
  }
}

TEST(Machine, RejectsBadSpecs) {
  EXPECT_THROW(Machine("bad", {{"node", 2, 0.0, 0.0, 0.0}}), invalid_argument);
  EXPECT_THROW(Machine("bad", {{"node", 2, -1.0, 1e9, 0.0}}), invalid_argument);
  EXPECT_THROW(Machine("bad", {{"node", 2, 0.0, 1e9, -1.0}}), invalid_argument);
  EXPECT_THROW(Machine("bad", {}), invalid_argument);
  EXPECT_THROW(hydra(4, 3), invalid_argument);
}

// Capture the diagnostic text of a rejected construction.
template <typename Fn>
std::string rejection_message(Fn&& fn) {
  try {
    fn();
  } catch (const invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Machine, BadLevelDiagnosticsAreLocated) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<LevelSpec> levels;
  std::string msg;
  for (const int radix : {1, 0, -3}) {
    levels = testbox().levels();
    levels[1].radix = radix;
    msg = rejection_message([&] { Machine("bad", levels); });
    EXPECT_NE(msg.find("level 1 ('socket')"), std::string::npos) << msg;
    EXPECT_NE(msg.find("radix"), std::string::npos) << msg;
    EXPECT_NE(msg.find("got " + std::to_string(radix)), std::string::npos)
        << msg;
  }

  const std::pair<double, const char*> bandwidths[] = {
      {kNaN, "nan"}, {-1.0, "got -1"}, {kInf, "inf"}};
  for (const auto& [bw, text] : bandwidths) {
    levels = testbox().levels();
    levels[2].link_bandwidth = bw;
    msg = rejection_message([&] { Machine("bad", levels); });
    EXPECT_NE(msg.find("level 2 ('core')"), std::string::npos) << msg;
    EXPECT_NE(msg.find("link bandwidth"), std::string::npos) << msg;
    EXPECT_NE(msg.find(text), std::string::npos) << msg;
  }

  levels = testbox().levels();
  levels[0].link_latency = kInf;
  msg = rejection_message([&] { Machine("bad", levels); });
  EXPECT_NE(msg.find("level 0 ('node')"), std::string::npos) << msg;
  EXPECT_NE(msg.find("link latency"), std::string::npos) << msg;

  levels = testbox().levels();
  levels[1].mem_bandwidth = -4.0;
  msg = rejection_message([&] { Machine("bad", levels); });
  EXPECT_NE(msg.find("level 1 ('socket')"), std::string::npos) << msg;
  EXPECT_NE(msg.find("memory bandwidth"), std::string::npos) << msg;
}

TEST(Machine, BadCostAndFlopsDiagnosticsNameTheField) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto levels = testbox().levels();

  MessagingCosts costs;
  costs.send_overhead = kNaN;
  std::string msg = rejection_message([&] { Machine("bad", levels, costs); });
  EXPECT_NE(msg.find("send_overhead"), std::string::npos) << msg;

  costs = MessagingCosts{};
  costs.recv_overhead = -1.0;
  msg = rejection_message([&] { Machine("bad", levels, costs); });
  EXPECT_NE(msg.find("recv_overhead"), std::string::npos) << msg;
  EXPECT_NE(msg.find("-1"), std::string::npos) << msg;

  costs = MessagingCosts{};
  costs.base_latency = -2e-7;
  msg = rejection_message([&] { Machine("bad", levels, costs); });
  EXPECT_NE(msg.find("base_latency"), std::string::npos) << msg;

  costs = MessagingCosts{};
  costs.eager_threshold = -1;
  msg = rejection_message([&] { Machine("bad", levels, costs); });
  EXPECT_NE(msg.find("eager_threshold"), std::string::npos) << msg;

  costs = MessagingCosts{};
  costs.reduce_seconds_per_byte = kNaN;
  msg = rejection_message([&] { Machine("bad", levels, costs); });
  EXPECT_NE(msg.find("reduce_seconds_per_byte"), std::string::npos) << msg;

  msg = rejection_message([&] { Machine("bad", levels, {}, 0.0); });
  EXPECT_NE(msg.find("core_flops"), std::string::npos) << msg;
  msg = rejection_message([&] { Machine("bad", levels, {}, kNaN); });
  EXPECT_NE(msg.find("core_flops"), std::string::npos) << msg;
}

TEST(Machine, VariantBuildersRevalidate) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Machine base = testbox();

  std::string msg = rejection_message([&] { base.with_nodes(1); });
  EXPECT_NE(msg.find("at least two nodes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("got 1"), std::string::npos) << msg;

  msg = rejection_message([&] { base.with_nic_scale(0.0); });
  EXPECT_NE(msg.find("NIC scale"), std::string::npos) << msg;
  EXPECT_THROW(base.with_nic_scale(kNaN), invalid_argument);
  EXPECT_THROW(base.with_nic_scale(-2.0), invalid_argument);

  MessagingCosts costs;
  costs.send_overhead = kNaN;
  EXPECT_THROW(base.with_costs(costs), invalid_argument);

  // The good paths still work and preserve the machine identity.
  EXPECT_EQ(base.with_nodes(4).cores(), 32);
  EXPECT_DOUBLE_EQ(base.with_nic_scale(2.0).level(0).link_bandwidth, 2e9);
}

// Discovery against a synthetic sysfs tree.
class DiscoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("mixradix-sysfs-" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void add_cpu(int cpu, int package, int core, int numa) {
    const auto topo = root_ / "devices/system/cpu" / ("cpu" + std::to_string(cpu)) /
                      "topology";
    std::filesystem::create_directories(topo);
    std::ofstream(topo / "physical_package_id") << package;
    std::ofstream(topo / "core_id") << core;
    const auto node = root_ / "devices/system/node" / ("node" + std::to_string(numa));
    std::filesystem::create_directories(node / ("cpu" + std::to_string(cpu)));
  }

  std::filesystem::path root_;
};

TEST_F(DiscoverTest, HomogeneousTwoSocketMachine) {
  // 2 packages x 2 NUMA x 4 cores, with SMT siblings sharing core ids.
  int cpu = 0;
  for (int pkg = 0; pkg < 2; ++pkg) {
    for (int numa = 0; numa < 2; ++numa) {
      for (int core = 0; core < 4; ++core) {
        add_cpu(cpu++, pkg, numa * 4 + core, pkg * 2 + numa);
      }
    }
  }
  const auto h = topo::discover_host(root_.string());
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(*h, Hierarchy({2, 2, 4}));
}

TEST_F(DiscoverTest, HeterogeneousMachineIsRejected) {
  // Package 0 has 4 cores, package 1 has 2: §3.2's constraint 2.
  for (int core = 0; core < 4; ++core) add_cpu(core, 0, core, 0);
  for (int core = 0; core < 2; ++core) add_cpu(4 + core, 1, core, 1);
  EXPECT_FALSE(topo::discover_host(root_.string()).has_value());
}

TEST_F(DiscoverTest, MissingSysfsReturnsNothing) {
  EXPECT_FALSE(topo::discover_host((root_ / "nope").string()).has_value());
}

TEST_F(DiscoverTest, SingleSocketCollapsesLevel) {
  for (int numa = 0; numa < 2; ++numa) {
    for (int core = 0; core < 4; ++core) {
      add_cpu(numa * 4 + core, 0, numa * 4 + core, numa);
    }
  }
  const auto h = topo::discover_host(root_.string());
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(*h, Hierarchy({2, 4}));  // socket level dropped
}

}  // namespace
}  // namespace mr::topo
