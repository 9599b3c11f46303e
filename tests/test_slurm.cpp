// Fig. 2 golden tests: the Slurm --distribution value equivalent to every
// order on the ⟦2,2,4⟧ example machine, including the "Not possible" case.
#include "mixradix/slurm/distribution.hpp"

#include <gtest/gtest.h>

#include "mixradix/mr/decompose.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::slurm {
namespace {

TEST(Distribution, ParseAndPrint) {
  EXPECT_EQ(Distribution::parse("block:block").to_string(), "block:block");
  EXPECT_EQ(Distribution::parse("block:cyclic").to_string(), "block:cyclic");
  EXPECT_EQ(Distribution::parse("cyclic:block").to_string(), "cyclic:block");
  EXPECT_EQ(Distribution::parse("cyclic:cyclic").to_string(), "cyclic:cyclic");
  EXPECT_EQ(Distribution::parse("plane=4").to_string(), "plane=4");
  EXPECT_EQ(Distribution::parse("block").to_string(), "block:block");
  // Slurm's fcyclic maps to our cyclic socket policy.
  EXPECT_EQ(Distribution::parse("block:fcyclic").to_string(), "block:cyclic");
}

TEST(Distribution, ParseRejectsJunk) {
  EXPECT_THROW(Distribution::parse("blocky"), invalid_argument);
  EXPECT_THROW(Distribution::parse("block:cyclic:block"), invalid_argument);
  EXPECT_THROW(Distribution::parse("plane=0"), invalid_argument);
  EXPECT_THROW(Distribution::parse("plane=4:cyclic"), invalid_argument);
}

TEST(MachineView, CollapsesDeepHierarchies) {
  const auto hydra = MachineView::from_hierarchy(Hierarchy({16, 2, 2, 8}));
  EXPECT_EQ(hydra.nodes, 16);
  EXPECT_EQ(hydra.sockets_per_node, 2);
  EXPECT_EQ(hydra.cores_per_socket, 16);  // fake level folded back in
  EXPECT_EQ(hydra.total_cores(), 512);

  const auto flat = MachineView::from_hierarchy(Hierarchy({4, 8}));
  EXPECT_EQ(flat.sockets_per_node, 1);
  EXPECT_EQ(flat.cores_per_socket, 8);
}

TEST(TaskMap, BlockBlockIsIdentity) {
  const MachineView m{2, 2, 4};
  const auto map = task_map(m, Distribution::parse("block:block"));
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(map[static_cast<std::size_t>(i)], i);
  }
}

TEST(TaskMap, CyclicCyclicRoundRobins) {
  const MachineView m{2, 2, 4};
  const auto map = task_map(m, Distribution::parse("cyclic:cyclic"));
  EXPECT_EQ(map[0], 0);   // node 0, socket 0, core 0
  EXPECT_EQ(map[1], 8);   // node 1, socket 0, core 0
  EXPECT_EQ(map[2], 4);   // node 0, socket 1, core 0
  EXPECT_EQ(map[3], 12);  // node 1, socket 1, core 0
  EXPECT_EQ(map[4], 1);   // node 0, socket 0, core 1
}

// Fig. 2 captions: the --distribution value below each order.
struct Fig2Row {
  const char* order;
  const char* distribution;  // nullptr = "Not possible"
};

// Prints the row's text, not its pointer bytes, so the discovered ctest
// names stay the same from build to build.
void PrintTo(const Fig2Row& row, std::ostream* os) {
  *os << row.order << " "
      << (row.distribution == nullptr ? "not-possible" : row.distribution);
}

class Fig2 : public ::testing::TestWithParam<Fig2Row> {};

TEST_P(Fig2, DistributionEquivalence) {
  const Hierarchy h{2, 2, 4};
  const Order order = parse_order(GetParam().order);
  const auto found = equivalent_distribution(h, order);
  if (GetParam().distribution == nullptr) {
    EXPECT_FALSE(found.has_value());
  } else {
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->to_string(), GetParam().distribution);
  }
}

TEST_P(Fig2, OrderEquivalenceIsTheInverse) {
  const Hierarchy h{2, 2, 4};
  if (GetParam().distribution == nullptr) return;
  const auto order = equivalent_order(h, Distribution::parse(GetParam().distribution));
  ASSERT_TRUE(order.has_value());
  // The distribution's map must equal the claimed order's map (several
  // orders can tie; compare maps, not the orders themselves).
  EXPECT_EQ(placement_of_new_ranks(h, *order),
            placement_of_new_ranks(h, parse_order(GetParam().order)));
}

INSTANTIATE_TEST_SUITE_P(
    PaperCaptions, Fig2,
    ::testing::Values(Fig2Row{"0-1-2", "cyclic:cyclic"},
                      Fig2Row{"0-2-1", "cyclic:block"},
                      Fig2Row{"1-0-2", nullptr},  // "Not possible"
                      Fig2Row{"1-2-0", "block:cyclic"},
                      Fig2Row{"2-0-1", "plane=4"},
                      Fig2Row{"2-1-0", "block:block"}));

// Fig. 2's full reordered-rank layouts, read row by row off the figure:
// position = physical core (node-major), value = reordered rank.
TEST(Fig2Layouts, AllSixOrders) {
  const Hierarchy h{2, 2, 4};
  const auto layout = [&](const char* order) {
    return reorder_all_ranks(h, parse_order(order));
  };
  using V = std::vector<std::int64_t>;
  EXPECT_EQ(layout("0-1-2"),
            (V{0, 4, 8, 12, 2, 6, 10, 14, 1, 5, 9, 13, 3, 7, 11, 15}));
  EXPECT_EQ(layout("0-2-1"),
            (V{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15}));
  EXPECT_EQ(layout("1-0-2"),
            (V{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15}));
  EXPECT_EQ(layout("1-2-0"),
            (V{0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15}));
  EXPECT_EQ(layout("2-0-1"),
            (V{0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15}));
  EXPECT_EQ(layout("2-1-0"),
            (V{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}));
}

// The paper's defaults: Hydra's Slurm default is block:cyclic == [1,3,2,0]
// (Fig. 3 legend); LUMI's is block:block == identity ([4,3,2,1,0], Fig. 5).
TEST(Defaults, HydraDefaultIsBlockCyclic) {
  const Hierarchy hydra{16, 2, 2, 8};
  const auto dist = equivalent_distribution(hydra, parse_order("1-3-2-0"));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->to_string(), "block:cyclic");
}

TEST(Defaults, LumiDefaultIsBlockBlock) {
  const Hierarchy lumi{16, 2, 4, 2, 8};
  const auto dist = equivalent_distribution(lumi, parse_order("4-3-2-1-0"));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->to_string(), "block:block");
}

TEST(TaskMap, PlaneSizeValidation) {
  const MachineView m{2, 2, 4};
  EXPECT_THROW(task_map(m, Distribution{NodeDist::Plane, SocketDist::Block, 3}),
               invalid_argument);
  EXPECT_THROW(task_map(m, Distribution{NodeDist::Plane, SocketDist::Block, 0}),
               invalid_argument);
}

TEST(TaskMap, EveryDistributionIsAPermutation) {
  const MachineView m{4, 2, 8};
  std::vector<Distribution> dists;
  for (const char* s : {"block:block", "block:cyclic", "cyclic:block",
                        "cyclic:cyclic", "plane=2", "plane=4", "plane=8"}) {
    dists.push_back(Distribution::parse(s));
  }
  for (const auto& d : dists) {
    auto map = task_map(m, d);
    std::sort(map.begin(), map.end());
    for (std::int64_t i = 0; i < m.total_cores(); ++i) {
      ASSERT_EQ(map[static_cast<std::size_t>(i)], i) << d.to_string();
    }
  }
}

}  // namespace
}  // namespace mr::slurm
