// The World/Communicator facade.
#include "mixradix/simmpi/world.hpp"

#include <gtest/gtest.h>

#include <set>

#include "mixradix/engine/engine.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"

namespace mr::simmpi {
namespace {

TEST(World, CommWorldIsIdentity) {
  Engine engine;
  const World world(engine, topo::testbox());
  EXPECT_EQ(world.size(), 16);
  const Communicator comm = world.comm_world();
  for (std::int32_t r = 0; r < comm.size(); ++r) {
    EXPECT_EQ(comm.core_of(r), r);
  }
}

TEST(World, ReorderedMatchesPlacement) {
  Engine engine;
  const World world(engine, topo::testbox());
  const Order order = parse_order("0-2-1");
  const Communicator comm = world.reordered(order);
  const auto placement =
      placement_of_new_ranks(world.machine().hierarchy(), order);
  for (std::int32_t r = 0; r < comm.size(); ++r) {
    EXPECT_EQ(comm.core_of(r), placement[static_cast<std::size_t>(r)]);
  }
}

TEST(Communicator, SplitBlocksMatchesFig2Coloring) {
  Engine engine;
  const World world(engine, topo::testbox());
  // Order [2,1,0] is the identity: blocks of 4 are the Fig. 2f comms.
  const auto comms = world.reordered(parse_order("2-1-0")).split_blocks(4);
  ASSERT_EQ(comms.size(), 4u);
  for (std::size_t c = 0; c < comms.size(); ++c) {
    for (std::int32_t r = 0; r < 4; ++r) {
      EXPECT_EQ(comms[c].core_of(r), static_cast<std::int64_t>(c) * 4 + r);
    }
  }
}

TEST(Communicator, SplitHonorsColorsAndKeys) {
  Engine engine;
  const World world(engine, topo::testbox());
  const Communicator comm = world.comm_world();
  std::vector<std::int64_t> colors(16), keys(16);
  for (std::int32_t r = 0; r < 16; ++r) {
    colors[static_cast<std::size_t>(r)] = r % 2;
    keys[static_cast<std::size_t>(r)] = -r;  // reverse order within color
  }
  const auto parts = comm.split(colors, keys);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].size(), 8);
  // Color 0 = even cores, reversed by key.
  EXPECT_EQ(parts[0].core_of(0), 14);
  EXPECT_EQ(parts[0].core_of(7), 0);
  EXPECT_EQ(parts[1].core_of(0), 15);
}

TEST(Communicator, SplitValidatesSizes) {
  Engine engine;
  const World world(engine, topo::testbox());
  const Communicator comm = world.comm_world();
  EXPECT_THROW(comm.split({0, 1}, {0, 1}), invalid_argument);
  EXPECT_THROW(comm.split_blocks(3), invalid_argument);
}

TEST(Communicator, TimeCollectiveIsPositiveAndScales) {
  Engine engine;
  const World world(engine, topo::testbox());
  const auto comms = world.comm_world().split_blocks(4);
  const double small =
      comms[0].time_collective(Collective::Allreduce, 1024);
  const double big =
      comms[0].time_collective(Collective::Allreduce, 1024 * 256);
  EXPECT_GT(small, 0);
  EXPECT_GT(big, small);
}

TEST(Communicator, ConcurrentIsSlowerOrEqual) {
  Engine engine;
  const World world(engine, topo::testbox());
  // Spread communicators (one rank per socket): concurrency must cost.
  const auto comms = world.reordered(parse_order("0-1-2")).split_blocks(4);
  const double alone = comms[0].time_collective(Collective::Alltoall, 1 << 14);
  const double together =
      Communicator::time_concurrent(comms, Collective::Alltoall, 1 << 14);
  EXPECT_GE(together, alone * (1 - 1e-9));
}

TEST(Communicator, DisjointCoresAcrossSplit) {
  Engine engine;
  const World world(engine, topo::testbox());
  const auto comms = world.reordered(parse_order("1-2-0")).split_blocks(4);
  std::set<std::int64_t> all;
  for (const auto& comm : comms) {
    for (std::int64_t core : comm.cores()) {
      EXPECT_TRUE(all.insert(core).second) << "core " << core << " duplicated";
    }
  }
  EXPECT_EQ(all.size(), 16u);
}


TEST(Communicator, SplitByLevelGroupsByComponent) {
  Engine engine;
  const World world(engine, topo::testbox());
  // Socket level (1): four communicators of four cores each.
  const auto sockets = world.comm_world().split_by_level(1);
  ASSERT_EQ(sockets.size(), 4u);
  for (std::size_t s = 0; s < sockets.size(); ++s) {
    ASSERT_EQ(sockets[s].size(), 4);
    for (std::int32_t r = 0; r < 4; ++r) {
      EXPECT_EQ(sockets[s].core_of(r), static_cast<std::int64_t>(s) * 4 + r);
    }
  }
  // Node level (0): two communicators of eight.
  EXPECT_EQ(world.comm_world().split_by_level(0).size(), 2u);
  EXPECT_THROW(world.comm_world().split_by_level(3), invalid_argument);
}

TEST(Communicator, SplitByLevelAfterReordering) {
  // After a cyclic reordering, a block of consecutive new ranks spans both
  // nodes; split_by_level(0) recovers the per-node halves — the MPI-4
  // guided-mode pattern the paper cites for hierarchy discovery.
  Engine engine;
  const World world(engine, topo::testbox());
  const auto comms = world.reordered(parse_order("0-1-2")).split_blocks(8);
  const auto per_node = comms[0].split_by_level(0);
  ASSERT_EQ(per_node.size(), 2u);
  EXPECT_EQ(per_node[0].size(), 4);
  EXPECT_EQ(per_node[1].size(), 4);
}

}  // namespace
}  // namespace mr::simmpi
