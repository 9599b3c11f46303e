// Semantic tests: every collective schedule, run through the DataExecutor,
// must implement its MPI operation exactly — for power-of-two and awkward
// communicator sizes alike.
#include <gtest/gtest.h>

#include <cmath>

#include "mixradix/simmpi/collectives.hpp"
#include "mixradix/simmpi/data_executor.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::simmpi {
namespace {

// Distinct, order-sensitive test value for (rank, block, element).
double value(int rank, int block, std::int64_t elem) {
  return 1.0 + rank * 1000.0 + block * 10.0 + static_cast<double>(elem) * 0.001;
}

class CollectiveSizes : public ::testing::TestWithParam<std::int32_t> {};

INSTANTIATE_TEST_SUITE_P(CommSizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17));

// ---- Alltoall -------------------------------------------------------------

void check_alltoall(const Schedule& s, std::int32_t p, std::int64_t c) {
  DataExecutor exec(s);
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int32_t j = 0; j < p; ++j) {
      for (std::int64_t e = 0; e < c; ++e) {
        exec.arena(r)[static_cast<std::size_t>(j * c + e)] = value(r, j, e);
      }
    }
  }
  exec.run();
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int32_t j = 0; j < p; ++j) {
      for (std::int64_t e = 0; e < c; ++e) {
        ASSERT_DOUBLE_EQ(exec.arena(r)[static_cast<std::size_t>(p * c + j * c + e)],
                         value(j, r, e))
            << "p=" << p << " rank=" << r << " block=" << j << " elem=" << e;
      }
    }
  }
}

TEST_P(CollectiveSizes, AlltoallPairwise) {
  check_alltoall(alltoall_pairwise(GetParam(), 3), GetParam(), 3);
}
TEST_P(CollectiveSizes, AlltoallBruck) {
  check_alltoall(alltoall_bruck(GetParam(), 3), GetParam(), 3);
}
TEST_P(CollectiveSizes, AlltoallLinear) {
  check_alltoall(alltoall_linear(GetParam(), 3), GetParam(), 3);
}

// ---- Allgather ------------------------------------------------------------

void check_allgather(const Schedule& s, std::int32_t p, std::int64_t c) {
  DataExecutor exec(s);
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      exec.arena(r)[static_cast<std::size_t>(e)] = value(r, 0, e);
    }
  }
  exec.run();
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int32_t j = 0; j < p; ++j) {
      for (std::int64_t e = 0; e < c; ++e) {
        ASSERT_DOUBLE_EQ(exec.arena(r)[static_cast<std::size_t>(c + j * c + e)],
                         value(j, 0, e))
            << "p=" << p << " rank=" << r << " block=" << j;
      }
    }
  }
}

TEST_P(CollectiveSizes, AllgatherRing) {
  check_allgather(allgather_ring(GetParam(), 4), GetParam(), 4);
}
TEST_P(CollectiveSizes, AllgatherBruck) {
  check_allgather(allgather_bruck(GetParam(), 4), GetParam(), 4);
}
TEST(AllgatherRecursiveDoubling, PowerOfTwoSizes) {
  for (std::int32_t p : {1, 2, 4, 8, 16, 32}) {
    check_allgather(allgather_recursive_doubling(p, 4), p, 4);
  }
}
TEST(AllgatherRecursiveDoubling, RejectsNonPowerOfTwo) {
  EXPECT_THROW(allgather_recursive_doubling(6, 4), invalid_argument);
}

// ---- Allreduce ------------------------------------------------------------

void check_allreduce(const Schedule& s, std::int32_t p, std::int64_t c) {
  DataExecutor exec(s);
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      exec.arena(r)[static_cast<std::size_t>(e)] = value(r, 0, e);
    }
  }
  exec.run();
  for (std::int64_t e = 0; e < c; ++e) {
    double expected = 0;
    for (std::int32_t r = 0; r < p; ++r) expected += value(r, 0, e);
    for (std::int32_t r = 0; r < p; ++r) {
      ASSERT_NEAR(exec.arena(r)[static_cast<std::size_t>(c + e)], expected, 1e-9)
          << "p=" << p << " rank=" << r << " elem=" << e;
    }
  }
}

TEST_P(CollectiveSizes, AllreduceRecursiveDoubling) {
  check_allreduce(allreduce_recursive_doubling(GetParam(), 5), GetParam(), 5);
}
TEST_P(CollectiveSizes, AllreduceRing) {
  check_allreduce(allreduce_ring(GetParam(), 5), GetParam(), 5);
}
TEST_P(CollectiveSizes, AllreduceRingShortVector) {
  // count < p exercises the zero-length chunk handling.
  check_allreduce(allreduce_ring(GetParam(), 2), GetParam(), 2);
}

// ---- Bcast ----------------------------------------------------------------

void check_bcast(const Schedule& s, std::int32_t p, std::int64_t c, std::int32_t root) {
  DataExecutor exec(s);
  for (std::int64_t e = 0; e < c; ++e) {
    exec.arena(root)[static_cast<std::size_t>(e)] = value(root, 9, e);
  }
  exec.run();
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      ASSERT_DOUBLE_EQ(exec.arena(r)[static_cast<std::size_t>(e)], value(root, 9, e))
          << "p=" << p << " root=" << root << " rank=" << r;
    }
  }
}

TEST_P(CollectiveSizes, BcastBinomialAllRoots) {
  const std::int32_t p = GetParam();
  for (std::int32_t root = 0; root < p; ++root) {
    check_bcast(bcast_binomial(p, 6, root), p, 6, root);
  }
}
TEST_P(CollectiveSizes, BcastScatterAllgatherAllRoots) {
  const std::int32_t p = GetParam();
  for (std::int32_t root = 0; root < p; ++root) {
    check_bcast(bcast_scatter_allgather(p, 37, root), p, 37, root);
  }
}

// ---- Reduce ----------------------------------------------------------------

TEST_P(CollectiveSizes, ReduceBinomialAllRoots) {
  const std::int32_t p = GetParam();
  const std::int64_t c = 4;
  for (std::int32_t root = 0; root < p; ++root) {
    DataExecutor exec(reduce_binomial(p, c, root));
    for (std::int32_t r = 0; r < p; ++r) {
      for (std::int64_t e = 0; e < c; ++e) {
        exec.arena(r)[static_cast<std::size_t>(e)] = value(r, 0, e);
      }
    }
    exec.run();
    for (std::int64_t e = 0; e < c; ++e) {
      double expected = 0;
      for (std::int32_t r = 0; r < p; ++r) expected += value(r, 0, e);
      ASSERT_NEAR(exec.arena(root)[static_cast<std::size_t>(c + e)], expected, 1e-9)
          << "p=" << p << " root=" << root;
    }
  }
}

// ---- Gather / Scatter --------------------------------------------------------

TEST_P(CollectiveSizes, GatherLinear) {
  const std::int32_t p = GetParam();
  const std::int64_t c = 3;
  const std::int32_t root = p / 2;
  DataExecutor exec(gather_linear(p, c, root));
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      exec.arena(r)[static_cast<std::size_t>(e)] = value(r, 0, e);
    }
  }
  exec.run();
  for (std::int32_t j = 0; j < p; ++j) {
    for (std::int64_t e = 0; e < c; ++e) {
      ASSERT_DOUBLE_EQ(exec.arena(root)[static_cast<std::size_t>(c + j * c + e)],
                       value(j, 0, e));
    }
  }
}

TEST_P(CollectiveSizes, ScatterLinear) {
  const std::int32_t p = GetParam();
  const std::int64_t c = 3;
  const std::int32_t root = p - 1;
  DataExecutor exec(scatter_linear(p, c, root));
  for (std::int32_t j = 0; j < p; ++j) {
    for (std::int64_t e = 0; e < c; ++e) {
      exec.arena(root)[static_cast<std::size_t>(j * c + e)] = value(j, 1, e);
    }
  }
  exec.run();
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      ASSERT_DOUBLE_EQ(exec.arena(r)[static_cast<std::size_t>(p * c + e)],
                       value(r, 1, e));
    }
  }
}

// ---- Tree scatter/gather & reduce-scatter -----------------------------------

TEST_P(CollectiveSizes, ScatterBinomialAllRoots) {
  const std::int32_t p = GetParam();
  const std::int64_t c = 3;
  for (std::int32_t root = 0; root < p; ++root) {
    DataExecutor exec(scatter_binomial(p, c, root));
    for (std::int32_t j = 0; j < p; ++j) {
      for (std::int64_t e = 0; e < c; ++e) {
        exec.arena(root)[static_cast<std::size_t>(j * c + e)] = value(j, 1, e);
      }
    }
    exec.run();
    for (std::int32_t r = 0; r < p; ++r) {
      for (std::int64_t e = 0; e < c; ++e) {
        ASSERT_DOUBLE_EQ(exec.arena(r)[static_cast<std::size_t>(2 * p * c + e)],
                         value(r, 1, e))
            << "p=" << p << " root=" << root << " rank=" << r;
      }
    }
  }
}

TEST_P(CollectiveSizes, GatherBinomialAllRoots) {
  const std::int32_t p = GetParam();
  const std::int64_t c = 3;
  for (std::int32_t root = 0; root < p; ++root) {
    DataExecutor exec(gather_binomial(p, c, root));
    for (std::int32_t r = 0; r < p; ++r) {
      for (std::int64_t e = 0; e < c; ++e) {
        exec.arena(r)[static_cast<std::size_t>(e)] = value(r, 0, e);
      }
    }
    exec.run();
    for (std::int32_t j = 0; j < p; ++j) {
      for (std::int64_t e = 0; e < c; ++e) {
        ASSERT_DOUBLE_EQ(
            exec.arena(root)[static_cast<std::size_t>(c + p * c + j * c + e)],
            value(j, 0, e))
            << "p=" << p << " root=" << root << " block=" << j;
      }
    }
  }
}

TEST_P(CollectiveSizes, ReduceScatterRing) {
  const std::int32_t p = GetParam();
  const std::int64_t c = 4;
  DataExecutor exec(reduce_scatter_ring(p, c));
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int32_t j = 0; j < p; ++j) {
      for (std::int64_t e = 0; e < c; ++e) {
        exec.arena(r)[static_cast<std::size_t>(j * c + e)] = value(r, j, e);
      }
    }
  }
  exec.run();
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      double expected = 0;
      for (std::int32_t src = 0; src < p; ++src) expected += value(src, r, e);
      ASSERT_NEAR(exec.arena(r)[static_cast<std::size_t>(2 * p * c + e)],
                  expected, 1e-9)
          << "p=" << p << " rank=" << r << " elem=" << e;
    }
  }
}

// ---- Scan -----------------------------------------------------------------

TEST_P(CollectiveSizes, ScanInclusive) {
  const std::int32_t p = GetParam();
  const std::int64_t c = 4;
  DataExecutor exec(scan_recursive_doubling(p, c));
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      exec.arena(r)[static_cast<std::size_t>(e)] = value(r, 0, e);
    }
  }
  exec.run();
  for (std::int32_t r = 0; r < p; ++r) {
    for (std::int64_t e = 0; e < c; ++e) {
      double expected = 0;
      for (std::int32_t j = 0; j <= r; ++j) expected += value(j, 0, e);
      ASSERT_NEAR(exec.arena(r)[static_cast<std::size_t>(c + e)], expected, 1e-9)
          << "p=" << p << " rank=" << r;
    }
  }
}

// ---- Barrier / structure ----------------------------------------------------

TEST_P(CollectiveSizes, BarrierIsWellFormed) {
  const auto s = barrier_dissemination(GetParam());
  EXPECT_TRUE(verify::analyze_structure(s).clean());
  EXPECT_EQ(s.total_bytes(), 0);
  DataExecutor exec(s);
  exec.run();  // must not deadlock
}

// ---- Alltoallv ---------------------------------------------------------------

TEST_P(CollectiveSizes, AlltoallvArbitraryCounts) {
  const std::int32_t p = GetParam();
  std::vector<std::vector<std::int64_t>> counts(
      static_cast<std::size_t>(p), std::vector<std::int64_t>(static_cast<std::size_t>(p)));
  for (std::int32_t i = 0; i < p; ++i) {
    for (std::int32_t j = 0; j < p; ++j) {
      counts[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          (i + 2 * j) % 4;  // includes zero-sized pairs
    }
  }
  const auto s = alltoallv_pairwise(counts);
  DataExecutor exec(s);
  // Fill each send block with (src, dst)-tagged values.
  for (std::int32_t i = 0; i < p; ++i) {
    std::int64_t off = 0;
    for (std::int32_t j = 0; j < p; ++j) {
      const std::int64_t n = counts[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      for (std::int64_t e = 0; e < n; ++e) {
        exec.arena(i)[static_cast<std::size_t>(off + e)] = value(i, j, e);
      }
      off += n;
    }
  }
  exec.run();
  for (std::int32_t i = 0; i < p; ++i) {
    // Recv blocks start after this rank's send blocks.
    std::int64_t off = 0;
    for (std::int32_t j = 0; j < p; ++j) {
      off += counts[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
    for (std::int32_t j = 0; j < p; ++j) {
      const std::int64_t n = counts[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
      for (std::int64_t e = 0; e < n; ++e) {
        ASSERT_DOUBLE_EQ(exec.arena(i)[static_cast<std::size_t>(off + e)], value(j, i, e))
            << "p=" << p << " dst=" << i << " src=" << j;
      }
      off += n;
    }
  }
}

// ---- Selector / repeat / merge -----------------------------------------------

TEST(Selector, RootedAndReduceScatterSelection) {
  EXPECT_EQ(selected_algorithm(Collective::ReduceScatter, 16, 1024),
            "reduce_scatter_ring");
  EXPECT_EQ(selected_algorithm(Collective::Gather, 16, 16), "gather_binomial");
  EXPECT_EQ(selected_algorithm(Collective::Gather, 2, 16), "gather_linear");
  EXPECT_EQ(selected_algorithm(Collective::Gather, 16, 1 << 20), "gather_linear");
  EXPECT_EQ(selected_algorithm(Collective::Scatter, 16, 16), "scatter_binomial");
}

TEST(Selector, PicksLatencyAlgorithmsForSmallPayloads) {
  EXPECT_EQ(selected_algorithm(Collective::Alltoall, 16, 4), "alltoall_bruck");
  EXPECT_EQ(selected_algorithm(Collective::Alltoall, 16, 1 << 16), "alltoall_pairwise");
  EXPECT_EQ(selected_algorithm(Collective::Allgather, 16, 4),
            "allgather_recursive_doubling");
  EXPECT_EQ(selected_algorithm(Collective::Allgather, 12, 4), "allgather_bruck");
  EXPECT_EQ(selected_algorithm(Collective::Allgather, 16, 1 << 16), "allgather_ring");
  EXPECT_EQ(selected_algorithm(Collective::Allreduce, 16, 4),
            "allreduce_recursive_doubling");
  EXPECT_EQ(selected_algorithm(Collective::Allreduce, 16, 1 << 20), "allreduce_ring");
}

TEST(Selector, MakeCollectiveIsSemanticallyCorrect) {
  for (const std::int64_t count : {2, 100000}) {
    check_alltoall(make_collective(Collective::Alltoall, 6, count), 6, count);
    check_allreduce(make_collective(Collective::Allreduce, 6, count), 6, count);
    check_allgather(make_collective(Collective::Allgather, 6, count), 6, count);
    check_bcast(make_collective(Collective::Bcast, 6, count), 6, count, 0);
  }
}

TEST(Repeat, TriplesMessagesAndStaysValid) {
  const auto s = allgather_ring(5, 3);
  const auto r3 = repeat(s, 3);
  EXPECT_TRUE(verify::analyze_structure(r3).clean());
  EXPECT_EQ(r3.messages.size(), 3 * s.messages.size());
  EXPECT_EQ(r3.total_bytes(), 3 * s.total_bytes());
  DataExecutor exec(r3);  // re-running the same collective is idempotent
  for (std::int32_t r = 0; r < 5; ++r) {
    exec.arena(r)[0] = value(r, 0, 0);
    exec.arena(r)[1] = value(r, 0, 1);
    exec.arena(r)[2] = value(r, 0, 2);
  }
  exec.run();
  for (std::int32_t r = 0; r < 5; ++r) {
    for (std::int32_t j = 0; j < 5; ++j) {
      ASSERT_DOUBLE_EQ(exec.arena(r)[static_cast<std::size_t>(3 + j * 3)], value(j, 0, 0));
    }
  }
}

TEST(Merge, TwoDisjointCommunicators) {
  const auto a = allreduce_recursive_doubling(2, 2);
  const auto b = allreduce_recursive_doubling(3, 2);
  const auto merged = merge({a, b}, {{0, 2}, {1, 3, 4}}, 5);
  EXPECT_TRUE(verify::analyze_structure(merged).clean());
  DataExecutor exec(merged);
  for (std::int32_t g = 0; g < 5; ++g) {
    exec.arena(g)[0] = 10.0 * (g + 1);
  }
  exec.run();
  // Communicator A = global ranks {0, 2}: sum 10 + 30.
  EXPECT_DOUBLE_EQ(exec.arena(0)[2], 40.0);
  EXPECT_DOUBLE_EQ(exec.arena(2)[2], 40.0);
  // Communicator B = global ranks {1, 3, 4}: sum 20 + 40 + 50.
  EXPECT_DOUBLE_EQ(exec.arena(1)[2], 110.0);
  EXPECT_DOUBLE_EQ(exec.arena(3)[2], 110.0);
  EXPECT_DOUBLE_EQ(exec.arena(4)[2], 110.0);
}

TEST(Merge, RejectsOverlappingRankSets) {
  const auto a = allreduce_recursive_doubling(2, 2);
  EXPECT_THROW(merge({a, a}, {{0, 1}, {1, 2}}, 3), invalid_argument);
}

}  // namespace
}  // namespace mr::simmpi
