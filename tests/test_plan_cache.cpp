// PlanCache tests: exactly-once compilation under contention, shared
// results, exception caching, and at most one static analysis per key
// across a whole sweep.
#include "mixradix/simmpi/plan_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "mixradix/engine/engine.hpp"
#include "mixradix/harness/microbench.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::simmpi {
namespace {

TEST(PlanCache, CompilesOnceAndSharesThePlan) {
  PlanCache cache;
  const PlanKey key{"alltoall_bruck", 8, 128, 0, 2};
  const auto first = cache.get(key);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->algorithm, "alltoall_bruck");
  EXPECT_EQ(first->nranks(), 8);
  EXPECT_EQ(first->repetitions, 2);
  const auto second = cache.get(key);
  EXPECT_EQ(first.get(), second.get());  // same object, not a recompile

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(PlanCache, DistinctKeysAreDistinctEntries) {
  PlanCache cache;
  const auto a = cache.get(PlanKey{"allgather_ring", 4, 10, 0, 1});
  const auto b = cache.get(PlanKey{"allgather_ring", 4, 10, 0, 2});
  const auto c = cache.get(PlanKey{"allgather_ring", 4, 11, 0, 1});
  const auto d = cache.get(PlanKey{"allgather_ring", 5, 10, 0, 1});
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(PlanCache, FailuresAreCachedAndRethrown) {
  PlanCache cache;
  const PlanKey bad{"no_such_algorithm", 4, 1, 0, 1};
  EXPECT_THROW(cache.get(bad), mr::invalid_argument);
  // The failed entry stays: the second request rethrows without a second
  // compile attempt (misses counts compilations started).
  EXPECT_THROW(cache.get(bad), mr::invalid_argument);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  const PlanKey unsupported{"allgather_recursive_doubling", 6, 8, 0, 1};
  EXPECT_THROW(cache.get(unsupported), mr::invalid_argument);
}

TEST(PlanCache, ClearResetsEntriesAndCounters) {
  PlanCache cache;
  const PlanKey key{"barrier_dissemination", 4, 1, 0, 1};
  (void)cache.get(key);
  (void)cache.get(key);
  cache.clear();
  const auto empty = cache.stats();
  EXPECT_EQ(empty.hits, 0u);
  EXPECT_EQ(empty.misses, 0u);
  EXPECT_EQ(empty.entries, 0u);
  (void)cache.get(key);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// The acceptance criterion of the refactor: hammering one key from many
// threads compiles (and analyzes) exactly once, and every thread receives
// the same plan object. Run under
// -DMIXRADIX_SAN=thread this doubles as the data-race check.
TEST(PlanCache, ConcurrentGetsCompileExactlyOnce) {
  PlanCache cache;
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 25;
  const PlanKey key{"alltoall_pairwise", 16, 256, 0, 2};

  const std::uint64_t analyzes_before = verify::analyze_call_count();
  std::atomic<int> ready{0};
  std::vector<const Plan*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Rendezvous so the first get() races from every thread at once.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      std::shared_ptr<const Plan> plan;
      for (int i = 0; i < kGetsPerThread; ++i) plan = cache.get(key);
      seen[static_cast<std::size_t>(t)] = plan.get();
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits,
            static_cast<std::uint64_t>(kThreads) * kGetsPerThread - 1u);
  EXPECT_EQ(stats.entries, 1u);
  // One compile == one static analysis, even with 8 threads racing.
  EXPECT_EQ(verify::analyze_call_count() - analyzes_before, 1u);
}

TEST(PlanCache, ConcurrentDistinctKeysAllCompile) {
  PlanCache cache;
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 1; c <= 4; ++c) {
        const auto plan = cache.get(
            PlanKey{"allreduce_ring", 4 + t, std::int64_t{16} * c, 0, 1});
        EXPECT_EQ(plan->nranks(), 4 + t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.stats().entries, static_cast<std::size_t>(kThreads) * 4);
  EXPECT_EQ(cache.stats().misses, static_cast<std::uint64_t>(kThreads) * 4);
}

// ---- Sweeps through the cache ----------------------------------------------

std::string sweep_csv(Engine& engine, int threads) {
  harness::SweepConfig config;
  config.orders = {parse_order("0-1-2-3"), parse_order("3-2-1-0"),
                   parse_order("1-3-2-0")};
  config.sizes = {1 << 18, 1 << 20};
  config.comm_size = 16;
  config.collective = Collective::Alltoall;
  config.repetitions = 2;
  config.threads = threads;
  const auto machine = topo::hydra(2);
  config.all_comms = false;
  const auto single = run_sweep(engine, machine, config);
  config.all_comms = true;
  const auto simultaneous = run_sweep(engine, machine, config);
  std::ostringstream csv;
  harness::write_figure_csv(csv, "determinism", single, simultaneous);
  return csv.str();
}

// Sweeping through an engine's cache analyzes each distinct plan key
// exactly once, no matter how many (order, size, scenario) points replay it.
TEST(PlanCache, SharedSweepAnalyzesAtMostOncePerKey) {
  Engine engine;
  const std::uint64_t analyzes_before = verify::analyze_call_count();
  (void)sweep_csv(engine, /*threads=*/4);
  (void)sweep_csv(engine, /*threads=*/1);
  const std::uint64_t delta = verify::analyze_call_count() - analyzes_before;
  const auto stats = engine.plan_cache().stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(delta, stats.misses);  // one analysis per compile, none on hits
}

}  // namespace
}  // namespace mr::simmpi
