// mr::Engine — scoped execution contexts. Under test:
//  * SCOPED STATE — every engine fans work over the one process pool, but
//    plan caches and workspace pools never leak between engines;
//  * WORKSPACE POOL — leases check out LIFO, reuse memory, and return on
//    destruction;
//  * MULTI-ENGINE — two engines with different machines running
//    interleaved on overlapping pool threads produce output byte-identical
//    to serial single-engine runs, with disjoint plan caches.
//    Run under -DMIXRADIX_SAN=thread this doubles as the race check.
#include "mixradix/engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mixradix/harness/microbench.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"

namespace mr {
namespace {

harness::SweepConfig small_sweep(int threads) {
  harness::SweepConfig config;
  config.orders = {parse_order("0-1-2-3"), parse_order("3-2-1-0"),
                   parse_order("1-3-2-0")};
  config.sizes = {1 << 16, 1 << 18};
  config.comm_size = 16;
  config.collective = simmpi::Collective::Alltoall;
  config.repetitions = 2;
  config.threads = threads;
  return config;
}

std::string sweep_csv(Engine& engine, const topo::Machine& machine,
                      harness::SweepConfig config) {
  config.all_comms = false;
  const auto single = run_sweep(engine, machine, config);
  config.all_comms = true;
  const auto simultaneous = run_sweep(engine, machine, config);
  std::ostringstream csv;
  harness::write_figure_csv(csv, "engine", single, simultaneous);
  return csv.str();
}

tune::TuneQuery small_query(std::int64_t bytes, int threads) {
  tune::TuneQuery query;
  query.comm_sizes = {16};
  query.total_bytes = {bytes};
  query.k = 3;
  query.threads = threads;
  return query;
}

std::string tune_json(Engine& engine, const topo::Machine& machine,
                      const tune::TuneQuery& query) {
  std::ostringstream json;
  tune::write_json(json, tune::tune(engine, machine, query));
  return json.str();
}

TEST(Engine, EnginesShareOneProcessPool) {
  Engine a;
  Engine b;
  EXPECT_EQ(&a.thread_pool(), &b.thread_pool());
  EXPECT_EQ(a.thread_pool().size(), util::ThreadPool::default_threads());
}

TEST(Engine, FanOutSlotCountNeverExceedsThePool) {
  // Per-slot scratch is sized by fan_out_slot_count, so a huge requested
  // worker count must not size it past the pool or the item count, and
  // every slot fan_out_slots hands out must index into it.
  Engine engine;
  const unsigned pool = engine.thread_pool().size();
  constexpr unsigned kHuge = 200000;
  EXPECT_EQ(fan_out_slot_count(engine, 1000, 1), 1u);
  EXPECT_EQ(fan_out_slot_count(engine, 1, kHuge), 1u);
  EXPECT_EQ(fan_out_slot_count(engine, 0, kHuge), 1u);
  EXPECT_EQ(fan_out_slot_count(engine, 1000, kHuge), std::min(pool, 1000u));
  EXPECT_EQ(fan_out_slot_count(engine, 2, kHuge), std::min(pool, 2u));
  EXPECT_LE(fan_out_slot_count(engine, 1000, kHuge), pool);

  constexpr std::size_t kItems = 64;
  const unsigned slots = fan_out_slot_count(engine, kItems, kHuge);
  std::vector<std::size_t> per_slot(slots, 0);
  fan_out_slots(engine, kItems, kHuge, [&](unsigned slot, std::size_t) {
    ASSERT_LT(slot, slots);
    ++per_slot[slot];
  });
  std::size_t total = 0;
  for (const std::size_t count : per_slot) total += count;
  EXPECT_EQ(total, kItems);
}

TEST(Engine, WorkspacePoolChecksOutLifoAndReusesMemory) {
  Engine engine;
  simmpi::SimWorkspace* first = nullptr;
  simmpi::SimWorkspace* second = nullptr;
  {
    Engine::WorkspaceLease lease = engine.workspace();
    ASSERT_NE(lease.get(), nullptr);
    first = lease.get();
    // A second simultaneous lease is a distinct workspace.
    Engine::WorkspaceLease other = engine.workspace();
    ASSERT_NE(other.get(), nullptr);
    EXPECT_NE(other.get(), first);
    second = other.get();
  }  // `other` returns first, then `lease`.

  // LIFO: the next checkout returns the most recently released workspace
  // (warm interned routes), and both pooled workspaces are reused before
  // a new one is allocated.
  Engine::WorkspaceLease a = engine.workspace();
  Engine::WorkspaceLease b = engine.workspace();
  Engine::WorkspaceLease c = engine.workspace();
  EXPECT_EQ(a.get(), first);
  EXPECT_EQ(b.get(), second);
  EXPECT_NE(c.get(), first);
  EXPECT_NE(c.get(), second);
}

TEST(Engine, WorkspaceLeaseMovesAndReleasesOnce) {
  Engine engine;
  Engine::WorkspaceLease empty;
  EXPECT_EQ(empty.get(), nullptr);

  Engine::WorkspaceLease lease = engine.workspace();
  simmpi::SimWorkspace* const workspace = lease.get();
  Engine::WorkspaceLease moved = std::move(lease);
  EXPECT_EQ(moved.get(), workspace);
  EXPECT_EQ(lease.get(), nullptr);  // NOLINT: moved-from is empty.
  empty = std::move(moved);
  EXPECT_EQ(empty.get(), workspace);
  {
    // Still checked out: the pool hands out a different workspace.
    Engine::WorkspaceLease other = engine.workspace();
    EXPECT_NE(other.get(), workspace);
  }
  empty = Engine::WorkspaceLease();
  // Returned exactly once: it comes back first (LIFO), and a second
  // simultaneous checkout does not hand it out again.
  Engine::WorkspaceLease again = engine.workspace();
  Engine::WorkspaceLease next = engine.workspace();
  EXPECT_EQ(again.get(), workspace);
  EXPECT_NE(next.get(), workspace);
}

// Two engines with different machines, interleaving threaded sweeps and
// tunes on the SAME process-wide pool. Outputs must be byte-identical to
// serial single-engine references, and each engine's plan cache must
// describe exactly its own workload.
TEST(MultiEngine, InterleavedWorkMatchesSerialRunsWithDisjointStats) {
  const auto machine_a = topo::hydra(2);
  const auto machine_b = topo::hydra(4);
  const auto query_b = small_query(/*bytes=*/1 << 16, /*threads=*/4);

  // Serial references, each from its own throwaway engine.
  std::string reference_a, reference_b_csv, reference_b_json;
  {
    Engine reference;
    reference_a = sweep_csv(reference, machine_a, small_sweep(/*threads=*/1));
  }
  {
    Engine reference;
    reference_b_csv = sweep_csv(reference, machine_b, small_sweep(/*threads=*/1));
    auto serial_query = query_b;
    serial_query.threads = 1;
    reference_b_json = tune_json(reference, machine_b, serial_query);
  }

  Engine engine_a;
  Engine engine_b;
  std::string csv_a, csv_b, json_b;
  std::thread worker([&] {
    csv_b = sweep_csv(engine_b, machine_b, small_sweep(/*threads=*/4));
    json_b = tune_json(engine_b, machine_b, query_b);
  });
  csv_a = sweep_csv(engine_a, machine_a, small_sweep(/*threads=*/4));
  worker.join();

  // Byte-identity against the serial single-engine world.
  EXPECT_EQ(csv_a, reference_a);
  EXPECT_EQ(csv_b, reference_b_csv);
  EXPECT_EQ(json_b, reference_b_json);

  // Disjoint caches: engine_a's served exactly its own sweep points, one
  // compile per size; engine_b's served its sweep plus the tune.
  const auto config = small_sweep(0);
  const auto sweep_points = 2 * config.orders.size() * config.sizes.size();
  const auto stats_a = engine_a.plan_cache().stats();
  EXPECT_EQ(stats_a.hits + stats_a.misses, sweep_points);
  EXPECT_EQ(stats_a.misses, config.sizes.size());
  EXPECT_EQ(stats_a.entries, config.sizes.size());
  const auto stats_b = engine_b.plan_cache().stats();
  EXPECT_GT(stats_b.hits + stats_b.misses, sweep_points);
}

TEST(MultiEngine, ConcurrentTunesMatchSerialReferences) {
  const auto machine = topo::hydra(2);
  const auto query_a = small_query(/*bytes=*/1 << 18, /*threads=*/2);
  const auto query_b = small_query(/*bytes=*/1 << 20, /*threads=*/2);

  std::string reference_a, reference_b;
  {
    Engine reference;
    reference_a = tune_json(reference, machine, query_a);
  }
  {
    Engine reference;
    reference_b = tune_json(reference, machine, query_b);
  }

  Engine engine_a, engine_b;
  std::string json_a, json_b;
  std::thread worker([&] { json_b = tune_json(engine_b, machine, query_b); });
  json_a = tune_json(engine_a, machine, query_a);
  worker.join();

  EXPECT_EQ(json_a, reference_a);
  EXPECT_EQ(json_b, reference_b);
}

}  // namespace
}  // namespace mr
