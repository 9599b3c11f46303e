// Micro-benchmarks of the core algorithms (google-benchmark): the paper
// argues its technique is "simple to implement" and cheap; these benches
// quantify that — decomposition and renumbering are nanosecond-scale, so
// reordering even a large MPI_COMM_WORLD is negligible next to job launch.
#include <benchmark/benchmark.h>

#include "mixradix/engine/engine.hpp"
#include "mixradix/mr/core_select.hpp"
#include "mixradix/mr/equivalence.hpp"
#include "mixradix/mr/metrics.hpp"
#include "mixradix/mr/reorder.hpp"
#include "mixradix/simnet/flow_sim.hpp"
#include "mixradix/simnet/path.hpp"
#include "mixradix/topo/presets.hpp"

namespace {

using namespace mr;

const Hierarchy& lumi_hierarchy() {
  static const Hierarchy h{16, 2, 4, 2, 8};
  return h;
}

void BM_Decompose(benchmark::State& state) {
  const Hierarchy& h = lumi_hierarchy();
  std::int64_t rank = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(h, rank));
    rank = (rank + 997) % h.total();
  }
}
BENCHMARK(BM_Decompose);

void BM_ReorderRank(benchmark::State& state) {
  const Hierarchy& h = lumi_hierarchy();
  const Order order = parse_order("3-2-1-4-0");
  std::int64_t rank = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reorder_rank(h, rank, order));
    rank = (rank + 997) % h.total();
  }
}
BENCHMARK(BM_ReorderRank);

void BM_ReorderWholeWorld(benchmark::State& state) {
  const Hierarchy h = lumi_hierarchy().with_prefix_levels({static_cast<int>(state.range(0))});
  const Order order = identity_order(h.depth());
  for (auto _ : state) {
    benchmark::DoNotOptimize(reorder_all_ranks(h, order));
  }
  state.SetItemsProcessed(state.iterations() * h.total());
}
BENCHMARK(BM_ReorderWholeWorld)->Arg(2)->Arg(8)->Arg(32);

void BM_RingCost(benchmark::State& state) {
  const Hierarchy& h = lumi_hierarchy();
  const auto members = subcommunicator_coords(h, parse_order("1-2-3-0-4"), 0,
                                              state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring_cost(h, members));
  }
}
BENCHMARK(BM_RingCost)->Arg(16)->Arg(256);

void BM_PairPercentages(benchmark::State& state) {
  const Hierarchy& h = lumi_hierarchy();
  const auto members = subcommunicator_coords(h, parse_order("1-2-3-0-4"), 0,
                                              state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pair_percentages(h, members));
  }
}
BENCHMARK(BM_PairPercentages)->Arg(16)->Arg(256);

void BM_AllOrders(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_orders_heap(n));
  }
}
BENCHMARK(BM_AllOrders)->Arg(4)->Arg(6)->Arg(8);

void BM_SelectCores(benchmark::State& state) {
  const Hierarchy node{2, 4, 2, 8};
  const Order order = parse_order("2-1-0-3");
  for (auto _ : state) {
    benchmark::DoNotOptimize(select_cores(node, order, state.range(0)));
  }
}
BENCHMARK(BM_SelectCores)->Arg(8)->Arg(64);

void BM_ClassifyOrders(benchmark::State& state) {
  const Hierarchy h{4, 2, 2, 8};
  Engine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_orders(engine, h, 16, Equivalence::SameSetsAndInternal));
  }
}
BENCHMARK(BM_ClassifyOrders);

void BM_FlowSimChurn(benchmark::State& state) {
  // Steady-state add/complete churn at the given concurrency.
  const auto machine = topo::lumi(16);
  const auto caps = simnet::channel_capacities(machine);
  const auto flows = state.range(0);
  for (auto _ : state) {
    simnet::FlowSim sim(caps, 0.005);
    for (std::int64_t f = 0; f < flows; ++f) {
      sim.add_flow(simnet::flow_channels(machine, (f * 37) % 2048,
                                         (f * 101 + 7) % 2048),
                   1e6 + static_cast<double>(f), f);
    }
    std::int64_t completed = 0;
    while (sim.active_flows() > 0) {
      completed += static_cast<std::int64_t>(sim.advance_and_pop().size());
    }
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowSimChurn)->Arg(64)->Arg(512)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
