// Figure 3: MPI_Alltoall on 16 Hydra nodes (512 processes), 16 processes
// per communicator — 1 vs 32 simultaneous communicators, bandwidth over
// message size, for the six orders shown in the paper's legend.
//
// Expected shape (paper): [0,1,2,3] (fully spread) wins when one
// communicator runs alone; under 32 simultaneous communicators it collapses
// while the packed [3,2,1,0] is contention-immune and wins. Orders mapping
// the communicator to the same resources but with different internal rank
// orders ([1,3,0,2] vs [3,1,0,2]) perform identically for Alltoall.
#include "bench/bench_common.hpp"
#include "mixradix/topo/presets.hpp"

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const auto machine = mr::topo::hydra(16);

  mr::harness::SweepConfig config;
  config.orders = {
      mr::parse_order("0-1-2-3"), mr::parse_order("2-1-0-3"),
      mr::parse_order("1-3-0-2"), mr::parse_order("1-3-2-0"),
      mr::parse_order("3-1-0-2"), mr::parse_order("3-2-1-0"),
  };
  config.sizes = mr::harness::paper_sizes(opts.max_size);
  config.comm_size = 16;
  config.collective = mr::simmpi::Collective::Alltoall;
  config.repetitions = opts.repetitions;
  config.threads = opts.threads;
  // --tune=K: replace the fixed legend with the autotuner's top-K orders
  // for this exact workload (funnel survivors only; see mr::tune).
  config.tune_top_k = opts.tune_k;

  mr::Engine engine;
  config.all_comms = false;
  const auto single = run_sweep(engine, machine, config);
  config.all_comms = true;
  const auto simultaneous = run_sweep(engine, machine, config);

  bench::emit("fig3", opts, engine, single, simultaneous,
              "Fig. 3 — 16 Hydra nodes, 512 procs, MPI_Alltoall, "
              "16 procs/comm (1 vs 32 simultaneous)");
  return 0;
}
