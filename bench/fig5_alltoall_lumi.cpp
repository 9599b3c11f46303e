// Figure 5: MPI_Alltoall on 16 LUMI nodes (2048 processes), 16 processes
// per communicator — 1 vs 128 simultaneous communicators.
//
// Expected shape: alone, the spread [0,1,2,3,4] leads for large messages
// (each of the 16 ranks has a whole 25 GB/s NIC); with 128 simultaneous
// communicators it collapses (128 ranks share each NIC) and the packed
// [4,3,2,1,0] / [3,4,0,1,2] orders win, flat across scenarios.
#include "bench/bench_common.hpp"
#include "mixradix/topo/presets.hpp"

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const auto machine = mr::topo::lumi(16);

  mr::harness::SweepConfig config;
  config.orders = {
      mr::parse_order("0-1-2-3-4"), mr::parse_order("1-2-3-0-4"),
      mr::parse_order("3-2-1-4-0"), mr::parse_order("3-4-0-1-2"),
      mr::parse_order("4-3-2-1-0"),
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

  bench::emit("fig5", opts, engine, single, simultaneous,
              "Fig. 5 — 16 LUMI nodes, 2048 procs, MPI_Alltoall, "
              "16 procs/comm (1 vs 128 simultaneous)");
  return 0;
}
