// Figure 6: MPI_Allreduce on 16 Hydra nodes (512 processes), 64 processes
// per communicator — 1 vs 8 simultaneous communicators.
//
// Expected shape: both the communicator placement AND the rank order
// inside the communicator matter — [0,1,2,3] vs [2,1,0,3] share pair
// percentages but differ in ring cost, and the ring/recursive phases of
// allreduce make that internal order visible (unlike Alltoall).
#include "bench/bench_common.hpp"
#include "mixradix/topo/presets.hpp"

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const auto machine = mr::topo::hydra(16);

  mr::harness::SweepConfig config;
  config.orders = {
      mr::parse_order("0-1-2-3"), mr::parse_order("2-1-0-3"),
      mr::parse_order("1-3-0-2"), mr::parse_order("3-1-0-2"),
      mr::parse_order("1-3-2-0"), mr::parse_order("3-2-1-0"),
  };
  config.sizes = mr::harness::paper_sizes(opts.max_size);
  config.comm_size = 64;
  config.collective = mr::simmpi::Collective::Allreduce;

  bench::sweep_and_emit("fig6", opts, machine, config,
                        "Fig. 6 — 16 Hydra nodes, 512 procs, MPI_Allreduce, "
                        "64 procs/comm (1 vs 8 simultaneous)");
  return 0;
}
