// Figure 4: MPI_Alltoall on 16 Hydra nodes (512 processes), 128 processes
// per communicator — 1 vs 4 simultaneous communicators.
//
// Expected shape: with communicators this large every mapping crosses
// nodes heavily, so the spread/packed gap narrows; packed-ish orders
// ([3,2,1,0], [1,3,2,0]) still degrade least when all 4 communicators run.
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
  config.comm_size = 128;
  config.collective = mr::simmpi::Collective::Alltoall;

  bench::sweep_and_emit("fig4", opts, machine, config,
                        "Fig. 4 — 16 Hydra nodes, 512 procs, MPI_Alltoall, "
                        "128 procs/comm (1 vs 4 simultaneous)");
  return 0;
}
