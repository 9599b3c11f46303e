// Figure 7: MPI_Allgather on 16 LUMI nodes (2048 processes), 256 processes
// per communicator — 1 vs 8 simultaneous communicators.
//
// Expected shape: the ring allgather is the most rank-order-sensitive
// collective; [0,1,2,3,4] and [1,2,3,0,4] use identical cores (same pair
// percentages) yet differ in bandwidth because their ring costs differ
// (1275 vs 1035).
#include "bench/bench_common.hpp"
#include "mixradix/topo/presets.hpp"

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const auto machine = mr::topo::lumi(16);

  mr::harness::SweepConfig config;
  config.orders = {
      mr::parse_order("0-1-2-3-4"), mr::parse_order("1-2-3-0-4"),
      mr::parse_order("3-4-0-1-2"), mr::parse_order("3-2-1-4-0"),
      mr::parse_order("4-3-2-1-0"),
  };
  config.sizes = mr::harness::paper_sizes(opts.max_size);
  config.comm_size = 256;
  config.collective = mr::simmpi::Collective::Allgather;

  bench::sweep_and_emit("fig7", opts, machine, config,
                        "Fig. 7 — 16 LUMI nodes, 2048 procs, MPI_Allgather, "
                        "256 procs/comm (1 vs 8 simultaneous)");
  return 0;
}
