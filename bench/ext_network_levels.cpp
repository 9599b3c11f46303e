// Extension experiment (§3.2's unexploited possibility): include the
// NETWORK hierarchy in the mixed-radix base. The paper notes hierarchies
// "can also include levels outside of nodes, like cabinets or the topology
// of the network", with the constraint that allocated nodes exactly fill
// the selected switches — but never evaluates it.
//
// Setup: a two-level fat-tree — 4 leaf switches x 4 nodes — modelled as
// the 5-level hierarchy ⟦4, 4, 2, 2, 8⟧ with an oversubscribed (1:2)
// switch uplink. Alltoall in 16-process communicators; switch-aware orders
// can pack communicators under one leaf switch, which the node-level
// hierarchy alone cannot express.
#include "bench/bench_common.hpp"
#include "mixradix/topo/presets.hpp"

namespace {

mr::topo::Machine switchy_hydra() {
  std::vector<mr::topo::LevelSpec> levels = {
      // Leaf switches: the uplink into the core is 1:2 oversubscribed
      // (4 nodes x 12.5 GB/s behind a 25 GB/s trunk).
      {"switch", 4, 5.0e-7, 25.0e9, 0.0},
      {"node", 4, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 48.0e9},
      {"core", 8, 1.0e-7, 9.0e9, 12.0e9},
  };
  return mr::topo::Machine("hydra-fat-tree", std::move(levels));
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const auto machine = switchy_hydra();  // 512 cores, 16 nodes

  mr::harness::SweepConfig config;
  config.orders = {
      // node-spread but switch-PACKED: impossible without the switch level.
      mr::parse_order("1-2-3-4-0"),
      // fully spread incl. switches (the naive "most spread").
      mr::parse_order("0-1-2-3-4"),
      // switch-level round-robin of packed comms.
      mr::parse_order("4-3-2-1-0"),
      // Slurm-expressible node-level spread, oblivious to switches.
      mr::parse_order("1-0-2-3-4"),
  };
  config.sizes = mr::harness::paper_sizes(opts.max_size);
  config.comm_size = 16;
  config.collective = mr::simmpi::Collective::Alltoall;

  bench::sweep_and_emit(
      "ext-network", opts, machine, config,
      "Extension — network levels in the hierarchy: 4 switches x 4 "
      "Hydra nodes (1:2 oversubscribed), MPI_Alltoall, 16 procs/comm");
  std::cout
      << "reading: with all communicators active, the switch-packed\n"
         "node-spread order [1-2-3-4-0] avoids the oversubscribed trunk\n"
         "that the switch-oblivious spread orders saturate — a mapping\n"
         "class only reachable once the network level joins the base.\n";
  return 0;
}
