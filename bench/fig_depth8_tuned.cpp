// Depth-8 figure: the paper's protocol on a hierarchy deep enough that a
// fixed legend is impossible — 8 levels mean 8! = 40320 enumeration orders,
// far past what a hand-picked order list (or an exhaustive sweep) covers.
// Instead the sweep's curves are produced from FUNNEL SURVIVORS ONLY: the
// benches' --tune=K screening (bench::tuned_orders) routes the whole
// 40320-order space through the mr::tune multi-fidelity funnel (dedup ->
// serialization floors -> lazy critical-path bounds -> waved simulation,
// pruned against the k-th best) and plots the top-K orders it returns,
// exactly like Fig. 3 plots its six.
//
//   $ ./fig_depth8_tuned                # top-4 survivors, sizes to 4 MiB
//   $ ./fig_depth8_tuned --tune=6 --max-size=16777216
//
// The machine is deep7's binary cache/NUMA tree with the 4-core leaf split
// once more (l2 pairs of 2-core leaves): 2 cabinets x 2 nodes x 2 sockets
// x 2 NUMA x 2 halves x 2 L3 x 2 L2 x 2 cores = 256 processes.
#include "bench/bench_common.hpp"

namespace {

/// Depth-8, 40320 orders: every level binary so the order space is maximal
/// for the core count. Memory bandwidth is modeled on four levels only
/// (socket/numa/l3/core); the half and l2 splits are pure topology levels,
/// keeping the deepest route at the simulator's kMaxChannelsPerFlow
/// envelope (2 link sides x 8 levels + 2 memory sides x 4 levels = 24).
mr::topo::Machine deep8() {
  std::vector<mr::topo::LevelSpec> levels = {
      {"cabinet", 2, 2.0e-6, 25.0e9, 0.0},
      {"node", 2, 1.0e-6, 12.5e9, 0.0},
      {"socket", 2, 4.0e-7, 20.0e9, 85.0e9},
      {"numa", 2, 2.5e-7, 30.0e9, 60.0e9},
      {"half", 2, 1.5e-7, 40.0e9, 0.0},
      {"l3", 2, 1.2e-7, 25.0e9, 30.0e9},
      {"l2", 2, 1.1e-7, 15.0e9, 0.0},
      {"core", 2, 1.0e-7, 9.0e9, 12.0e9},
  };
  return mr::topo::Machine("deep8", std::move(levels));
}

}  // namespace

int main(int argc, char** argv) {
  // No fixed legend at depth 8: the tuner IS the order selection, so
  // --tune defaults to 4 survivors, which keeps the figure readable. 40320
  // orders x paper sizes is a tuner workload, not a sweep workload, so the
  // size axis defaults to 4 MiB instead of the 512 MiB figure default.
  // Explicit --tune=K and --max-size=B flags override both.
  bench::Options defaults;
  defaults.tune_k = 4;
  defaults.max_size = 4ll << 20;
  const auto opts = bench::Options::parse(argc, argv, defaults);
  const auto machine = deep8();

  mr::harness::SweepConfig config;
  config.sizes = mr::harness::paper_sizes(opts.max_size);
  config.comm_size = 16;
  config.collective = mr::simmpi::Collective::Alltoall;

  bench::sweep_and_emit(
      "fig_depth8", opts, machine, config,
      "Depth-8 tree, 256 procs, MPI_Alltoall, 16 procs/comm — top-" +
          std::to_string(opts.tune_k) +
          " funnel survivors of 40320 orders (1 vs 16 simultaneous)");
  return 0;
}
