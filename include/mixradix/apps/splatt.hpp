// Splatt CPD proxy (Fig. 8 substrate).
//
// SPLATT computes a Canonical Polyadic Decomposition of a sparse tensor
// with a medium-grained 3-D decomposition: processes form a p1 x p2 x p3
// grid, and each mode m has "layer" communicators grouping the processes
// that share the other two grid coordinates. Per CPD iteration and mode,
// processes exchange factor-matrix rows with their layer communicator
// (MPI_Alltoallv — the operation whose duration the paper finds 0.92–0.98
// correlated with total CPD time), run the local MTTKRP kernel, and reduce
// factor Gram matrices over MPI_COMM_WORLD.
//
// The paper's input is the FROSTT nell-1 tensor (not redistributable
// here); we generate a synthetic tensor with nell-1's shape whose skewed
// per-slice nonzero distribution produces realistically imbalanced
// alltoallv volumes.
#pragma once

#include <cstdint>
#include <vector>

#include "mixradix/mr/permutation.hpp"
#include "mixradix/simmpi/schedule.hpp"
#include "mixradix/topo/machine.hpp"

namespace mr::apps::splatt {

/// Shape and density of the synthetic 3-way tensor.
struct TensorSpec {
  std::int64_t dims[3] = {0, 0, 0};
  std::int64_t nnz = 0;
  std::uint64_t seed = 0;
  double skew = 1.1;  ///< Zipf-like slice-weight exponent (imbalance).
};

/// The shape of FROSTT's nell-1 (2.9M x 2.1M x 25.5M, 143M nonzeros).
TensorSpec nell1_like(std::uint64_t seed = 42);

/// 3-D process grid. default_grid factorises nprocs with p1 >= p2 >= p3,
/// e.g. 1024 -> 16 x 8 x 8 (giving the 64 sixteen-process mode-0 layer
/// communicators mpisee observed).
struct Grid3 {
  std::int32_t p[3] = {1, 1, 1};
  std::int32_t nprocs() const { return p[0] * p[1] * p[2]; }
};
Grid3 default_grid(std::int32_t nprocs);

/// Layer communicators of `mode`: one per combination of the other two
/// grid coordinates, each listing its member application (world) ranks in
/// layer order. Grid rank layout is row-major: rank = (i * p2 + j) * p3 + k.
std::vector<std::vector<std::int32_t>> layer_comms(const Grid3& grid, int mode);

/// Alltoallv volume matrix (doubles) for one layer communicator of `mode`:
/// counts[a][b] = factor rows crossing from member a to member b times the
/// factor rank, drawn from the tensor's skewed slice distribution
/// (deterministic in spec.seed, mode, and layer id).
std::vector<std::vector<std::int64_t>> layer_volumes(const TensorSpec& spec,
                                                     const Grid3& grid, int mode,
                                                     std::int64_t layer,
                                                     std::int64_t factor_rank);

struct CpdConfig {
  std::int64_t factor_rank = 16;
  int iterations = 50;      ///< CPD iterations counted in the result.
  int sim_iterations = 2;   ///< iterations actually simulated (extrapolated).
};

struct CpdResult {
  double seconds = 0;            ///< full CPD duration estimate.
  /// Time of the layer alltoallvs, measured inside the CPD run as mpisee
  /// measures MPI_Alltoallv: the first simulated iteration's mode-0 layer
  /// alltoallv (block start to the last rank's last alltoallv round) times
  /// 3 * iterations mode blocks. Independent of sim_iterations.
  double alltoallv_seconds = 0;
  double compute_seconds = 0;    ///< MTTKRP roofline portion.
};

/// One CPD mode block as a single 'nprocs'-rank schedule, the one
/// simulate_cpd runs per placement and scales by 3 modes per iteration:
/// mode-0 layer alltoallv -> MTTKRP compute -> world-wide Gram
/// reduce+bcast -> quarter-communicator norms.
simmpi::Schedule cpd_iteration_schedule(const topo::Machine& machine,
                                        const TensorSpec& spec, const Grid3& grid,
                                        const CpdConfig& config);

/// Simulate CPD under a world-rank reordering (the paper's black-box
/// deployment: the application is untouched; only the rank->core mapping
/// changes). The machine must have exactly grid.nprocs() cores.
CpdResult simulate_cpd(const topo::Machine& machine, const TensorSpec& spec,
                       const Order& order, const CpdConfig& config = {});

/// Simulate CPD under an arbitrary rank->core placement (e.g. one computed
/// by a communication-matrix mapper).
CpdResult simulate_cpd_placement(const topo::Machine& machine,
                                 const TensorSpec& spec,
                                 std::vector<std::int64_t> core_of_rank,
                                 const CpdConfig& config = {});

/// Aggregate per-iteration communication matrix (bytes between application
/// ranks) of the CPD proxy — the input a TreeMatch-style mapper would be
/// fed after profiling one iteration.
std::vector<std::vector<double>> cpd_comm_matrix(const TensorSpec& spec,
                                                 const Grid3& grid,
                                                 std::int64_t factor_rank);

/// Pearson correlation coefficient between two samples (the paper's §4.2
/// CPD-vs-alltoallv evidence).
double pearson(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace mr::apps::splatt
