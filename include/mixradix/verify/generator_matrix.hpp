// The generator matrix: every collective algorithm the library can compile
// to a Schedule, instantiable by name over (nranks, count, root), plus the
// repeat/concat/merge compositions — the riskiest schedule shapes.
//
// The per-algorithm table lives in the simmpi algorithm registry
// (mixradix/simmpi/registry.hpp) — the same single source of truth the
// selector and plan compiler use; this header adds only the composition
// shapes on top. The matrix feeds two consumers: the verifier test suite
// (every point must analyze clean) and the verify_cli example (ad-hoc
// inspection of any point).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mixradix/simmpi/schedule.hpp"

namespace mr::verify {

struct MatrixPoint {
  std::string name;  ///< e.g. "alltoall_bruck/p=16/c=1000".
  std::string algorithm;
  std::int32_t nranks = 0;
  std::int64_t count = 0;
  /// Deferred so consumers can time generation separately from analysis.
  std::function<simmpi::Schedule()> make;
};

/// Names accepted by make_named: every algorithm in
/// mixradix/simmpi/collectives.hpp plus the "repeat", "concat", "merge",
/// and "concat_merge" composition shapes.
std::vector<std::string> algorithm_names();

/// Instantiate algorithm `name` for `p` ranks. `count` follows the
/// collective's own convention (doubles); `root` applies to the rooted
/// collectives and is ignored elsewhere. Throws mr::invalid_argument for
/// unknown names and unsupported (name, p) combinations (e.g.
/// allgather_recursive_doubling on a non-power-of-two p).
simmpi::Schedule make_named(const std::string& name, std::int32_t p,
                            std::int64_t count, std::int32_t root = 0);

/// True when `name` can be instantiated for `p` ranks.
bool supports(const std::string& name, std::int32_t p);

/// The full cross product of algorithm_names() x ranks x counts, skipping
/// unsupported combinations. Rooted collectives appear once per distinct
/// root in {0, p - 1}.
std::vector<MatrixPoint> generator_matrix(
    const std::vector<std::int32_t>& ranks,
    const std::vector<std::int64_t>& counts);

}  // namespace mr::verify
