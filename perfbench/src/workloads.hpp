// The benchmark's three workloads. Each builds its inputs from a seed,
// runs one untraced "query" (what a user of the library pays for one
// answer, on a fresh mr::Engine), checks the outputs against pinned
// reference values, and can run a traced serial round: the query as one
// black-box call, then a replay of it from outside through the public
// per-layer calls, with a span around each call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace mr::simmpi {
struct TimedResult;
}  // namespace mr::simmpi

namespace perfbench {

/// The seed every pinned reference value was produced with.
inline constexpr std::uint64_t kPinnedSeed = 1;

/// Relative tolerance of every pinned reference value. Wide enough for the
/// ~4% difference between exact and 2%-slack flow timing on the spread
/// order, and for the seeded input variation of splatt_cpd and
/// depth8_tune; far narrower than the gaps between the orders the checks
/// rank.
inline constexpr double kRelTol = 0.10;

struct Config {
  std::uint64_t seed = kPinnedSeed;
  bool smoke = false;              ///< tiny inputs, for the benchmark's tests.
  bool perturb_reference = false;  ///< scale one pinned value by 1.5.
};

/// Operations attempted and failed in one query. An op is one sweep point,
/// one funnel candidate or one Splatt order; it fails if any check on it
/// fails (or the query throws, which fails all of them).
class Checks {
 public:
  explicit Checks(std::size_t ops = 0) : ok_(ops, true) {}

  /// Fail op `op` unless `condition`; returns `condition`.
  bool expect(std::size_t op, bool condition, const std::string& what);
  /// Check `value` against a pinned reference within kRelTol.
  bool near(std::size_t op, double value, double reference,
            const std::string& what);

  std::int64_t attempted() const { return static_cast<std::int64_t>(ok_.size()); }
  std::int64_t failed() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::vector<bool> ok_;
  std::vector<std::string> messages_;  ///< the first few failures.
};

/// Deterministic work counts of one traced round, named by layer.
struct LayerCounts {
  std::int64_t mr_orders = 0;
  std::int64_t mr_classes = 0;
  std::int64_t plan_compiles = 0;
  std::int64_t plan_hits = 0;
  std::int64_t jobs_calls = 0;
  std::int64_t bound_calls = 0;
  std::int64_t structures_built = 0;
  std::int64_t structure_reuses = 0;
  std::int64_t sim_runs = 0;
  std::int64_t sim_events = 0;
  std::int64_t flow_completions = 0;
  std::int64_t full_recomputes = 0;
  std::int64_t pop_batches = 0;
  std::int64_t deferred_allocations = 0;
  std::int64_t deferred_rejections = 0;
  std::int64_t peak_active_flows = 0;
  std::int64_t tune_classes = 0;
  std::int64_t tune_pruned = 0;
  std::int64_t tune_simulated = 0;
  std::int64_t tune_sim_points = 0;
  std::int64_t tune_exhaustive_points = 0;

  void add_run(const mr::simmpi::TimedResult& result);
  bool operator==(const LayerCounts&) const = default;
};

struct QueryResult {
  double wall_seconds = 0;  ///< the library calls only, checks excluded.
  double cpu_seconds = 0;   ///< process user+sys over the same interval.
  Checks checks;
  std::string digest;       ///< FNV-1a of the canonical output text.
};

/// Replayed values compared bit for bit with the black-box output. This is
/// information only, not ops: the replay mirrors how the library works
/// inside, which a correct change may rearrange down to the last bit.
struct Fidelity {
  std::int64_t compared = 0;
  std::int64_t differ = 0;
  std::string first_difference;

  void compare(bool same, const std::string& what);
  void add(const Fidelity& other);
};

struct TracedRound {
  Checks checks;         ///< the black-box query's checks.
  Fidelity fidelity;     ///< the replay against the black-box output.
  int blackbox_root = -1;
  int replay_root = -1;
  LayerCounts counts;
  /// Layer the black-box call belongs to; its time beyond the replayed
  /// layers is charged to this layer's self time.
  std::string entry_layer;
  /// depth8_tune: TuneStats::bound_seconds of the black-box tune() call.
  double reported_bound_seconds = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input from the seed: machine, order list, tensor spec and
  /// grid, and (for the engine-based workloads) an engine with the thread
  /// pool resolved. Re-callable.
  virtual void setup() = 0;
  /// One untraced query on a fresh mr::Engine with `threads` workers.
  virtual QueryResult query(int threads) = 0;
  /// One serial traced round (black box, then replay) into `tracer`.
  virtual TracedRound traced(Tracer& tracer) = 0;
  /// The pinned digest for this seed and mode, or "" when none is pinned.
  virtual std::string reference_digest() const = 0;
  /// True when the query runs serially whatever the thread count.
  virtual bool serial() const { return false; }
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config);

/// 64-bit FNV-1a, rendered as 16 hex digits.
std::string fnv1a_hex(const std::string& text);

}  // namespace perfbench
