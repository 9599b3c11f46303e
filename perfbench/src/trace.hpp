// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; the library itself is not instrumented. A
// span's name is "<layer>.<call>" (layer = the library module, e.g.
// "sim.run_timed"); spans nest on the single recording thread, so a span's
// self time is its duration minus the durations of its direct children.
// Spans stay in memory until write_chrome_json() at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the tracer's epoch.
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into spans(), -1 = a query root.
  int query = 0;              ///< per-query id shared by a query's spans.

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  /// "sim" for "sim.run_timed"; the whole name when it has no dot.
  std::string layer() const;
};

class Tracer {
 public:
  Tracer();

  /// Open a root span with a fresh query id; returns the span index.
  int begin_query(const std::string& name);
  /// Open a child of the innermost open span; -1 (nothing recorded) when
  /// no query is open.
  int begin(const std::string& name);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, microseconds), one track per
  /// query, with each span's parent index in its args.
  void write_chrome_json(std::ostream& os) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point epoch_;
  int next_query_ = 1;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices.
};

/// RAII span: closes on scope exit, exceptions included.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.begin(name)) {}
  ~Scoped() { tracer_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time per layer over the spans of one query (root excluded), plus
/// the root's own self time, which is what no layer span covers.
struct LayerTimes {
  std::map<std::string, double> self_seconds;  ///< by layer name.
  std::map<std::string, double> call_seconds;  ///< by full span name.
  double query_seconds = 0;   ///< the root span's duration.
  double unaccounted = 0;     ///< root self time.

  double layer(const std::string& name) const {
    const auto it = self_seconds.find(name);
    return it == self_seconds.end() ? 0.0 : it->second;
  }
  double call(const std::string& name) const {
    const auto it = call_seconds.find(name);
    return it == call_seconds.end() ? 0.0 : it->second;
  }
  /// Sum of every layer's self time (the root's remainder excluded).
  double layers_total() const;
};

LayerTimes layer_times(const std::vector<Span>& spans, int root);

/// The perf-ledger table: each layer's self time and share of the query,
/// then the unaccounted remainder.
void print_share_table(std::ostream& os, const std::string& title,
                       const LayerTimes& times);

}  // namespace perfbench
