#include "mixradix/verify/topo_check.hpp"

#include <sstream>

#include "mixradix/simnet/path.hpp"
#include "mixradix/util/prng.hpp"

namespace mr::verify {

namespace {

/// Diagnostic accumulator: formatting and severity counting in one place so
/// every check site stays a one-liner.
class TopoSink {
 public:
  explicit TopoSink(TopoReport& report) : report_(report) {}

  template <typename... Parts>
  void add(Severity severity, TopoCheck check, int level, Parts&&... parts) {
    std::ostringstream text;
    (text << ... << parts);
    report_.diagnostics.push_back(
        TopoDiagnostic{severity, check, level, text.str()});
  }

  template <typename... Parts>
  void error(TopoCheck check, int level, Parts&&... parts) {
    add(Severity::Error, check, level, std::forward<Parts>(parts)...);
  }
  template <typename... Parts>
  void warn(TopoCheck check, int level, Parts&&... parts) {
    add(Severity::Warning, check, level, std::forward<Parts>(parts)...);
  }

 private:
  TopoReport& report_;
};

std::string level_label(const std::vector<topo::LevelSpec>& levels, int k) {
  const auto& name = levels[static_cast<std::size_t>(k)].name;
  return name.empty() ? "level " + std::to_string(k)
                      : "level " + std::to_string(k) + " (" + name + ")";
}

/// Aggregate-bandwidth taper: summed link bandwidth should not DECREASE
/// toward the leaves — an inner level with less total bandwidth than the
/// level above it means the model claims local traffic is slower than
/// global traffic, which is almost always a transposed spec. Only a
/// warning: deliberately inverted tapers are conceivable (oversubscribed
/// intra-node fabrics).
void check_taper(TopoSink& sink, const topo::Machine& machine) {
  double components = 1;
  double prev_aggregate = 0;
  for (int k = 0; k < machine.depth(); ++k) {
    const auto& spec = machine.level(k);
    components *= static_cast<double>(spec.radix);
    const double aggregate = components * spec.link_bandwidth;
    if (k > 0 && aggregate < prev_aggregate) {
      sink.warn(TopoCheck::Taper, k, level_label(machine.levels(), k),
                ": aggregate link bandwidth ", aggregate,
                " B/s drops below the enclosing level's ", prev_aggregate,
                " B/s (inverted taper: is the spec transposed?)");
    }
    prev_aggregate = aggregate;
  }
}

void check_accounting(TopoSink& sink, const topo::Machine& machine) {
  const auto& h = machine.hierarchy();
  std::int64_t expected_offset = 0;
  for (int k = 0; k < machine.depth(); ++k) {
    if (machine.component_id(k, 0) != expected_offset) {
      sink.error(TopoCheck::Accounting, k,
                 "component_id(", k, ", 0) = ", machine.component_id(k, 0),
                 " but the cumulative outer-level component count is ",
                 expected_offset);
    }
    expected_offset += h.components_at(k);
  }
  if (machine.total_components() != expected_offset) {
    sink.error(TopoCheck::Accounting, -1, "total_components() = ",
               machine.total_components(),
               " but the per-level counts sum to ", expected_offset);
  }
  const std::int64_t last =
      machine.component_id(machine.depth() - 1,
                           h.components_at(machine.depth() - 1) - 1);
  if (last != machine.total_components() - 1) {
    sink.error(TopoCheck::Accounting, machine.depth() - 1,
               "last component id ", last, " != total_components() - 1 = ",
               machine.total_components() - 1);
  }

  const std::vector<double> caps = simnet::channel_capacities(machine);
  if (static_cast<std::int64_t>(caps.size()) != 3 * machine.total_components()) {
    sink.error(TopoCheck::Accounting, -1, "channel_capacities() has ",
               caps.size(), " entries, expected 3 * total_components() = ",
               3 * machine.total_components());
    return;
  }
  for (int k = 0; k < machine.depth(); ++k) {
    const auto& spec = machine.level(k);
    for (std::int64_t comp = 0; comp < h.components_at(k); ++comp) {
      const auto id = static_cast<std::size_t>(machine.component_id(k, comp));
      const double expected_mem =
          spec.mem_bandwidth > 0 ? spec.mem_bandwidth : 1.0;
      if (caps[3 * id] != spec.link_bandwidth ||
          caps[3 * id + 1] != spec.link_bandwidth ||
          caps[3 * id + 2] != expected_mem) {
        sink.error(TopoCheck::Accounting, k, level_label(machine.levels(), k),
                   " component ", comp,
                   ": capacity table row disagrees with the level spec");
        return;  // one located example is enough; the table is systematic
      }
      if (!(caps[3 * id] > 0) || !(caps[3 * id + 2] > 0)) {
        sink.error(TopoCheck::Accounting, k, level_label(machine.levels(), k),
                   " component ", comp, ": non-positive channel capacity");
        return;
      }
    }
  }
}

/// Core pairs sampled for the path_latency symmetry check (every pair is
/// also checked against the base-latency floor).
constexpr int kLatencySamplePairs = 64;

void check_latency(TopoSink& sink, const topo::Machine& machine) {
  const std::int64_t cores = machine.cores();
  if (machine.path_latency(0, 0) != machine.costs().base_latency) {
    sink.error(TopoCheck::Latency, -1,
               "self path latency != base latency for core 0");
  }
  // Deterministic sample (seeded by the machine shape, not wall clock):
  // symmetry and the base-latency floor on each sampled pair.
  util::Xoshiro256 rng(0x746f706f6c696e74ull ^
                       static_cast<std::uint64_t>(cores));
  int asymmetric = 0;
  for (int i = 0; i < kLatencySamplePairs; ++i) {
    const auto a = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(cores)));
    const auto b = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(cores)));
    const double ab = machine.path_latency(a, b);
    const double ba = machine.path_latency(b, a);
    if (ab != ba) {
      if (asymmetric++ == 0) {
        sink.error(TopoCheck::Latency, -1, "path_latency(", a, ", ", b,
                   ") = ", ab, " != path_latency(", b, ", ", a, ") = ", ba);
      }
    }
    if (ab < machine.costs().base_latency) {
      sink.error(TopoCheck::Latency, -1, "path_latency(", a, ", ", b,
                 ") = ", ab, " undercuts the base latency ",
                 machine.costs().base_latency);
      return;
    }
  }
  if (asymmetric > 1) {
    sink.error(TopoCheck::Latency, -1, asymmetric - 1,
               " further asymmetric pairs in the sample");
  }
}

/// Expected structure per preset family. with_nodes only retouches the
/// level-0 radix and with_nic_scale only the level-0 bandwidth, so the
/// inner radices and the level names stay checkable for every variant.
struct PresetShape {
  const char* name;
  std::vector<const char*> level_names;
  /// Expected radix per level; -1 = any (the with_nodes degree of freedom).
  std::vector<int> radices;
};

const std::vector<PresetShape>& preset_shapes() {
  static const std::vector<PresetShape> shapes = {
      {"hydra", {"node", "socket", "half", "core"}, {-1, 2, 2, 8}},
      {"hydra-node", {"socket", "half", "core"}, {2, 2, 8}},
      {"lumi", {"node", "socket", "numa", "l3", "core"}, {-1, 2, 4, 2, 8}},
      {"lumi-node", {"socket", "numa", "l3", "core"}, {2, 4, 2, 8}},
      {"testbox", {"node", "socket", "core"}, {2, 2, 4}},
  };
  return shapes;
}

void check_presets(TopoSink& sink, const topo::Machine& machine) {
  for (const PresetShape& shape : preset_shapes()) {
    if (machine.name() != shape.name) continue;
    if (machine.depth() != static_cast<int>(shape.level_names.size())) {
      sink.error(TopoCheck::Preset, -1, "preset '", shape.name,
                 "' must have ", shape.level_names.size(),
                 " levels, machine has ", machine.depth());
      return;
    }
    for (int k = 0; k < machine.depth(); ++k) {
      const auto& spec = machine.level(k);
      const auto i = static_cast<std::size_t>(k);
      if (spec.name != shape.level_names[i]) {
        sink.error(TopoCheck::Preset, k, "preset '", shape.name,
                   "' level ", k, " must be named '", shape.level_names[i],
                   "', got '", spec.name, "'");
      }
      if (shape.radices[i] != -1 && spec.radix != shape.radices[i]) {
        sink.error(TopoCheck::Preset, k, "preset '", shape.name,
                   "' level ", k, " must have radix ", shape.radices[i],
                   ", got ", spec.radix);
      }
    }
    if (machine.name() == "testbox") {
      // testbox exists so unit tests can predict times analytically: every
      // per-message cost must stay zero and every message rendezvous.
      const auto& costs = machine.costs();
      if (costs.send_overhead != 0 || costs.recv_overhead != 0 ||
          costs.base_latency != 0 || costs.reduce_seconds_per_byte != 0 ||
          costs.eager_threshold != 0) {
        sink.error(TopoCheck::Preset, -1,
                   "testbox must have zero per-message costs and a zero "
                   "eager threshold (analytic-prediction contract)");
      }
    }
    return;
  }
}

}  // namespace

const char* to_string(TopoCheck check) {
  switch (check) {
    case TopoCheck::Accounting: return "accounting";
    case TopoCheck::Latency: return "latency";
    case TopoCheck::Taper: return "taper";
    case TopoCheck::Preset: return "preset";
  }
  return "?";
}

std::string TopoDiagnostic::to_string() const {
  std::ostringstream os;
  os << verify::to_string(severity) << '[' << verify::to_string(check) << ']';
  if (level >= 0) os << " level " << level;
  os << ": " << text;
  return os.str();
}

std::size_t TopoReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string TopoReport::summary() const {
  std::ostringstream os;
  os << count(Severity::Error) << " errors, " << count(Severity::Warning)
     << " warnings, " << count(Severity::Info) << " infos";
  return os.str();
}

std::string TopoReport::to_string() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) os << d.to_string() << '\n';
  os << summary();
  return os.str();
}

TopoReport analyze(const topo::Machine& machine) {
  TopoReport report;
  report.machine = machine.name();
  TopoSink sink(report);
  check_taper(sink, machine);
  check_accounting(sink, machine);
  check_latency(sink, machine);
  check_presets(sink, machine);
  return report;
}

}  // namespace mr::verify
