// Static topology lint: proves structural invariants of a Machine model
// before any simulation trusts it.
//
// mr::verify::analyze(Schedule) covers one half of every experiment — the
// communication program. This header covers the other half: the Machine
// the program is bound to. The Machine constructor already rejects
// nonsensical parameters (radix < 2, non-finite or negative bandwidths,
// latencies, costs and FLOP rates) with a located message, so `analyze`
// lints what construction cannot see: the derived-state invariants every
// simnet consumer relies on (component-id accounting, channel-capacity
// table shape and values, path-latency symmetry on sampled core pairs),
// the aggregate-bandwidth taper, and preset-specific expectations for the
// machines the paper's figures are calibrated against (hydra/lumi/testbox
// families).
//
// The derived-state checks re-derive everything through the public Machine
// and simnet::channel_capacities APIs, so they double as a standing oracle:
// a future fast path that breaks the component-id layout or the capacity
// table fails the lint before it can skew a single figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mixradix/topo/machine.hpp"
#include "mixradix/verify/verify.hpp"

namespace mr::verify {

/// What a topology diagnostic is about.
enum class TopoCheck {
  Accounting,  ///< component-id / channel-capacity table inconsistency
  Latency,     ///< path-latency asymmetry or sub-base-latency path
  Taper,       ///< aggregate bandwidth decreases toward the leaves
  Preset,      ///< machine violates its preset's documented shape
};

const char* to_string(TopoCheck check);

struct TopoDiagnostic {
  Severity severity = Severity::Error;
  TopoCheck check = TopoCheck::Accounting;
  int level = -1;  ///< hierarchy level the finding is located at, -1 = global.
  std::string text;

  /// "error[preset] level 1: ..." (level omitted when -1).
  std::string to_string() const;
};

struct TopoReport {
  std::string machine;  ///< name of the analyzed machine.
  std::vector<TopoDiagnostic> diagnostics;

  std::size_t count(Severity severity) const;
  bool clean() const { return count(Severity::Error) == 0; }
  /// One line: "2 errors, 1 warning, 0 infos".
  std::string summary() const;
  /// Full listing, one diagnostic per line, ending with the summary.
  std::string to_string() const;
};

/// Lint a constructed Machine: derived-state invariants (accounting,
/// capacities, latency symmetry), the bandwidth taper and preset
/// expectations. Never throws: every finding is a located diagnostic.
TopoReport analyze(const topo::Machine& machine);

}  // namespace mr::verify
