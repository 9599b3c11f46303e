// Static schedule verification: proves properties of a simmpi Schedule
// before either executor touches it.
//
// A Schedule is a deterministic message-passing program with explicit
// message ids (no wildcard matching), post-then-waitall rounds, and
// per-rank private arenas. That makes it fully analyzable ahead of time —
// the analyses MPI correctness checkers like MUST or ISP approximate
// dynamically are exact here:
//
//  * structure and conservation — every op names an existing message of
//    its own rank, every region lies inside the arena, and every message
//    is sent and received exactly once with equal byte counts;
//  * deadlock freedom — a cycle search over the happens-before graph
//    built from per-rank round ordering plus send->recv message edges;
//    failures come with the full rank/round/message cycle trace;
//  * write-race freedom — conflicting same-round writes to overlapping
//    arena regions (recv vs recv under a non-commutative combine, recv
//    vs local copy, copy vs copy);
//  * liveness lints — writes that are fully overwritten before any read
//    (dead writes) and reads of regions the schedule never writes
//    (external inputs, or uninitialised data when nothing seeds them).
//
// Three entry points run a prefix of these passes: `analyze` all four
// (compile_plan), `analyze_structure` the first (make_plan and the
// DataExecutor), `analyze_deadlock` the first two (both executors' deadlock
// errors). None throws on a bad schedule: each returns a Report whose
// diagnostics carry severities. Error-level findings mean at least one
// executor would misbehave (out-of-arena access, deadlock, nondeterministic
// result, dropped payload); warnings are portability/efficiency hazards;
// infos are observations (inferred input regions).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mixradix/simmpi/schedule.hpp"

namespace mr::verify {

enum class Severity { Info, Warning, Error };

enum class Check {
  Structure,     ///< malformed IR: bad endpoints, dangling ops, regions out of arena
  Conservation,  ///< send/receive multiplicity or byte-count mismatch
  Deadlock,      ///< cycle in the happens-before graph
  Race,          ///< conflicting same-round writes to overlapping regions
  DeadWrite,     ///< region fully overwritten before any read
  UninitRead,    ///< read of a region the schedule never writes
  Binding,       ///< plan-to-machine binding defect (mixradix/verify/binding.hpp)
};

const char* to_string(Severity severity);
const char* to_string(Check check);

struct Diagnostic {
  Severity severity = Severity::Error;
  Check check = Check::Structure;
  std::int32_t rank = -1;  ///< involved rank, -1 when not rank-specific.
  int round = -1;          ///< involved round, -1 when not round-specific.
  std::int32_t msg = -1;   ///< involved message id, -1 when none.
  std::string text;        ///< human-readable; deadlocks carry the cycle trace.

  /// "error[deadlock] rank 1 round 0 msg 3: ..." (locations omitted when -1).
  std::string to_string() const;
};

struct Options {
  /// Arenas are initialised externally before run() (the DataExecutor
  /// contract), so reads of never-written regions are the schedule's
  /// *inputs*. Set false for schedules that must be self-contained: the
  /// same reads are then reported as uninitialised-data-flow warnings.
  bool assume_inputs_initialized = true;
  /// Emit one Info per rank listing the inferred input regions.
  bool report_inputs = false;
  /// Stop appending diagnostics past this count (a closing Info notes the
  /// suppression) so pathological schedules cannot explode the report.
  std::size_t max_diagnostics = 256;
};

struct Report {
  std::vector<Diagnostic> diagnostics;

  std::size_t count(Severity severity) const;
  /// No Error-level diagnostics: every executor will run this schedule to
  /// completion with a deterministic result.
  bool clean() const { return count(Severity::Error) == 0; }
  /// One line: "2 errors, 1 warning, 0 infos".
  std::string summary() const;
  /// Full listing, one diagnostic per paragraph, ending with the summary.
  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const Report& report);

/// Statically analyze `schedule`. Structural damage that would make the
/// deeper analyses read out of bounds (dangling message ids, missing
/// programs) short-circuits: the report then carries only the
/// structure/conservation findings.
Report analyze(const simmpi::Schedule& schedule, const Options& options = {});

/// The structure and conservation pass of analyze() alone: the one check
/// of a raw schedule. Not counted by analyze_call_count().
Report analyze_structure(const simmpi::Schedule& schedule);

/// The structure, conservation and deadlock passes of analyze() alone: the
/// cycle trace both executors put in their message when a run stops
/// making progress. Not counted by analyze_call_count().
Report analyze_deadlock(const simmpi::Schedule& schedule);

/// Process-wide number of analyze() invocations so far. Tests use deltas
/// of this counter to prove compile_plan runs the analyzer exactly once per
/// distinct plan key.
std::uint64_t analyze_call_count();

}  // namespace mr::verify
