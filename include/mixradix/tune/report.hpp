// Rendering of TuneReports: a human-readable ranking table and a
// machine-readable JSON document (mrtune --json, the byte-identity oracle
// of the determinism tests).
//
// write_json is canonical: doubles are printed with max_digits10 so equal
// doubles render equally, and wall-clock fields are excluded — two
// searches that took different real time but did the same work produce the
// SAME bytes. to_string targets humans and does include the elapsed time.
#pragma once

#include <iosfwd>
#include <string>

#include "mixradix/tune/search.hpp"

namespace mr::tune {

/// Human-readable digest: query echo, top-k table (score, bandwidth,
/// metrics, class size, bound), funnel statistics.
std::string to_string(const TuneReport& report);

/// Stage 2's work in one phrase: "1680 floors, 32 lane passes for 96
/// point bounds (3 lanes per pass)" — floors, critical-path DP passes and
/// the payload lanes those passes served.
std::string stage2_summary(const TuneStats& stats);

/// Canonical JSON document (see header comment). `candidates: true` embeds
/// the full per-candidate provenance table; false keeps only the top-k and
/// statistics (the CLI default for big order spaces).
void write_json(std::ostream& os, const TuneReport& report,
                bool candidates = true);

}  // namespace mr::tune
