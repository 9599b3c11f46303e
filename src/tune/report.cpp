#include "mixradix/tune/report.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

namespace mr::tune {

namespace {

/// Canonical double rendering: max_digits10 shortest-round-trip is not
/// available pre-C++17-to_chars everywhere, so fix the precision — equal
/// doubles always render to equal bytes, which is all canonicality needs.
std::string jnum(double v) {
  std::ostringstream ss;
  ss << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return ss.str();
}

std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string jbool(bool b) { return b ? "true" : "false"; }

void write_point(std::ostream& os, const QueryPoint& point) {
  os << "{\"collective\": " << jstr(collective_name(point.collective))
     << ", \"comm_size\": " << point.comm_size
     << ", \"total_bytes\": " << point.total_bytes << "}";
}

void write_candidate(std::ostream& os, const TuneCandidate& c) {
  os << "      {\"order\": " << jstr(order_to_string(c.order))
     << ", \"fate\": " << jstr(fate_name(c.fate))
     << ", \"class_size\": " << c.members.size()
     << ", \"ring_cost\": " << c.character.ring_cost
     << ", \"lower_bound\": " << jnum(c.lower_bound);
  if (c.fate == Fate::Simulated) {
    os << ", \"score\": " << jnum(c.score) << ", \"wave\": " << c.wave
       << ", \"points\": [";
    for (std::size_t i = 0; i < c.points.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"makespan\": " << jnum(c.points[i].makespan)
         << ", \"mean_bandwidth\": " << jnum(c.points[i].mean_bandwidth)
         << "}";
    }
    os << "]";
  }
  os << "}";
}

}  // namespace

std::string stage2_summary(const TuneStats& s) {
  const std::int64_t lanes =
      s.bound_structures_built + s.bound_structure_reuses;
  std::ostringstream os;
  os << s.bounds_computed << " floors, " << s.bound_structures_built
     << " lane passes for " << lanes << " point bounds";
  if (s.bound_structures_built > 0) {
    os << " (" << std::setprecision(3)
       << static_cast<double>(lanes) /
              static_cast<double>(s.bound_structures_built)
       << " lanes per pass)";
  }
  return os.str();
}

std::string to_string(const TuneReport& report) {
  const TuneStats& s = report.stats;
  std::ostringstream os;
  os << "mr::tune " << report.machine << " " << report.hierarchy << "\n";
  os << "  points:";
  for (const QueryPoint& p : report.points) os << " " << p.to_string();
  os << "\n";
  os << "  funnel: " << s.orders << " orders -> " << s.classes
     << " classes -> " << s.simulated << " simulated (" << s.sim_points
     << " of " << s.exhaustive_points << " exhaustive point sims";
  if (s.sim_points > 0) {
    os << ", " << std::setprecision(3)
       << static_cast<double>(s.exhaustive_points) /
              static_cast<double>(s.sim_points)
       << "x saving";
  }
  os << ")\n";
  if (s.bounds_computed > 0) {
    os << "  stage 2: " << stage2_summary(s) << ", " << std::setprecision(4)
       << s.bound_seconds << " s\n";
  }
  if (!s.exhausted) {
    os << "  BUDGET EXHAUSTED after " << s.sim_points
       << " point sims: ranking is best-so-far (" << s.budget_skipped
       << " candidates unvisited)\n";
  }
  os << "  elapsed: " << std::setprecision(4) << s.elapsed_seconds << " s\n";
  os << "  top " << report.top.size() << ":\n";
  for (std::size_t rank = 0; rank < report.top.size(); ++rank) {
    const TuneCandidate& c = report.candidates[report.top[rank]];
    os << "    " << rank + 1 << ". " << c.character.to_string()
       << "  score " << std::setprecision(6) << c.score << " s"
       << "  bound " << std::setprecision(6) << c.lower_bound << " s"
       << "  class " << c.members.size() << " orders\n";
  }
  return os.str();
}

void write_json(std::ostream& os, const TuneReport& report, bool candidates) {
  const TuneStats& s = report.stats;
  os << "{\n";
  os << "  \"machine\": " << jstr(report.machine) << ",\n";
  os << "  \"hierarchy\": " << jstr(report.hierarchy) << ",\n";
  os << "  \"k\": " << report.query.k << ",\n";
  os << "  \"concurrency\": "
     << jstr(report.query.concurrency == Concurrency::AllComms ? "all"
                                                               : "single")
     << ",\n";
  os << "  \"completion_slack\": " << jnum(report.query.completion_slack)
     << ",\n";
  os << "  \"repetitions\": " << report.query.repetitions << ",\n";
  os << "  \"points\": [";
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    if (i > 0) os << ", ";
    write_point(os, report.points[i]);
  }
  os << "],\n";
  os << "  \"stats\": {\n";
  os << "    \"orders\": " << s.orders << ",\n";
  os << "    \"classes\": " << s.classes << ",\n";
  os << "    \"bounds_computed\": " << s.bounds_computed << ",\n";
  os << "    \"pruned\": " << s.pruned << ",\n";
  os << "    \"simulated\": " << s.simulated << ",\n";
  os << "    \"sim_points\": " << s.sim_points << ",\n";
  os << "    \"exhaustive_points\": " << s.exhaustive_points << ",\n";
  os << "    \"budget_skipped\": " << s.budget_skipped << ",\n";
  os << "    \"exhausted\": " << jbool(s.exhausted) << "\n";
  os << "  },\n";
  os << "  \"top\": [\n";
  for (std::size_t rank = 0; rank < report.top.size(); ++rank) {
    const TuneCandidate& c = report.candidates[report.top[rank]];
    os << "    {\"rank\": " << rank + 1
       << ", \"order\": " << jstr(order_to_string(c.order))
       << ", \"character\": " << jstr(c.character.to_string())
       << ", \"score\": " << jnum(c.score)
       << ", \"lower_bound\": " << jnum(c.lower_bound)
       << ", \"class_size\": " << c.members.size() << "}";
    os << (rank + 1 < report.top.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (candidates) {
    os << ",\n  \"candidates\": [\n";
    for (std::size_t i = 0; i < report.candidates.size(); ++i) {
      write_candidate(os, report.candidates[i]);
      os << (i + 1 < report.candidates.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  os << "\n}\n";
}

}  // namespace mr::tune
