#include "trace.hpp"

#include <cstdio>
#include <iomanip>

namespace perfbench {

std::string Span::layer() const {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::begin_query(const std::string& name) {
  Span span;
  span.name = name;
  span.query = next_query_++;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

int Tracer::begin(const std::string& name) {
  if (open_.empty()) return -1;
  Span span;
  span.name = name;
  span.parent = open_.back();
  span.query = spans_[static_cast<std::size_t>(span.parent)].query;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order; an exception unwinding several Scoped
  // objects closes them innermost first, so popping to `index` is exact.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << "  {\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer()
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.query
       << ", \"ts\": " << buf << ", \"args\": {\"span\": " << i
       << ", \"parent\": " << s.parent << ", \"query\": " << s.query << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

double LayerTimes::layers_total() const {
  double total = 0;
  for (const auto& [layer, seconds] : self_seconds) total += seconds;
  return total;
}

LayerTimes layer_times(const std::vector<Span>& spans, int root) {
  LayerTimes out;
  if (root < 0) return out;
  const int query = spans[static_cast<std::size_t>(root)].query;
  std::vector<double> child_seconds(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].query == query && spans[i].parent >= 0) {
      child_seconds[static_cast<std::size_t>(spans[i].parent)] +=
          spans[i].seconds();
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.query != query) continue;
    const double self = s.seconds() - child_seconds[i];
    if (static_cast<int>(i) == root) {
      out.query_seconds = s.seconds();
      out.unaccounted = self;
      continue;
    }
    out.self_seconds[s.layer()] += self;
    out.call_seconds[s.name] += s.seconds();
  }
  return out;
}

void print_share_table(std::ostream& os, const std::string& title,
                       const LayerTimes& times) {
  const double q = times.query_seconds > 0 ? times.query_seconds : 1.0;
  const std::ios::fmtflags flags = os.flags();
  const std::streamsize precision = os.precision();
  os << "layer shares: " << title << " (serial traced query "
     << std::fixed << std::setprecision(4) << times.query_seconds << " s)\n";
  os << "  " << std::left << std::setw(14) << "layer" << std::right
     << std::setw(12) << "self_s" << std::setw(10) << "share" << "\n";
  const auto row = [&](const std::string& name, double seconds) {
    os << "  " << std::left << std::setw(14) << name << std::right
       << std::setw(12) << std::setprecision(4) << seconds << std::setw(9)
       << std::setprecision(1) << 100.0 * seconds / q << "%\n";
  };
  for (const auto& [layer, seconds] : times.self_seconds) row(layer, seconds);
  row("(unaccounted)", times.unaccounted);
  os.flags(flags);
  os.precision(precision);
}

}  // namespace perfbench
