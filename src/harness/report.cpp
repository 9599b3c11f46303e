#include <algorithm>
#include <iomanip>
#include <ostream>

#include "mixradix/harness/microbench.hpp"
#include "mixradix/util/csv.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/util/strings.hpp"

namespace mr::harness {

namespace {

void print_block(std::ostream& os, const std::string& scenario,
                 const std::vector<SweepSeries>& block) {
  if (block.empty()) return;
  // 14 columns fit labels up to depth 7 ("0-1-2-3-4-5-6"); deeper orders
  // widen every column to keep one space before the longest label.
  int width = 14;
  for (const auto& series : block) {
    width = std::max(
        width,
        static_cast<int>(order_to_string(series.character.order).size()) + 1);
  }
  os << "\n-- " << scenario << " --\n";
  os << std::left << std::setw(10) << "size";
  for (const auto& series : block) {
    os << std::right << std::setw(width)
       << order_to_string(series.character.order);
  }
  os << "\n";
  const auto& sizes = block.front().sizes;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    os << std::left << std::setw(10)
       << util::format_bytes(static_cast<std::uint64_t>(sizes[i]));
    for (const auto& series : block) {
      MR_EXPECT(series.sizes == sizes, "series have mismatched size axes");
      os << std::right << std::setw(width)
         << util::format_fixed(series.results[i].mean_bandwidth / 1e6, 1);
    }
    os << "\n";
  }
}

}  // namespace

void print_figure(std::ostream& os, const std::string& title,
                  const std::vector<SweepSeries>& single,
                  const std::vector<SweepSeries>& simultaneous) {
  os << "== " << title << " ==\n";
  os << "legend (order (ring cost - % of process pairs per level)):\n";
  // Every plotted order once: with --tune=K the two blocks plot the top K
  // of their own workloads, which need not be the same orders.
  std::vector<Order> listed;
  for (const auto* block : {&single, &simultaneous}) {
    for (const auto& series : *block) {
      const Order& order = series.character.order;
      if (std::find(listed.begin(), listed.end(), order) != listed.end()) {
        continue;
      }
      listed.push_back(order);
      os << "  " << series.character.to_string();
      if (!series.results.empty() &&
          !series.results.front().algorithm.empty()) {
        os << "   [" << series.results.front().algorithm << " -> "
           << series.results.back().algorithm << "]";
      }
      os << "\n";
    }
  }
  os << "bandwidth in MB/s:\n";
  print_block(os, "1 simultaneous comm.", single);
  print_block(os, "all simultaneous comms.", simultaneous);
  os << "\n";
}

void write_figure_csv(std::ostream& os, const std::string& figure,
                      const std::vector<SweepSeries>& single,
                      const std::vector<SweepSeries>& simultaneous) {
  util::CsvWriter csv(os, {"figure", "scenario", "order", "ring_cost", "size_bytes",
                           "bandwidth_mbs", "bw_p10_mbs", "bw_p90_mbs",
                           "seconds_per_op", "algorithm"});
  const auto emit = [&](const char* scenario, const std::vector<SweepSeries>& block) {
    for (const auto& series : block) {
      for (std::size_t i = 0; i < series.sizes.size(); ++i) {
        const auto& r = series.results[i];
        csv.row_of(figure, scenario, order_to_string(series.character.order),
                   series.character.ring_cost, series.sizes[i],
                   r.mean_bandwidth / 1e6, r.bw_p10 / 1e6, r.bw_p90 / 1e6,
                   r.mean_seconds_per_op, r.algorithm);
      }
    }
  };
  emit("single", single);
  emit("simultaneous", simultaneous);
}

}  // namespace mr::harness
