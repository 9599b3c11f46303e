// Enumeration-kernel scaling: the screening phase of a deep-hierarchy
// enumeration (classify all h! orders, then characterize every order) run
// with the closed-form fast kernels and with the brute-force reference
// kernels, serially and over the shared pool.
//
// The reference path pays O(s^2) per order for the pair scan and a
// map-of-placements for classification; the fast path is O(h^2) per order
// plus a hashed two-pass grouping. On the depth-7/8 machines below the
// difference is the gap between "screen in milliseconds" and "screen in
// tens of seconds". The bench verifies that all four combinations
// {fast, reference} x {serial, threaded} render byte-identical class
// lists, representatives and per-order characters, spot-checks
// nth_order_lexicographic against the materialised order list, and writes
// BENCH_enum.json so the speedup is tracked across PRs. Pass --quick for
// CI-sized comm sizes.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "mixradix/mr/equivalence.hpp"

namespace {

struct MachineCase {
  std::string name;
  mr::Hierarchy hierarchy;
  std::int64_t comm_size;
};

struct EnumRun {
  std::string csv;
  double classify_seconds = 0.0;
  double characterize_seconds = 0.0;
  mr::ClassifyStats stats;

  double total_seconds() const { return classify_seconds + characterize_seconds; }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// One full screening pass: classify the order space at the benchmarking
// granularity, then characterize every order, and render both to a
// deterministic CSV (the byte-identity witness).
EnumRun run_enumeration(const MachineCase& mc, const std::vector<mr::Order>& orders,
                        mr::MetricsImpl impl, int threads) {
  EnumRun run;
  mr::Engine engine;

  const auto classify_start = std::chrono::steady_clock::now();
  const auto classes =
      mr::classify_orders(engine, mc.hierarchy, mc.comm_size,
                          mr::Equivalence::SameSetsAndInternal, threads, impl,
                          &run.stats);
  run.classify_seconds = seconds_since(classify_start);

  const auto characterize_start = std::chrono::steady_clock::now();
  const auto characters =
      mr::characterize_orders(engine, mc.hierarchy, orders, mc.comm_size,
                              threads, impl);
  run.characterize_seconds = seconds_since(characterize_start);

  std::ostringstream csv;
  csv << "class;representative;members\n";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    csv << i << ";" << classes[i].representative.to_string() << ";";
    for (std::size_t m = 0; m < classes[i].members.size(); ++m) {
      csv << (m ? " " : "") << mr::order_to_string(classes[i].members[m]);
    }
    csv << "\n";
  }
  csv << "character\n";
  for (const auto& character : characters) {
    csv << character.to_string() << "\n";
  }
  run.csv = csv.str();
  return run;
}

// Spot-check the shardable unranking against the materialised list: a
// handful of evenly spaced indices plus the two endpoints.
bool unranking_matches(int depth, const std::vector<mr::Order>& orders) {
  const long long total = mr::factorial(depth);
  const long long step = total > 8 ? total / 8 : 1;
  for (long long index = 0; index < total; index += step) {
    if (mr::nth_order_lexicographic(depth, index) !=
        orders[static_cast<std::size_t>(index)]) {
      return false;
    }
  }
  return mr::nth_order_lexicographic(depth, total - 1) == orders.back();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::erase_if(args, [&](const std::string& arg) {
    if (arg == "--quick") quick = true;
    return arg == "--quick";
  });
  bench::Options opts;
  try {
    opts = bench::Options::parse_args(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << " (enum_scaling also accepts --quick)\n";
    return 2;
  }
  const int threads = opts.resolved_threads();

  // Depth 7 and 8: past the deepest paper machine (lumi, h=5), where the
  // reference kernels stop being viable as a screening step. --quick
  // shrinks the communicators (and with them the O(s^2) reference cost)
  // to CI scale; the identity checks are equally strict either way.
  const std::vector<MachineCase> cases = {
      {"deep7", mr::Hierarchy{4, 2, 2, 2, 2, 2, 8}, quick ? 64 : 128},
      {"deep8", mr::Hierarchy{2, 2, 2, 2, 2, 2, 2, 2}, quick ? 32 : 64},
  };

  bool all_identical = true;
  bool all_unranked = true;
  double min_speedup = 0.0;
  std::ostringstream machines_json;

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const MachineCase& mc = cases[ci];
    const auto orders = mr::all_orders_lexicographic(mc.hierarchy.depth());
    std::cout << "enum_scaling[" << mc.name << "]: hierarchy "
              << mc.hierarchy.to_string() << ", " << orders.size()
              << " orders, subcommunicators of " << mc.comm_size << "\n";

    const EnumRun ref_serial =
        run_enumeration(mc, orders, mr::MetricsImpl::Reference, 1);
    const EnumRun ref_threaded =
        run_enumeration(mc, orders, mr::MetricsImpl::Reference, threads);
    const EnumRun fast_serial =
        run_enumeration(mc, orders, mr::MetricsImpl::Fast, 1);
    const EnumRun fast_threaded =
        run_enumeration(mc, orders, mr::MetricsImpl::Fast, threads);

    const auto report = [](const char* label, const EnumRun& run) {
      std::cout << "  " << label << ": " << run.total_seconds()
                << " s (classify " << run.classify_seconds << " + characterize "
                << run.characterize_seconds << ")\n";
    };
    report("reference serial  ", ref_serial);
    report("reference threaded", ref_threaded);
    report("fast serial       ", fast_serial);
    report("fast threaded     ", fast_threaded);
    bench::print_kernel_counters(std::cout, mc.name + "-fast",
                                 fast_threaded.stats,
                                 fast_threaded.classify_seconds);

    const double speedup_serial =
        fast_serial.total_seconds() > 0
            ? ref_serial.total_seconds() / fast_serial.total_seconds()
            : 0.0;
    const double speedup_threaded =
        fast_threaded.total_seconds() > 0
            ? ref_threaded.total_seconds() / fast_threaded.total_seconds()
            : 0.0;
    const bool identical = ref_serial.csv == ref_threaded.csv &&
                           ref_serial.csv == fast_serial.csv &&
                           ref_serial.csv == fast_threaded.csv;
    const bool unranked = unranking_matches(mc.hierarchy.depth(), orders);
    std::cout << "  closed-form speedup: " << speedup_serial << "x serial, "
              << speedup_threaded << "x threaded\n"
              << "  output identical across {fast,reference} x {1," << threads
              << "} threads: "
              << (identical ? "yes" : "NO — KERNEL MISMATCH") << "\n"
              << "  unranking spot-check: " << (unranked ? "ok" : "MISMATCH")
              << "\n";

    all_identical = all_identical && identical;
    all_unranked = all_unranked && unranked;
    min_speedup =
        ci == 0 ? speedup_serial : std::min(min_speedup, speedup_serial);

    machines_json << "    {\n"
                  << "      \"name\": \"" << mc.name << "\",\n"
                  << "      \"orders\": " << orders.size() << ",\n"
                  << "      \"comm_size\": " << mc.comm_size << ",\n"
                  << "      \"classes\": " << fast_threaded.stats.classes
                  << ",\n"
                  << "      \"signatures_hashed\": "
                  << fast_threaded.stats.signatures_hashed << ",\n"
                  << "      \"hash_collisions\": "
                  << fast_threaded.stats.hash_collisions << ",\n"
                  << "      \"reference_serial_seconds\": "
                  << ref_serial.total_seconds() << ",\n"
                  << "      \"reference_threaded_seconds\": "
                  << ref_threaded.total_seconds() << ",\n"
                  << "      \"fast_serial_seconds\": "
                  << fast_serial.total_seconds() << ",\n"
                  << "      \"fast_threaded_seconds\": "
                  << fast_threaded.total_seconds() << ",\n"
                  << "      \"speedup_serial\": " << speedup_serial << ",\n"
                  << "      \"speedup_threaded\": " << speedup_threaded << "\n"
                  << "    }" << (ci + 1 < cases.size() ? "," : "") << "\n";

    if (!opts.csv_path.empty() && ci == 0) {
      std::ofstream csv(opts.csv_path);
      csv << fast_threaded.csv;
      std::cout << "  csv written to " << opts.csv_path << "\n";
    }
    std::cout << "\n";
  }

  std::ofstream json("BENCH_enum.json");
  json << "{\n"
       << "  \"bench\": \"enum_scaling\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"machines\": [\n"
       << machines_json.str() << "  ],\n"
       << "  \"min_speedup\": " << min_speedup << ",\n"
       << "  \"identical_output\": "
       << (all_identical && all_unranked ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "json written to BENCH_enum.json\n";

  return all_identical && all_unranked ? 0 : 1;
}
