// verify_cli: run the static schedule verifier from the command line — the
// tool a collective-algorithm author points at a generator while debugging.
//
//   $ ./verify_cli list
//   $ ./verify_cli check --algo allreduce_ring --p 8 --count 1000
//   $ ./verify_cli check --algo bcast_binomial --p 5 --root 3 --verbose 1
//   $ ./verify_cli matrix --ranks 2,3,4,8 --counts 1,1000
//   $ ./verify_cli topo --machine lumi:4
//   $ ./verify_cli topo --all 1
//   $ ./verify_cli bind --machine hydra:4 --algo alltoall_bruck --count 4096
//   $ ./verify_cli bind --all 1 --report congestion_report.txt
//
// Exit status is 0 iff every analyzed schedule is clean (no Error-level
// diagnostics), so the tool slots directly into CI; 1 when the analysis
// found a defect or failed, 2 on bad input (unknown flags, missing values,
// malformed numbers or machine specs), with a message naming the input.
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "mixradix/simmpi/plan.hpp"
#include "mixradix/simmpi/registry.hpp"
#include "mixradix/topo/presets.hpp"
#include "mixradix/util/expect.hpp"
#include "mixradix/verify/binding.hpp"
#include "mixradix/verify/generator_matrix.hpp"
#include "mixradix/verify/topo_check.hpp"
#include "mixradix/verify/verify.hpp"

namespace {

int usage() {
  std::cerr <<
      "usage: verify_cli <command> [flags]\n"
      "commands:\n"
      "  list    print every algorithm/composition in the generator matrix\n"
      "  check   generate one schedule and analyze it\n"
      "          --algo NAME (required)  --p P  --count C  --root R\n"
      "          --verbose 1 prints warnings/infos, not just errors\n"
      "  matrix  analyze the full generator matrix\n"
      "          --ranks P1,P2,...  --counts C1,C2,...\n"
      "  topo    lint a machine's topology invariants\n"
      "          --machine SPEC (testbox | hydra:N[:nics] | lumi:N |\n"
      "          hydra_node | lumi_node | generic:n:s:c) or --all 1\n"
      "  bind    static binding analysis: congestion + lower bound\n"
      "          --machine SPEC  --algo NAME  --p P  --count C  --root R\n"
      "          --reps N  --mapping packed|spread  --top K\n"
      "          --all 1 sweeps presets x registry; --report PATH saves\n"
      "          the full congestion report\n";
  return 2;
}

std::vector<mr::topo::Machine> preset_sweep() {
  return {mr::topo::testbox(), mr::topo::hydra(4), mr::topo::hydra(4, 2),
          mr::topo::lumi(2)};
}

/// The ranges every generator requires of --p, --count and --root,
/// checked before the library sees them.
void require_point(std::int32_t p, std::int64_t count, std::int32_t root) {
  cli::require(p >= 1, "--p", "be >= 1", std::to_string(p));
  cli::require(count >= 1, "--count", "be >= 1", std::to_string(count));
  cli::require(root >= 0 && root < p, "--root",
               "lie in 0.." + std::to_string(p - 1), std::to_string(root));
}

std::vector<std::int64_t> make_mapping(const std::string& kind,
                                       std::int32_t p, std::int64_t cores) {
  cli::require(p <= cores, "--p",
               "not exceed the machine's " + std::to_string(cores) + " cores",
               std::to_string(p));
  std::vector<std::int64_t> out(static_cast<std::size_t>(p));
  const std::int64_t stride = kind == "spread" ? cores / p : 1;
  for (std::int32_t r = 0; r < p; ++r) out[static_cast<std::size_t>(r)] = r * stride;
  return out;
}

void print_report(const mr::verify::Report& report, bool verbose) {
  for (const auto& d : report.diagnostics) {
    if (verbose || d.severity == mr::verify::Severity::Error) {
      std::cout << d.to_string() << "\n";
    }
  }
  std::cout << report.summary() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mr::verify;
  using cli::number;
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"list", {}},
      {"check", {"algo", "p", "count", "root", "verbose"}},
      {"matrix", {"ranks", "counts"}},
      {"topo", {"machine", "all"}},
      {"bind",
       {"machine", "algo", "p", "count", "root", "reps", "mapping", "top",
        "all", "report"}},
  };
  if (argc < 2) return usage();
  const std::string command = argv[1];

  try {
    const auto known = kFlags.find(command);
    if (known == kFlags.end()) {
      throw cli::InputError("unknown command " + command);
    }
    const cli::Flags flags(argc, argv, 2, known->second);
    if (command == "list") {
      for (const std::string& name : algorithm_names()) {
        std::cout << name << "\n";
      }
    } else if (command == "check") {
      const std::string algo = flags.get("algo", "");
      if (algo.empty()) throw cli::InputError("--algo is required");
      const auto p = number<std::int32_t>("--p", flags.get("p", "8"));
      const auto count =
          number<std::int64_t>("--count", flags.get("count", "1000"));
      const auto root = number<std::int32_t>("--root", flags.get("root", "0"));
      const bool verbose =
          number<int>("--verbose", flags.get("verbose", "0")) != 0;
      require_point(p, count, root);
      const auto schedule = make_named(algo, p, count, root);
      Options options;
      options.report_inputs = verbose;
      const Report report = analyze(schedule, options);
      std::cout << algo << " p=" << p << " count=" << count << ": ";
      print_report(report, verbose);
      return report.clean() ? 0 : 1;
    } else if (command == "matrix") {
      const auto ranks = cli::number_list<std::int32_t>(
          "--ranks", flags.get("ranks", "2,3,4,8"));
      const auto counts = cli::number_list<std::int64_t>(
          "--counts", flags.get("counts", "1,1000"));
      std::size_t failed = 0;
      const auto points = generator_matrix(ranks, counts);
      for (const MatrixPoint& point : points) {
        const Report report = analyze(point.make());
        if (!report.clean()) {
          ++failed;
          std::cout << point.name << ": FAIL\n";
          print_report(report, false);
        }
      }
      std::cout << points.size() - failed << "/" << points.size()
                << " schedules verified clean\n";
      return failed == 0 ? 0 : 1;
    } else if (command == "topo") {
      std::vector<mr::topo::Machine> machines;
      if (number<int>("--all", flags.get("all", "0")) != 0) {
        machines = preset_sweep();
      } else {
        machines.push_back(
            cli::parse_machine(flags.get("machine", "testbox")));
      }
      std::size_t failed = 0;
      for (const auto& m : machines) {
        const TopoReport report = analyze(m);
        for (const auto& d : report.diagnostics) {
          std::cout << d.to_string() << "\n";
        }
        std::cout << report.machine << ": " << report.summary() << "\n";
        if (!report.clean()) ++failed;
      }
      std::cout << machines.size() - failed << "/" << machines.size()
                << " machines verified clean\n";
      return failed == 0 ? 0 : 1;
    } else if (command == "bind") {
      const auto count =
          number<std::int64_t>("--count", flags.get("count", "4096"));
      const auto root = number<std::int32_t>("--root", flags.get("root", "0"));
      const int reps = number<int>("--reps", flags.get("reps", "1"));
      cli::require(reps >= 1, "--reps", "be >= 1", std::to_string(reps));
      const std::string mapping = flags.get("mapping", "packed");
      if (mapping != "packed" && mapping != "spread") {
        throw cli::InputError("--mapping must be 'packed' or 'spread'");
      }
      binding::Options options;
      options.top_k = number<int>("--top", flags.get("top", "8"));
      cli::require(options.top_k >= 0, "--top", "be >= 0",
                   std::to_string(options.top_k));
      const std::string report_path = flags.get("report", "");
      std::ofstream report_file;
      if (!report_path.empty()) {
        report_file.open(report_path);
        MR_EXPECT(report_file.good(), "cannot open " + report_path);
      }
      const auto analyze_point = [&](const mr::topo::Machine& m,
                                     const std::string& algo,
                                     std::int32_t p) {
        const auto plan = mr::simmpi::compile_plan(algo, p, count, root, reps);
        const auto cores = make_mapping(mapping, p, m.cores());
        const auto result = binding::analyze(plan, m, cores, options);
        std::cout << m.name() << " x " << algo << " p=" << p
                  << " count=" << count << ": "
                  << (result.clean() ? "clean" : "DIRTY") << ", lower bound "
                  << result.bound.lower_bound << " s\n";
        if (report_file.is_open()) {
          report_file << "=== " << m.name() << " x " << algo << " p=" << p
                      << " count=" << count << " ===\n"
                      << result.to_string() << "\n";
        }
        return result.clean();
      };
      std::size_t failed = 0;
      std::size_t analyzed = 0;
      if (number<int>("--all", flags.get("all", "0")) != 0) {
        const auto p = number<std::int32_t>("--p", flags.get("p", "8"));
        require_point(p, count, root);
        for (const auto& m : preset_sweep()) {
          for (const auto& info : mr::simmpi::algorithm_registry()) {
            if (!info.supported(p)) continue;
            ++analyzed;
            if (!analyze_point(m, info.name, p)) ++failed;
          }
        }
      } else {
        const std::string algo = flags.get("algo", "");
        if (algo.empty()) throw cli::InputError("--algo is required");
        const auto m = cli::parse_machine(flags.get("machine", "testbox"));
        const auto p = number<std::int32_t>(
            "--p", flags.get("p", std::to_string(m.cores())));
        require_point(p, count, root);
        ++analyzed;
        const auto plan = mr::simmpi::compile_plan(algo, p, count, root, reps);
        const auto cores = make_mapping(mapping, p, m.cores());
        const auto result = binding::analyze(plan, m, cores, options);
        std::cout << result.to_string();
        if (!result.clean()) ++failed;
        if (report_file.is_open()) report_file << result.to_string();
      }
      std::cout << analyzed - failed << "/" << analyzed
                << " bindings verified clean\n";
      return failed == 0 ? 0 : 1;
    }
  } catch (const cli::InputError& e) {
    std::cerr << "verify_cli: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
