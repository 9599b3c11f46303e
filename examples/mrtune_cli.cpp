// mrtune: the mapping autotuner from the command line — "which enumeration
// orders should my job script use on this machine for this workload?"
//
//   $ ./mrtune --machine lumi:2 --size 256 --collective alltoall --k 5
//   $ ./mrtune --machine hydra:4 --size 16 --collective allgather,allreduce
//              --bytes 1048576,8388608 --json 1
//   $ ./mrtune --machine testbox --size 4 --concurrency single --k 2
//   $ ./mrtune --machine lumi:2 --size 32 --budget-points 40 --k 3
//
// Prints the top-k orders with their §3.3 metric tuples, simulated scores
// and funnel provenance; --json 1 emits the canonical machine-readable
// report instead (byte-identical across runs and thread counts when the
// budget is a point budget or absent). Unknown flags and malformed values
// exit with status 2 and a message naming the offending input.
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "mixradix/engine/engine.hpp"
#include "mixradix/tune/report.hpp"
#include "mixradix/tune/search.hpp"
#include "mixradix/util/strings.hpp"

namespace {

void usage() {
  std::cerr <<
      "usage: mrtune [flags]\n"
      "  --machine SPEC      testbox | hydra:N[:nics] | hydra_node |\n"
      "                      lumi:N | lumi_node | generic:n:s:c\n"
      "  --size S[,S...]     communicator sizes (default: machine cores)\n"
      "  --collective C[,C]  alltoall (default), allgather, allreduce,\n"
      "                      bcast, reduce, reduce_scatter, gather,\n"
      "                      scatter, scan, barrier\n"
      "  --bytes B[,B...]    total payload per point (default 8388608)\n"
      "  --concurrency MODE  all (default) | single subcommunicator\n"
      "  --k K               orders to return (default 3)\n"
      "  --reps N            repetitions per point (default 2)\n"
      "  --threads N         0 = default pool width, 1 = serial\n"
      "  --slack S           completion slack (default 0 = exact)\n"
      "  --budget-points N   stop after N point simulations (anytime;\n"
      "                      0 = unlimited, else >= the query's points)\n"
      "  --budget-seconds S  wall-clock cap (non-deterministic)\n"
      "  --json 1            canonical JSON report on stdout (cache and\n"
      "                      stage-2 stats go to stderr)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mr;
  using cli::number;
  using cli::number_list;
  static const std::set<std::string> kFlags = {
      "machine", "size",          "collective",     "bytes",
      "concurrency", "k",         "reps",           "threads",
      "slack",   "budget-points", "budget-seconds", "json"};
  std::optional<topo::Machine> machine;
  tune::TuneQuery query;
  bool json = false;
  try {
    const cli::Flags flags(argc, argv, 1, kFlags);
    machine.emplace(cli::parse_machine(flags.get("machine", "testbox")));
    query.collectives.clear();
    for (const std::string& name :
         util::split(flags.get("collective", "alltoall"), ',')) {
      query.collectives.push_back(tune::parse_collective(name));
    }
    query.comm_sizes = number_list<std::int64_t>(
        "--size", flags.get("size", std::to_string(machine->cores())));
    query.total_bytes =
        number_list<std::int64_t>("--bytes", flags.get("bytes", "8388608"));
    const std::string mode = flags.get("concurrency", "all");
    if (mode != "all" && mode != "single") {
      throw cli::InputError("--concurrency must be 'all' or 'single'");
    }
    query.concurrency = mode == "all" ? tune::Concurrency::AllComms
                                      : tune::Concurrency::SingleComm;
    query.k = number<int>("--k", flags.get("k", "3"));
    query.repetitions = number<int>("--reps", flags.get("reps", "2"));
    query.threads = number<int>("--threads", flags.get("threads", "0"));
    query.completion_slack =
        number<double>("--slack", flags.get("slack", "0"));
    query.budget.max_points = number<std::int64_t>(
        "--budget-points", flags.get("budget-points", "0"));
    query.budget.max_seconds =
        number<double>("--budget-seconds", flags.get("budget-seconds", "0"));
    json = number<int>("--json", flags.get("json", "0")) != 0;
    // The ranges tune::tune requires, checked here so a bad value is
    // reported as bad input naming its flag.
    const std::int64_t cores = machine->cores();
    for (const std::int64_t size : query.comm_sizes) {
      cli::require(size >= 2 && cores % size == 0, "--size",
                   "be >= 2 and divide the machine's " +
                       std::to_string(cores) + " cores",
                   std::to_string(size));
    }
    for (const std::int64_t bytes : query.total_bytes) {
      cli::require(bytes >= 1, "--bytes", "be >= 1", std::to_string(bytes));
    }
    cli::require(query.k >= 1, "--k", "be >= 1", std::to_string(query.k));
    cli::require(query.repetitions >= 1, "--reps", "be >= 1",
                 std::to_string(query.repetitions));
    cli::require(query.threads >= 0, "--threads", "be >= 0",
                 std::to_string(query.threads));
    cli::require(query.completion_slack >= 0, "--slack", "be >= 0",
                 flags.get("slack", "0"));
    // A candidate runs only when all its points fit the budget.
    const auto points = static_cast<std::int64_t>(
        query.collectives.size() * query.comm_sizes.size() *
        query.total_bytes.size());
    cli::require(query.budget.max_points <= 0 ||
                     query.budget.max_points >= points,
                 "--budget-points",
                 "be 0 (unlimited) or at least the query's " +
                     std::to_string(points) + " points",
                 std::to_string(query.budget.max_points));
  } catch (const std::exception& e) {
    std::cerr << "mrtune_cli: " << e.what() << "\n";
    usage();
    return 2;
  }

  try {
    Engine engine;
    const tune::TuneReport report = tune::tune(engine, *machine, query);
    const simmpi::PlanCache::Stats stats = engine.plan_cache().stats();
    // Plan-cache statistics; in --json mode they go to stderr, with the
    // stage-2 line the text report carries, so stdout stays the canonical
    // document.
    std::ostringstream cache_line;
    cache_line << "plan cache: " << stats.hits << " hits, " << stats.misses
               << " misses, " << stats.entries << " entries\n";
    if (json) {
      tune::write_json(std::cout, report, /*candidates=*/false);
      std::cerr << cache_line.str() << "stage 2: "
                << tune::stage2_summary(report.stats) << "\n";
    } else {
      std::cout << tune::to_string(report) << cache_line.str();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
