// Strict parsing shared by the example CLIs (examples/cli_common.hpp).
#include "examples/cli_common.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mixradix/topo/presets.hpp"

namespace cli {
namespace {

// The InputError message for `fn()`, or "" if it did not throw one.
template <typename Fn>
std::string input_error(Fn&& fn) {
  try {
    fn();
  } catch (const InputError& e) {
    return e.what();
  }
  return "";
}

// Flags over `args` as if they followed the program name.
Flags flags_of(std::vector<std::string> args,
               const std::set<std::string>& known) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 1, known);
}

TEST(CliNumber, AcceptsOnlyTheWholeText) {
  EXPECT_EQ(number<int>("--k", "42"), 42);
  EXPECT_EQ(number<int>("--k", "-3"), -3);
  EXPECT_EQ(number<std::int64_t>("--bytes", "8589934592"), 8589934592LL);
  for (const char* bad : {"10x", "", " 4", "4 ", "+4", "0x10", "4.0"}) {
    EXPECT_EQ(input_error([&] { (void)number<int>("--k", bad); }),
              "malformed number '" + std::string(bad) + "' in --k")
        << bad;
  }
}

TEST(CliNumber, RejectsValuesOutsideTheType) {
  EXPECT_EQ(input_error([] { (void)number<int>("--p", "99999999999"); }),
            "malformed number '99999999999' in --p");
  EXPECT_EQ(input_error([] { (void)number<std::size_t>("--k", "-1"); }),
            "malformed number '-1' in --k");
}

TEST(CliNumber, ListSplitsOnCommasAndNamesTheBadItem) {
  EXPECT_EQ(number_list<int>("--counts", "1,64,4096"),
            (std::vector<int>{1, 64, 4096}));
  EXPECT_EQ(number_list<int>("--counts", "7"), (std::vector<int>{7}));
  EXPECT_EQ(input_error([] { (void)number_list<int>("--counts", "1,6x"); }),
            "malformed number '6x' in --counts");
  EXPECT_EQ(input_error([] { (void)number_list<int>("--counts", "1,,2"); }),
            "malformed number '' in --counts");
}

TEST(CliFlags, ReadsNameValuePairsWithFallbacks) {
  const Flags flags =
      flags_of({"--machine", "lumi:2", "--k", "3", "--k", "5"},
               {"machine", "k", "size"});
  EXPECT_EQ(flags.get("machine", "testbox"), "lumi:2");
  EXPECT_EQ(flags.get("k", "1"), "5");  // the last value wins.
  EXPECT_EQ(flags.get("size", "16"), "16");
}

TEST(CliFlags, RejectsUnknownFlagsStrayWordsAndMissingValues) {
  const std::set<std::string> known{"machine", "all"};
  EXPECT_EQ(input_error([&] { flags_of({"--mahcine", "lumi:2"}, known); }),
            "unknown flag --mahcine");
  EXPECT_EQ(input_error([&] { flags_of({"machine", "lumi:2"}, known); }),
            "unknown flag machine");
  EXPECT_EQ(input_error([&] { flags_of({"-machine", "lumi:2"}, known); }),
            "unknown flag -machine");
  EXPECT_EQ(input_error([&] { flags_of({"--all", "1", "--machine"}, known); }),
            "missing value for --machine");
}

TEST(CliMachine, BuildsEveryPreset) {
  const auto same = [](const mr::topo::Machine& parsed,
                       const mr::topo::Machine& preset) {
    return parsed.describe() == preset.describe();
  };
  EXPECT_TRUE(same(parse_machine("testbox"), mr::topo::testbox()));
  EXPECT_TRUE(same(parse_machine("hydra"), mr::topo::hydra(4)));
  EXPECT_TRUE(same(parse_machine("hydra:16"), mr::topo::hydra(16)));
  EXPECT_TRUE(same(parse_machine("hydra:2:2"), mr::topo::hydra(2, 2)));
  EXPECT_TRUE(same(parse_machine("hydra_node:2"), mr::topo::hydra_node(2)));
  EXPECT_TRUE(same(parse_machine("lumi:3"), mr::topo::lumi(3)));
  EXPECT_TRUE(same(parse_machine("lumi_node"), mr::topo::lumi_node()));
  EXPECT_TRUE(
      same(parse_machine("generic:2:4:8"), mr::topo::generic(2, 4, 8)));
  // Omitted trailing fields take the preset's defaults.
  EXPECT_TRUE(same(parse_machine("hydra_node"), mr::topo::hydra_node()));
  EXPECT_TRUE(same(parse_machine("lumi"), mr::topo::lumi(2)));
  EXPECT_TRUE(same(parse_machine("generic"), mr::topo::generic(2, 2, 8)));
  EXPECT_TRUE(same(parse_machine("generic:3"), mr::topo::generic(3, 2, 8)));
  EXPECT_FALSE(same(parse_machine("hydra:2:2"), mr::topo::hydra(2)));
}

TEST(CliMachine, RejectsMalformedAndUnknownSpecs) {
  EXPECT_EQ(input_error([] { (void)parse_machine("hydra:4x"); }),
            "malformed number '4x' in --machine hydra:4x");
  EXPECT_EQ(input_error([] { (void)parse_machine("hydra:"); }),
            "malformed number '' in --machine hydra:");
  EXPECT_EQ(input_error([] { (void)parse_machine("generic:2:x:8"); }),
            "malformed number 'x' in --machine generic:2:x:8");
  EXPECT_EQ(input_error([] { (void)parse_machine("hydar:4"); }),
            "unknown machine spec 'hydar:4'");
  EXPECT_EQ(input_error([] { (void)parse_machine(""); }),
            "unknown machine spec ''");
}

TEST(CliMachine, RejectsSurplusFieldsAndOutOfRangeValues) {
  EXPECT_EQ(input_error([] { (void)parse_machine("hydra:4:1:9"); }),
            "too many fields in --machine hydra:4:1:9 (hydra takes at most 2)");
  EXPECT_EQ(input_error([] { (void)parse_machine("lumi:2:3:4:5"); }),
            "too many fields in --machine lumi:2:3:4:5 (lumi takes at most 1)");
  EXPECT_EQ(input_error([] { (void)parse_machine("testbox:1"); }),
            "too many fields in --machine testbox:1 (testbox takes at most 0)");
  // The preset's own precondition surfaces as input naming the spec, with
  // no library source location.
  EXPECT_EQ(input_error([] { (void)parse_machine("hydra:0"); }),
            "out-of-range value in --machine hydra:0");
  EXPECT_EQ(input_error([] { (void)parse_machine("generic:2:0:8"); }),
            "out-of-range value in --machine generic:2:0:8");
}

// Args over `args` as if they followed the program name.
Args args_of(std::vector<std::string> args,
             std::vector<std::string> names) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Args(static_cast<int>(argv.size()), argv.data(), std::move(names));
}

TEST(CliArgs, ReadsPositionalsStrictlyWithFallbacks) {
  const Args args = args_of({"16", "1x"}, {"comm_size", "total_kb", "mode"});
  EXPECT_EQ(args.number<std::int64_t>(0, 8), 16);
  EXPECT_EQ(args.get(2, "fast"), "fast");
  EXPECT_EQ(args.number<int>(2, 7), 7);
  EXPECT_EQ(input_error([&] { (void)args.number<std::int64_t>(1, 1024); }),
            "malformed number '1x' in total_kb");
  EXPECT_EQ(input_error([] { args_of({"16", "2", "x"}, {"a", "b"}); }),
            "unexpected argument 'x'");
}

}  // namespace
}  // namespace cli
