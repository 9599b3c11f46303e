// Topology lint tests: every preset must come back clean, and every
// seeded mutation of a constructed Machine the constructor accepts (an
// inverted taper, a preset impostor) must be flagged with a located
// diagnostic of the right check category. Specs the constructor rejects
// are tested with the Machine (test_topo.cpp).
#include "mixradix/verify/topo_check.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mixradix/topo/presets.hpp"

namespace mr::verify {
namespace {

std::vector<topo::LevelSpec> testbox_levels() {
  return topo::testbox().levels();
}

bool has_diagnostic(const TopoReport& report, Severity severity,
                    TopoCheck check, int level) {
  for (const auto& d : report.diagnostics) {
    if (d.severity == severity && d.check == check && d.level == level) {
      return true;
    }
  }
  return false;
}

TEST(TopoCheck, AllPresetsClean) {
  const topo::Machine machines[] = {
      topo::testbox(),        topo::hydra(4),  topo::hydra(4, 2),
      topo::hydra_node(),     topo::lumi(2),   topo::lumi_node(),
      topo::generic(4, 2, 8),
  };
  for (const auto& m : machines) {
    const TopoReport report = analyze(m);
    EXPECT_TRUE(report.clean()) << m.name() << ":\n" << report.to_string();
    EXPECT_EQ(report.count(Severity::Warning), 0u)
        << m.name() << ":\n" << report.to_string();
    EXPECT_EQ(report.machine, m.name());
  }
}

TEST(TopoCheck, InvertedTaperIsWarning) {
  // testbox: node 1 GB/s, socket 2 GB/s, core 4 GB/s — aggregate grows
  // inward. Crushing the core bandwidth inverts the taper at level 2.
  auto levels = testbox_levels();
  levels[2].link_bandwidth = 1e8;
  const TopoReport r = analyze(topo::Machine("mutant", levels));
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_TRUE(has_diagnostic(r, Severity::Warning, TopoCheck::Taper, 2))
      << r.to_string();
}

TEST(TopoCheck, PresetShapeViolationIsFlagged) {
  // A machine that *claims* to be hydra but carries testbox levels.
  const topo::Machine impostor("hydra", testbox_levels());
  const TopoReport r = analyze(impostor);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(has_diagnostic(r, Severity::Error, TopoCheck::Preset, -1))
      << r.to_string();
}

TEST(TopoCheck, PresetLevelRenameIsLocated) {
  auto levels = topo::testbox().levels();
  levels[1].name = "sokcet";
  const topo::Machine impostor("testbox", levels, topo::testbox().costs());
  const TopoReport r = analyze(impostor);
  EXPECT_TRUE(has_diagnostic(r, Severity::Error, TopoCheck::Preset, 1))
      << r.to_string();
}

TEST(TopoCheck, TestboxNonZeroCostsViolateContract) {
  // testbox's analytic-prediction contract: zero per-message costs.
  topo::MessagingCosts costs;  // defaults are non-zero
  const topo::Machine impostor("testbox", topo::testbox().levels(), costs);
  const TopoReport r = analyze(impostor);
  EXPECT_TRUE(has_diagnostic(r, Severity::Error, TopoCheck::Preset, -1))
      << r.to_string();
  // The same machine under another name is fine.
  const topo::Machine renamed("mybox", topo::testbox().levels(), costs);
  EXPECT_TRUE(analyze(renamed).clean());
}

TEST(TopoCheck, WithNodesAndNicScaleVariantsStayClean) {
  EXPECT_TRUE(analyze(topo::hydra(2).with_nodes(16)).clean());
  EXPECT_TRUE(analyze(topo::lumi(2).with_nodes(8)).clean());
  // with_nic_scale retouches the level-0 bandwidth; the taper check must
  // still pass for the documented 2-NIC configuration.
  EXPECT_TRUE(analyze(topo::hydra(4).with_nic_scale(2.0)).clean());
}

TEST(TopoCheck, DiagnosticFormatting) {
  auto levels = testbox_levels();
  levels[1].name = "sokcet";
  const TopoReport r =
      analyze(topo::Machine("testbox", levels, topo::testbox().costs()));
  ASSERT_FALSE(r.diagnostics.empty());
  const std::string line = r.diagnostics.front().to_string();
  EXPECT_NE(line.find("error[preset]"), std::string::npos) << line;
  EXPECT_NE(line.find("level 1"), std::string::npos) << line;
  EXPECT_NE(r.summary().find("1 errors"), std::string::npos) << r.summary();
}

TEST(TopoCheck, LatencySymmetryHoldsOnLargeMachines) {
  EXPECT_TRUE(analyze(topo::lumi(16)).clean());
}

}  // namespace
}  // namespace mr::verify
