#include "src/control/sweep.h"

#include <gtest/gtest.h>

#include <cmath>

namespace llama::control {
namespace {

using common::PowerDbm;
using common::Voltage;

/// Synthetic plant: a smooth power landscape with one global optimum.
PowerProbe gaussian_peak(double vx_star, double vy_star, double width = 8.0) {
  return [=](Voltage vx, Voltage vy) {
    const double dx = vx.value() - vx_star;
    const double dy = vy.value() - vy_star;
    return PowerDbm{-30.0 - (dx * dx + dy * dy) / (width * width) * 10.0};
  };
}

GridPowerProbe peak_grid(double vx_star, double vy_star, double width = 8.0) {
  return grid_of(gaussian_peak(vx_star, vy_star, width));
}

/// A plane whose every cell reads `dbm`.
GridPowerProbe flat_grid(double dbm) {
  return grid_of([dbm](Voltage, Voltage) { return PowerDbm{dbm}; });
}

TEST(CoarseToFineSweep, FindsThePeakWithPaperParameters) {
  PowerSupply psu;
  // Paper: N = 2, T = 5.
  CoarseToFineSweep sweep{psu, {}};
  const SweepResult r = sweep.run(peak_grid(18.0, 6.0));
  EXPECT_NEAR(r.best_vx.value(), 18.0, 3.0);
  EXPECT_NEAR(r.best_vy.value(), 6.0, 3.0);
}

TEST(CoarseToFineSweep, ProbeCountIsNTimesTSquared) {
  PowerSupply psu;
  CoarseToFineSweep::Options opt;
  opt.iterations = 2;
  opt.steps_per_axis = 5;
  CoarseToFineSweep sweep{psu, opt};
  const SweepResult r = sweep.run(peak_grid(15.0, 15.0));
  EXPECT_EQ(r.probes, 2 * 5 * 5);
}

TEST(CoarseToFineSweep, TimeCostMatchesPaperFormula) {
  // Paper Section 3.3: time cost is 0.02 x N x T^2 seconds.
  PowerSupply psu;
  CoarseToFineSweep::Options opt;
  opt.iterations = 2;
  opt.steps_per_axis = 5;
  CoarseToFineSweep sweep{psu, opt};
  const SweepResult r = sweep.run(peak_grid(10.0, 20.0));
  EXPECT_NEAR(r.time_cost_s, 0.02 * 2 * 5 * 5, 1e-9);
}

TEST(CoarseToFineSweep, MuchFasterThanFullScan) {
  PowerSupply psu_fast;
  PowerSupply psu_slow;
  CoarseToFineSweep fast{psu_fast, {}};
  FullGridSweep slow{psu_slow, {}};
  (void)fast.run(peak_grid(12.0, 3.0));
  (void)slow.run(peak_grid(12.0, 3.0));
  EXPECT_LT(psu_fast.elapsed_s() * 10.0, psu_slow.elapsed_s());
}

TEST(CoarseToFineSweep, SecondIterationRefines) {
  PowerSupply psu1;
  PowerSupply psu2;
  CoarseToFineSweep::Options one;
  one.iterations = 1;
  CoarseToFineSweep::Options two;
  two.iterations = 2;
  const SweepResult r1 = CoarseToFineSweep{psu1, one}.run(
      peak_grid(17.3, 7.7, /*width=*/4.0));
  const SweepResult r2 = CoarseToFineSweep{psu2, two}.run(
      peak_grid(17.3, 7.7, /*width=*/4.0));
  EXPECT_GE(r2.best_power.value(), r1.best_power.value() - 1e-12);
}

TEST(CoarseToFineSweep, TraceRecordsEveryProbe) {
  PowerSupply psu;
  CoarseToFineSweep sweep{psu, {}};
  const SweepResult r = sweep.run(peak_grid(5.0, 5.0));
  EXPECT_EQ(static_cast<int>(sweep.trace().size()), r.probes);
}

TEST(CoarseToFineSweep, StaysWithinVoltageRange) {
  PowerSupply psu;
  CoarseToFineSweep::Options opt;
  opt.v_min = Voltage{0.0};
  opt.v_max = Voltage{30.0};
  CoarseToFineSweep sweep{psu, opt};
  // Peak outside the allowed window: the sweep must still stay inside.
  (void)sweep.run(peak_grid(40.0, -5.0));
  for (const SweepSample& s : sweep.trace()) {
    EXPECT_GE(s.vx.value(), 0.0);
    EXPECT_LE(s.vx.value(), 30.0);
    EXPECT_GE(s.vy.value(), 0.0);
    EXPECT_LE(s.vy.value(), 30.0);
  }
}

TEST(CoarseToFineSweep, AllFloorProbesStillReportAProbedBias) {
  // Regression: best_x/best_y used to start at the window corner (x_lo,
  // y_lo), which the i,j in [1,T] grid never probes. A plane whose every
  // probe reads at/below the old -1e9 dBm sentinel then reported an
  // unprobed bias pair and the sentinel power.
  PowerSupply psu;
  CoarseToFineSweep sweep{psu, {}};
  const SweepResult r = sweep.run(flat_grid(-2e9));
  EXPECT_DOUBLE_EQ(r.best_power.value(), -2e9);
  bool probed = false;
  for (const SweepSample& s : sweep.trace())
    if (s.vx.value() == r.best_vx.value() &&
        s.vy.value() == r.best_vy.value())
      probed = true;
  EXPECT_TRUE(probed) << "best (" << r.best_vx.value() << ", "
                      << r.best_vy.value() << ") V was never probed";
  // The corner (v_min, v_min) is not a grid point with default options.
  EXPECT_NE(r.best_vx.value(), 0.0);
  EXPECT_NE(r.best_vy.value(), 0.0);
}

TEST(CoarseToFineSweep, RejectsBadOptions) {
  PowerSupply psu;
  CoarseToFineSweep::Options bad;
  bad.iterations = 0;
  EXPECT_THROW(CoarseToFineSweep(psu, bad), std::invalid_argument);
  bad.iterations = 2;
  bad.steps_per_axis = 1;
  EXPECT_THROW(CoarseToFineSweep(psu, bad), std::invalid_argument);
  bad.steps_per_axis = 5;
  bad.v_max = Voltage{0.0};
  EXPECT_THROW(CoarseToFineSweep(psu, bad), std::invalid_argument);
}

TEST(FullGridSweep, GridDimensionsMatchRangeAndStep) {
  PowerSupply psu;
  FullGridSweep::Options opt;
  opt.v_min = Voltage{0.0};
  opt.v_max = Voltage{30.0};
  opt.step = Voltage{5.0};
  FullGridSweep sweep{psu, opt};
  (void)sweep.run(peak_grid(10.0, 10.0));
  EXPECT_EQ(sweep.vx_values().size(), 7u);
  EXPECT_EQ(sweep.vy_values().size(), 7u);
  EXPECT_EQ(sweep.grid_dbm().size(), 7u);
  EXPECT_EQ(sweep.grid_dbm()[0].size(), 7u);
}

TEST(FullGridSweep, FindsExactGridOptimum) {
  PowerSupply psu;
  FullGridSweep::Options opt;
  opt.step = Voltage{1.0};
  FullGridSweep sweep{psu, opt};
  const SweepResult r = sweep.run(peak_grid(22.0, 9.0));
  EXPECT_DOUBLE_EQ(r.best_vx.value(), 22.0);
  EXPECT_DOUBLE_EQ(r.best_vy.value(), 9.0);
}

TEST(FullGridSweep, GridValuesMatchProbe) {
  PowerSupply psu;
  FullGridSweep::Options opt;
  opt.step = Voltage{10.0};
  FullGridSweep sweep{psu, opt};
  const PowerProbe probe = gaussian_peak(0.0, 0.0);
  (void)sweep.run(grid_of(probe));
  EXPECT_NEAR(sweep.grid_dbm()[0][0],
              probe(Voltage{0.0}, Voltage{0.0}).value(), 1e-12);
  EXPECT_NEAR(sweep.grid_dbm()[3][3],
              probe(Voltage{30.0}, Voltage{30.0}).value(), 1e-12);
}

TEST(FullGridSweep, AxesAreExactIndexLattice) {
  // Regression: the axes were accumulated (`v += step`), drifting by an ulp
  // per addition — with step 0.1 over [0, 5], 41 of the 51 points sat off
  // the nominal lo + i*step lattice.
  PowerSupply psu;
  FullGridSweep::Options opt;
  opt.v_min = Voltage{0.0};
  opt.v_max = Voltage{5.0};
  opt.step = Voltage{0.1};
  FullGridSweep sweep{psu, opt};
  (void)sweep.run(peak_grid(2.0, 2.0));
  ASSERT_EQ(sweep.vx_values().size(), 51u);
  for (std::size_t i = 0; i < sweep.vx_values().size(); ++i) {
    // Exact equality, not EXPECT_DOUBLE_EQ: the accumulation drift is a few
    // ulps — inside gtest's 4-ulp "almost equal" band, but enough to program
    // a supply voltage that differs from the reported axis label.
    EXPECT_EQ(sweep.vx_values()[i], static_cast<double>(i) * 0.1)
        << "axis point " << i << " drifted off the lattice";
  }
  EXPECT_EQ(sweep.vx_values().back(), 5.0);
}

TEST(FullGridSweep, AllFloorProbesStillReportAProbedBias) {
  PowerSupply psu;
  FullGridSweep::Options opt;
  opt.v_min = Voltage{10.0};
  opt.v_max = Voltage{20.0};
  opt.step = Voltage{5.0};
  FullGridSweep sweep{psu, opt};
  const SweepResult r = sweep.run(flat_grid(-2e9));
  // Pre-fix this reported the SweepResult default (0, 0) V — outside the
  // sweep window entirely — with the -1e9 sentinel as the power.
  EXPECT_DOUBLE_EQ(r.best_vx.value(), 10.0);
  EXPECT_DOUBLE_EQ(r.best_vy.value(), 10.0);
  EXPECT_DOUBLE_EQ(r.best_power.value(), -2e9);
}

TEST(FullGridSweep, RejectsBadOptions) {
  PowerSupply psu;
  FullGridSweep::Options bad;
  bad.step = Voltage{0.0};
  EXPECT_THROW(FullGridSweep(psu, bad), std::invalid_argument);
}

/// Property: for any peak location on the grid, Algorithm 1 with paper
/// parameters lands within one coarse step of the optimum.
class SweepConvergence
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SweepConvergence, LandsNearPeak) {
  const auto [px, py] = GetParam();
  PowerSupply psu;
  CoarseToFineSweep sweep{psu, {}};
  const SweepResult r = sweep.run(peak_grid(px, py));
  // Coarse step is 6 V; the refinement narrows further unless the peak sits
  // at the range edge.
  EXPECT_NEAR(r.best_vx.value(), px, 6.0);
  EXPECT_NEAR(r.best_vy.value(), py, 6.0);
}

INSTANTIATE_TEST_SUITE_P(
    PeakLocations, SweepConvergence,
    ::testing::Values(std::make_pair(3.0, 3.0), std::make_pair(27.0, 27.0),
                      std::make_pair(3.0, 27.0), std::make_pair(27.0, 3.0),
                      std::make_pair(15.0, 15.0), std::make_pair(8.0, 22.0),
                      std::make_pair(29.0, 1.0)));

}  // namespace
}  // namespace llama::control
