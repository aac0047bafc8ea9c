#include "src/control/controller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/metasurface/designs.h"

namespace llama::control {
namespace {

using common::PowerDbm;
using common::Voltage;

/// A plant whose power landscape depends on the surface bias state, so the
/// controller's surface programming is observable.
struct BiasPlant {
  metasurface::Metasurface* surface = nullptr;
  double peak_vx = 18.0;
  double peak_vy = 6.0;
  double peak_dbm = -25.0;

  [[nodiscard]] PowerDbm measure() const {
    const double dx = surface->bias_x().value() - peak_vx;
    const double dy = surface->bias_y().value() - peak_vy;
    return PowerDbm{peak_dbm - 0.08 * (dx * dx + dy * dy)};
  }

  /// Power the plant would read with the surface programmed at (vx, vy).
  [[nodiscard]] PowerDbm power_at(double vx, double vy) const {
    const double dx = vx - peak_vx;
    const double dy = vy - peak_vy;
    return PowerDbm{peak_dbm - 0.08 * (dx * dx + dy * dy)};
  }
};

struct Fixture {
  metasurface::Metasurface surface = metasurface::Metasurface::llama_prototype();
  PowerSupply supply;
  BiasPlant plant;

  Fixture() { plant.surface = &surface; }

  PowerProbe probe() {
    return [this](Voltage, Voltage) { return plant.measure(); };
  }
};

TEST(Controller, OptimizeFindsTheBiasPeak) {
  Fixture f;
  Controller controller{f.surface, f.supply};
  const OptimizationReport r = controller.optimize(f.probe());
  EXPECT_NEAR(controller.current_vx().value(), f.plant.peak_vx, 4.0);
  EXPECT_NEAR(controller.current_vy().value(), f.plant.peak_vy, 4.0);
  EXPECT_GT(r.improvement.value(), 0.0);
}

TEST(Controller, SurfaceEndsAtWinningBias) {
  Fixture f;
  Controller controller{f.surface, f.supply};
  const OptimizationReport r = controller.optimize(f.probe());
  EXPECT_DOUBLE_EQ(f.surface.bias_x().value(), r.sweep.best_vx.value());
  EXPECT_DOUBLE_EQ(f.surface.bias_y().value(), r.sweep.best_vy.value());
}

TEST(Controller, ReportsBaselineAndImprovement) {
  Fixture f;
  Controller controller{f.surface, f.supply};
  f.surface.set_bias(Voltage{0.0}, Voltage{30.0});  // poor starting point
  const OptimizationReport r = controller.optimize(f.probe());
  EXPECT_NEAR(r.improvement.value(),
              r.sweep.best_power.value() - r.baseline.value(), 1e-9);
  EXPECT_GT(r.improvement.value(), 10.0);
}

TEST(Controller, HealthyLinkDoesNotRetrigger) {
  Fixture f;
  Controller controller{f.surface, f.supply};
  (void)controller.optimize(f.probe());
  const auto followup =
      controller.on_power_report(f.plant.measure(), f.probe());
  EXPECT_FALSE(followup.has_value());
}

TEST(Controller, DegradedLinkRetriggersSweep) {
  Fixture f;
  Controller controller{f.surface, f.supply};
  (void)controller.optimize(f.probe());
  const long switches_before = f.supply.switch_count();
  // The environment shifts: the peak moves, current bias now far off.
  f.plant.peak_vx = 4.0;
  f.plant.peak_vy = 26.0;
  const auto followup =
      controller.on_power_report(f.plant.measure(), f.probe());
  ASSERT_TRUE(followup.has_value());
  EXPECT_GT(f.supply.switch_count(), switches_before);
  EXPECT_NEAR(controller.current_vx().value(), 4.0, 4.0);
  EXPECT_NEAR(controller.current_vy().value(), 26.0, 4.0);
}

TEST(Controller, HysteresisThresholdIsRespected) {
  Fixture f;
  Controller::Options opt;
  opt.reoptimize_threshold = common::GainDb{10.0};
  Controller controller{f.surface, f.supply, opt};
  (void)controller.optimize(f.probe());
  const auto last = controller.last_optimum();
  ASSERT_TRUE(last.has_value());
  // A drop smaller than the threshold is tolerated.
  const auto r1 = controller.on_power_report(
      PowerDbm{last->value() - 5.0}, f.probe());
  EXPECT_FALSE(r1.has_value());
  // A larger drop triggers.
  const auto r2 = controller.on_power_report(
      PowerDbm{last->value() - 15.0}, f.probe());
  EXPECT_TRUE(r2.has_value());
}

TEST(Controller, FirstReportWithoutHistoryOptimizes) {
  Fixture f;
  Controller controller{f.surface, f.supply};
  const auto r = controller.on_power_report(PowerDbm{-60.0}, f.probe());
  EXPECT_TRUE(r.has_value());
}

TEST(Controller, BaselineIsMeasuredAtTheControllersBias) {
  // Regression: the baseline used to be probed without programming the
  // surface, so a surface rebiased behind the controller's back (here: a
  // direct set_bias, in production a codebook path or another controller)
  // made the baseline — and report.improvement — read the desynced bias
  // instead of the controller's (vx_, vy_).
  Fixture f;
  Controller controller{f.surface, f.supply};
  (void)controller.optimize(f.probe());
  const double cvx = controller.current_vx().value();
  const double cvy = controller.current_vy().value();

  // Desync: rebias the surface far from the controller's stored bias.
  f.surface.set_bias(Voltage{0.0}, Voltage{30.0});
  const OptimizationReport r = controller.optimize(f.probe());
  EXPECT_NEAR(r.baseline.value(), f.plant.power_at(cvx, cvy).value(), 1e-9);
  EXPECT_NEAR(r.improvement.value(),
              r.sweep.best_power.value() - f.plant.power_at(cvx, cvy).value(),
              1e-9);
}

TEST(Controller, BatchedBaselineIsMeasuredAtTheControllersBias) {
  // Same regression through the grid-probe round, with a baseline probe
  // that — unlike LlamaSystem's — does not program the surface itself.
  Fixture f;
  Controller controller{f.surface, f.supply};
  (void)controller.optimize(f.probe());
  const double cvx = controller.current_vx().value();
  const double cvy = controller.current_vy().value();

  f.surface.set_bias(Voltage{0.0}, Voltage{30.0});
  const GridPowerProbe grid_probe = [&](const std::vector<double>& vxs,
                                        const std::vector<double>& vys) {
    PowerGrid grid(vys.size(), std::vector<PowerDbm>(vxs.size()));
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      for (std::size_t ix = 0; ix < vxs.size(); ++ix)
        grid[iy][ix] = f.plant.power_at(vxs[ix], vys[iy]);
    return grid;
  };
  const OptimizationReport r =
      controller.optimize(f.probe(), grid_probe);
  EXPECT_NEAR(r.baseline.value(), f.plant.power_at(cvx, cvy).value(), 1e-9);
}

TEST(Controller, HysteresisRearmsOnAWorseOptimumAfterRetune) {
  // After a retune lands on a *worse* optimum (the plant degraded), the
  // hysteresis must track the new last_optimum_ — reports within the
  // threshold of the new, lower optimum must not retrigger even though they
  // sit far below the stale higher one.
  Fixture f;
  Controller controller{f.surface, f.supply};
  (void)controller.optimize(f.probe());
  ASSERT_NEAR(controller.last_optimum()->value(), -25.0, 2.0);

  // The plant degrades: peak moves and the whole landscape drops 20 dB.
  f.plant.peak_vx = 6.0;
  f.plant.peak_vy = 22.0;
  f.plant.peak_dbm = -45.0;
  const auto retune = controller.on_power_report(f.plant.measure(), f.probe());
  ASSERT_TRUE(retune.has_value());
  const double new_optimum = controller.last_optimum()->value();
  ASSERT_NEAR(new_optimum, -45.0, 2.0);

  // 1 dB under the new optimum: inside the 3 dB hysteresis band, no sweep —
  // even though it is ~21 dB below the pre-degradation optimum.
  const auto healthy =
      controller.on_power_report(PowerDbm{new_optimum - 1.0}, f.probe());
  EXPECT_FALSE(healthy.has_value());
  // 4 dB under the new optimum: past the band, sweeps again.
  const auto degraded =
      controller.on_power_report(PowerDbm{new_optimum - 4.0}, f.probe());
  EXPECT_TRUE(degraded.has_value());
}

TEST(Controller, RejectsBadSweepOptionsAtConstruction) {
  // The controller builds its one sweep up front, so a bad schedule fails
  // here instead of at the first optimization round.
  Fixture f;
  Controller::Options opt;
  opt.sweep.iterations = 0;
  EXPECT_THROW((Controller{f.surface, f.supply, opt}), std::invalid_argument);
  opt.sweep.iterations = 2;
  opt.sweep.v_max = Voltage{40.0};  // beyond the 30 V supply
  EXPECT_THROW((Controller{f.surface, f.supply, opt}), std::invalid_argument);
}

TEST(Controller, SweepTimeBudgetIsOneSecond) {
  // Paper: N = 2, T = 5 at 50 Hz => 0.02 * 2 * 25 = 1 s per optimization —
  // the "real-time" claim.
  Fixture f;
  Controller controller{f.surface, f.supply};
  const OptimizationReport r = controller.optimize(f.probe());
  EXPECT_NEAR(r.sweep.time_cost_s, 1.0, 1e-9);
}

}  // namespace
}  // namespace llama::control
