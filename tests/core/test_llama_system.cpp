#include "src/core/llama_system.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/core/scenarios.h"

namespace llama::core {
namespace {

using common::PowerDbm;
using common::Voltage;

TEST(LlamaSystem, DefaultConfigMatchesPaperTestbed) {
  const SystemConfig cfg;
  EXPECT_NEAR(cfg.frequency.in_ghz(), 2.44, 1e-12);
  EXPECT_DOUBLE_EQ(cfg.tx_power.value(), 0.0);
}

TEST(LlamaSystem, MeasurementsAreReproduciblePerSeed) {
  LlamaSystem a{transmissive_mismatch_config()};
  LlamaSystem b{transmissive_mismatch_config()};
  EXPECT_DOUBLE_EQ(a.measure_without_surface().value(),
                   b.measure_without_surface().value());
}

TEST(LlamaSystem, OptimizeImprovesTheMismatchedLink) {
  LlamaSystem sys{transmissive_mismatch_config()};
  (void)sys.optimize_link();
  // Paper Fig. 16: >= ~10 dB of gain on a fully mismatched link.
  EXPECT_GT(sys.improvement().value(), 8.0);
}

TEST(LlamaSystem, OptimizationLeavesSurfaceProgrammed) {
  LlamaSystem sys{transmissive_mismatch_config()};
  const auto report = sys.optimize_link();
  EXPECT_DOUBLE_EQ(sys.surface().bias_x().value(),
                   report.sweep.best_vx.value());
  EXPECT_DOUBLE_EQ(sys.surface().bias_y().value(),
                   report.sweep.best_vy.value());
}

TEST(LlamaSystem, MatchedLinkGainsNothing) {
  LlamaSystem sys{transmissive_match_config()};
  (void)sys.optimize_link();
  // The surface cannot beat an already-matched link (insertion loss).
  EXPECT_LT(sys.improvement().value(), 0.5);
}

TEST(LlamaSystem, CapacityImprovesWithPower) {
  LlamaSystem sys{transmissive_mismatch_config()};
  (void)sys.optimize_link();
  EXPECT_GT(sys.capacity_with_surface(), sys.capacity_without_surface());
}

TEST(LlamaSystem, ProbeProgramsSurfaceBias) {
  LlamaSystem sys{transmissive_mismatch_config()};
  auto probe = sys.make_probe();
  (void)probe(Voltage{7.0}, Voltage{21.0});
  EXPECT_DOUBLE_EQ(sys.surface().bias_x().value(), 7.0);
  EXPECT_DOUBLE_EQ(sys.surface().bias_y().value(), 21.0);
}

TEST(LlamaSystem, SweepCostsOneSecondOfSupplyTime) {
  LlamaSystem sys{transmissive_mismatch_config()};
  const auto report = sys.optimize_link();
  EXPECT_NEAR(report.sweep.time_cost_s, 1.0, 1e-9);
  EXPECT_EQ(report.sweep.probes, 50);  // N * T^2 = 2 * 25
}

TEST(LlamaSystem, RejectsBadSweepOptionsAtConstruction) {
  // The controller's sweep is built with the system, so a bad schedule
  // fails here rather than at the first optimize_link*().
  SystemConfig cfg = transmissive_mismatch_config();
  cfg.controller.sweep.iterations = 0;
  EXPECT_THROW(LlamaSystem{cfg}, std::invalid_argument);
  cfg.controller.sweep.iterations = 2;
  cfg.controller.sweep.v_max = Voltage{40.0};  // beyond the 30 V supply
  EXPECT_THROW(LlamaSystem{cfg}, std::invalid_argument);
}

TEST(LlamaSystem, FrequencyReconfigurationShiftsPower) {
  LlamaSystem sys{transmissive_mismatch_config()};
  (void)sys.optimize_link();
  const double p_mid = sys.measure_with_surface(0.05).value();
  sys.set_frequency(common::Frequency::ghz(2.0));  // far out of band
  const double p_edge = sys.measure_with_surface(0.05).value();
  // The surface's efficiency and rotation both degrade out of band; the
  // lower Friis loss at 2.0 GHz claws back ~1.7 dB, so the net drop is
  // smaller than the raw S21 rolloff.
  EXPECT_GT(p_mid, p_edge + 2.0);
}

TEST(LlamaSystem, TxPowerReconfigurationScalesLinearly) {
  LlamaSystem sys{transmissive_mismatch_config()};
  const double p0 = sys.measure_without_surface().value();
  sys.set_tx_power(PowerDbm{10.0});
  const double p10 = sys.measure_without_surface().value();
  EXPECT_NEAR(p10 - p0, 10.0, 0.3);
}

TEST(LlamaSystem, GeometryReconfigurationMovesPower) {
  LlamaSystem sys{transmissive_mismatch_config(0.24)};
  const double near_p = sys.measure_without_surface().value();
  channel::LinkGeometry far = sys.config().geometry;
  far.tx_rx_distance_m = 0.60;
  sys.set_geometry(far);
  const double far_p = sys.measure_without_surface().value();
  EXPECT_GT(near_p, far_p + 5.0);
}

TEST(LlamaSystem, RotationEstimationProducesOrderedAngles) {
  LlamaSystem sys{transmissive_match_config()};
  control::RotationEstimator::Options opt;
  opt.orientation_step_deg = 4.0;
  opt.v_step = Voltage{6.0};
  const auto est = sys.estimate_rotation(opt);
  EXPECT_LE(est.min_rotation.deg(), est.max_rotation.deg());
  EXPECT_GE(est.min_rotation.deg(), 0.0);
  EXPECT_LE(est.max_rotation.deg(), 90.0);
  // Paper Fig. 12: small minimum (few degrees), large maximum (tens).
  EXPECT_LT(est.min_rotation.deg(), 15.0);
  EXPECT_GT(est.max_rotation.deg(), 25.0);
}

TEST(LlamaSystem, ExternalResponsesComposeIntoMeasurements) {
  SystemConfig cfg = transmissive_mismatch_config(1.0);
  cfg.scene.leakage.push_back(channel::LeakageSurfaceSpec{0.4, 0.15});
  LlamaSystem system{cfg};

  const PowerDbm quiet = system.expected_measure_with_surface();
  const em::JonesMatrix neighbor =
      system.surface().response(cfg.frequency, cfg.geometry.mode);
  system.set_external_responses({neighbor});
  const PowerDbm leaky = system.expected_measure_with_surface();
  EXPECT_NE(leaky.value(), quiet.value());
  // The no-surface baseline ignores externals (every surface absent).
  system.clear_external_responses();
  EXPECT_EQ(system.expected_measure_with_surface().value(), quiet.value());

  // A single-link system has no non-home slots to program.
  LlamaSystem plain{transmissive_mismatch_config(1.0)};
  EXPECT_THROW(plain.set_external_responses({neighbor}),
               std::invalid_argument);
}

TEST(LlamaSystem, GridProbeFreezesExternalContributions) {
  SystemConfig cfg = transmissive_mismatch_config(1.0);
  cfg.scene.leakage.push_back(channel::LeakageSurfaceSpec{0.4, 0.2});
  LlamaSystem system{cfg};
  const em::JonesMatrix neighbor =
      system.surface().response(cfg.frequency, cfg.geometry.mode);

  const std::vector<double> axis{0.0, 15.0, 30.0};
  const control::PowerGrid quiet = system.make_grid_probe()(axis, axis);
  system.set_external_responses({neighbor});
  const control::PowerGrid leaky = system.make_grid_probe()(axis, axis);
  // The frozen neighbor term shifts the whole swept plane, and pointwise
  // the batched path must agree with the unbatched coherent measurement.
  bool any_differs = false;
  for (std::size_t iy = 0; iy < axis.size(); ++iy)
    for (std::size_t ix = 0; ix < axis.size(); ++ix)
      if (quiet[iy][ix].value() != leaky[iy][ix].value()) any_differs = true;
  EXPECT_TRUE(any_differs);
  system.surface().set_bias(Voltage{15.0}, Voltage{15.0});
  const control::PowerGrid spot = system.make_grid_probe()({15.0}, {15.0});
  EXPECT_NEAR(spot[0][0].value(),
              system.expected_measure_with_surface().value(), 1e-12);
}

}  // namespace
}  // namespace llama::core
