#include "src/track/retune_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/track/tracking_loop.h"

namespace llama::track {
namespace {

using common::Angle;
using common::PowerDbm;

core::SystemConfig test_config() {
  core::SystemConfig cfg = core::transmissive_mismatch_config(0.42);
  cfg.tx_antenna = channel::Antenna::iot_dipole(Angle::degrees(0.0));
  cfg.rx_antenna = channel::Antenna::iot_dipole(Angle::degrees(45.0));
  return cfg;
}

codebook::Codebook compile_book(const core::SystemConfig& cfg) {
  codebook::CompilerOptions copts;
  copts.n_orientations = 37;
  return codebook::CodebookCompiler{cfg}.compile(copts);
}

TEST(HysteresisResweep, TunesOnceOnAStaticDeviceThenHolds) {
  core::LlamaSystem system{test_config()};
  channel::StaticMount mount{Angle::degrees(45.0)};
  HysteresisResweep policy;
  TrackingLoop loop{system, mount, policy};
  const TrackReport report = loop.run(15);
  // The first report has no optimum history, so it triggers the initial
  // Algorithm-1 round (N*T^2 = 50 switches = 1 s): ten blacked-out ticks.
  EXPECT_EQ(report.retune_count, 1);
  EXPECT_TRUE(report.trace[0].retuned);
  EXPECT_NEAR(report.trace[0].retune_airtime_s, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.trace[0].duty, 0.0);
  EXPECT_NEAR(report.mean_retune_latency_s, 1.0, 1e-9);
  // Once tuned, the static link never degrades: no further sweeps, and the
  // post-blackout ticks run at full duty.
  for (std::size_t i = 1; i < report.trace.size(); ++i)
    EXPECT_FALSE(report.trace[i].retuned) << "tick " << i;
  EXPECT_DOUBLE_EQ(report.trace.back().duty, 1.0);
}

TEST(PeriodicCodebook, RetunesOnTheTimer) {
  const core::SystemConfig cfg = test_config();
  const codebook::Codebook book = compile_book(cfg);
  core::LlamaSystem system{cfg};
  channel::StaticMount mount{Angle::degrees(45.0)};
  PeriodicCodebook::Options opts;
  opts.period_s = 0.25;  // at a 0.1 s tick: retunes at ticks 0, 3, 6, 9
  PeriodicCodebook policy{book, opts};
  TrackingLoop loop{system, mount, policy};
  const TrackReport report = loop.run(10);
  EXPECT_EQ(report.retune_count, 4);
  for (long tick : {0, 3, 6, 9})
    EXPECT_TRUE(report.trace[static_cast<std::size_t>(tick)].retuned)
        << "tick " << tick;
  for (long tick : {1, 2, 4, 5, 7, 8})
    EXPECT_FALSE(report.trace[static_cast<std::size_t>(tick)].retuned)
        << "tick " << tick;
  // One 20 ms supply switch per retune.
  EXPECT_NEAR(report.retune_airtime_s, 4 * 0.02, 1e-9);
}

TEST(PeriodicCodebook, RejectsBadPeriod) {
  const core::SystemConfig cfg = test_config();
  const codebook::Codebook book = compile_book(cfg);
  PeriodicCodebook::Options opts;
  opts.period_s = 0.0;
  EXPECT_THROW((PeriodicCodebook{book, opts}), std::invalid_argument);
}

TEST(PredictiveCodebook, StaticDeviceCostsExactlyOneSwitch) {
  const core::SystemConfig cfg = test_config();
  const codebook::Codebook book = compile_book(cfg);
  core::LlamaSystem system{cfg};
  channel::StaticMount mount{Angle::degrees(70.0)};
  PredictiveCodebook policy{book};
  TrackingLoop loop{system, mount, policy};
  const TrackReport report = loop.run(12);
  EXPECT_EQ(report.retune_count, 1);
  EXPECT_TRUE(report.trace[0].retuned);
  EXPECT_NEAR(report.retune_airtime_s, 0.02, 1e-9);
}

TEST(PredictiveCodebook, RetunesAtTheObservedOrientationOnAJump) {
  // A remount-style discontinuity must not be extrapolated: a 0 -> 90 deg
  // jump would predict 90 + 90 = 180 ≡ 0 deg — the OLD orientation — and
  // program the worst possible bias. The policy detects the jump and
  // retunes at the observed orientation instead.
  struct Remount final : channel::OrientationProcess {
    [[nodiscard]] common::Angle orientation_at(double t_s) override {
      return Angle::degrees(t_s < 0.45 ? 40.0 : 130.0);
    }
  };
  const core::SystemConfig cfg = test_config();
  const codebook::Codebook book = compile_book(cfg);
  core::LlamaSystem system{cfg};
  Remount process;
  PredictiveCodebook policy{book};
  TrackingLoop loop{system, process, policy};
  const TrackReport report = loop.run(10);
  // Tick 5 (t = 0.5) sees the jump: the policy must retune and land within
  // a few dB of the pre-jump corrected power, not in a deep mismatch fade.
  EXPECT_TRUE(report.trace[5].retuned);
  EXPECT_NEAR(report.trace[5].power.value(), report.trace[4].power.value(),
              6.0);
}

TEST(HysteresisResweep, AdoptsTheBoundSystemsControllerOptions) {
  // Unless overridden, the policy must sweep with the system's configured
  // controller options — here T = 3, so the initial round costs
  // N*T^2 = 2*9 = 18 switches (0.36 s), not the default 50 (1 s).
  core::SystemConfig cfg = test_config();
  cfg.controller.sweep.steps_per_axis = 3;
  core::LlamaSystem system{cfg};
  channel::StaticMount mount{Angle::degrees(45.0)};
  HysteresisResweep policy;
  TrackingLoop loop{system, mount, policy};
  const TrackReport report = loop.run(6);
  EXPECT_EQ(report.retune_count, 1);
  EXPECT_NEAR(report.trace[0].retune_airtime_s, 0.36, 1e-9);

  // An explicit option wins over the system's.
  core::LlamaSystem system2{cfg};
  HysteresisResweep::Options opts;
  opts.controller = control::Controller::Options{};  // paper defaults
  HysteresisResweep policy2{opts};
  TrackingLoop loop2{system2, mount, policy2};
  const TrackReport report2 = loop2.run(12);
  EXPECT_NEAR(report2.trace[0].retune_airtime_s, 1.0, 1e-9);
}

TEST(PredictiveCodebook, RejectsNonPositiveHoldLoss) {
  const core::SystemConfig cfg = test_config();
  const codebook::Codebook book = compile_book(cfg);
  PredictiveCodebook::Options opts;
  opts.hold_loss = common::GainDb{0.0};
  EXPECT_THROW((PredictiveCodebook{book, opts}), std::invalid_argument);
}

TEST(PredictiveCodebook, BeatsHysteresisOnOutageAtFarLessAirtime) {
  // The bench_mobile_fleet CI assertion in miniature: on a walking-speed
  // swing the predictive policy must match-or-beat the re-sweep policy's
  // outage while spending >= 10x less supply airtime.
  const core::SystemConfig cfg = test_config();
  const codebook::Codebook book = compile_book(cfg);
  channel::ArmSwing::Params swing;
  swing.mean = Angle::degrees(60.0);
  swing.amplitude = Angle::degrees(35.0);
  swing.swing_rate_hz = 0.5;

  TrackReport hysteresis;
  TrackReport predictive;
  {
    core::LlamaSystem system{cfg};
    channel::ArmSwing arm{swing};
    HysteresisResweep policy;
    TrackingLoop loop{system, arm, policy};
    hysteresis = loop.run(60);
  }
  {
    core::LlamaSystem system{cfg};
    channel::ArmSwing arm{swing};
    PredictiveCodebook policy{book};
    TrackingLoop loop{system, arm, policy};
    predictive = loop.run(60);
  }
  EXPECT_LE(predictive.outage_fraction, hysteresis.outage_fraction);
  ASSERT_GT(predictive.retune_airtime_s, 0.0);
  EXPECT_GE(hysteresis.retune_airtime_s / predictive.retune_airtime_s, 10.0);
}

TEST(CodebookPolicies, BindRejectsAStaleCodebook) {
  // Compile for a different transmit power: structurally valid, wrong hash.
  core::SystemConfig other = test_config();
  other.tx_power = PowerDbm{10.0};
  const codebook::Codebook stale = compile_book(other);

  core::LlamaSystem system{test_config()};
  channel::StaticMount mount{Angle::degrees(45.0)};
  {
    PeriodicCodebook policy{stale};
    TrackingLoop loop{system, mount, policy};
    EXPECT_THROW((void)loop.run(3), codebook::CodebookStaleError);
  }
  {
    PredictiveCodebook policy{stale};
    TrackingLoop loop{system, mount, policy};
    EXPECT_THROW((void)loop.run(3), codebook::CodebookStaleError);
  }
}

}  // namespace
}  // namespace llama::track
