// End-to-end degraded-mode serving: the fault drill (measurement dropouts,
// a stuck bias cell, one surface crashing at the midpoint) run through the
// ResilientPolicy + HealthMonitor stack inside FleetTracker. Mirrors the
// bench_fault_resilience CI gate at test scale.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/fault/resilient_policy.h"
#include "src/track/fleet_tracker.h"

namespace llama::fault {
namespace {

codebook::Codebook drill_codebook(const core::FaultDrillScenario& scenario) {
  return codebook::CodebookCompiler{core::device_system_config(
                                        scenario.config.deployment,
                                        common::Angle::degrees(0.0))}
      .compile();
}

TEST(ResilientPolicy, ValidatesOptionsAndBindOrder) {
  const core::FaultDrillScenario scenario = core::fault_drill_scenario(2, 2);
  const codebook::Codebook book = drill_codebook(scenario);

  ResilientPolicy::Options bad;
  bad.period_s = 0.0;
  EXPECT_THROW((ResilientPolicy{book, bad}), std::invalid_argument);
  bad = {};
  bad.escalate_after = 0;
  EXPECT_THROW((ResilientPolicy{book, bad}), std::invalid_argument);
  bad = {};
  bad.direct_holdoff_s = -1.0;
  EXPECT_THROW((ResilientPolicy{book, bad}), std::invalid_argument);

  ResilientPolicy policy{book};
  core::LlamaSystem system{core::device_system_config(
      scenario.config.deployment, common::Angle::degrees(80.0))};
  track::TickObservation obs;
  EXPECT_THROW((void)policy.on_tick(system, obs), std::logic_error);
}

// Faults and cross-surface leakage run together: the health pass and the
// leakage snapshot are ordered serial hooks after each tick's join, so the
// drill with leakage on is byte-identical for 1, 2 and 8 workers, still
// evacuates the crashed surface, and hears the leakage.
TEST(FaultDrill, FaultsWithLeakageAreByteIdenticalForAnyWorkerCount) {
  core::FaultDrillScenario scenario = core::fault_drill_scenario(6, 2, 60);
  scenario.config.deployment.interference.enable_leakage = true;
  const codebook::Codebook book = drill_codebook(scenario);
  ResilientPolicy::Options opts;
  opts.lookup.threads = 1;
  const track::PolicyFactory factory = [&] {
    return std::make_unique<ResilientPolicy>(book, opts);
  };

  track::FleetReport reports[3];
  const int worker_counts[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    track::FleetConfig cfg = scenario.config;
    cfg.deployment.threads = worker_counts[k];
    reports[k] =
        track::FleetTracker{cfg}.run(scenario.devices, factory, scenario.ticks);
  }
  for (int k = 1; k < 3; ++k) {
    const track::FleetReport& a = reports[0];
    const track::FleetReport& b = reports[k];
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
      EXPECT_EQ(a.devices[i].surface, b.devices[i].surface);
      EXPECT_EQ(a.devices[i].report.mean_power_dbm,
                b.devices[i].report.mean_power_dbm);
      EXPECT_EQ(a.devices[i].report.outage_fraction,
                b.devices[i].report.outage_fraction);
      EXPECT_EQ(a.devices[i].report.retune_airtime_s,
                b.devices[i].report.retune_airtime_s);
    }
    EXPECT_EQ(a.reassignments, b.reassignments);
    EXPECT_EQ(a.health_transitions, b.health_transitions);
    EXPECT_EQ(a.surface_health, b.surface_health);
  }
  EXPECT_GT(reports[0].reassignments, 0);

  core::FaultDrillScenario quiet = scenario;
  quiet.config.deployment.interference.enable_leakage = false;
  const codebook::Codebook quiet_book = drill_codebook(quiet);
  const track::FleetReport no_leakage = track::FleetTracker{quiet.config}.run(
      quiet.devices,
      [&] { return std::make_unique<ResilientPolicy>(quiet_book, opts); },
      quiet.ticks);
  EXPECT_NE(no_leakage.sum_delivered_mbps, reports[0].sum_delivered_mbps);
}

TEST(FleetTracker, RejectsInvalidFaultPlansAtConstruction) {
  core::FaultDrillScenario scenario = core::fault_drill_scenario(2, 2);
  auto broken = std::make_shared<FaultPlan>(*scenario.plan);
  broken->events[0].probability = 5.0;
  scenario.config.faults = broken;
  EXPECT_THROW((track::FleetTracker{scenario.config}), FaultPlanFormatError);
}

TEST(FaultDrill, ResilientFleetKeepsServingWhereBaselineGoesDark) {
  const core::FaultDrillScenario scenario = core::fault_drill_scenario(8, 2);
  const codebook::Codebook book = drill_codebook(scenario);
  track::FleetTracker tracker{scenario.config};

  track::PeriodicCodebook::Options periodic_opts;
  periodic_opts.period_s = 0.5;
  periodic_opts.lookup.enable_fine_sweep = false;
  periodic_opts.lookup.threads = 1;
  const track::FleetReport baseline = tracker.run(
      scenario.devices,
      [&] {
        return std::make_unique<track::PeriodicCodebook>(book, periodic_opts);
      },
      scenario.ticks);

  ResilientPolicy::Options resilient_opts;
  resilient_opts.lookup.threads = 1;
  const track::FleetReport resilient = tracker.run(
      scenario.devices,
      [&] { return std::make_unique<ResilientPolicy>(book, resilient_opts); },
      scenario.ticks);

  // The CI gate's acceptance pins, at the same scenario scale.
  EXPECT_LE(resilient.mean_outage_fraction, 0.10);
  EXPECT_GE(baseline.mean_outage_fraction,
            3.0 * resilient.mean_outage_fraction);

  // The crashed surface was caught and quarantined...
  ASSERT_EQ(resilient.surface_health.size(), 2u);
  EXPECT_EQ(resilient.surface_health[1], SurfaceHealth::kQuarantined);
  EXPECT_GT(resilient.health_transitions, 0);
  // ...and its devices were evacuated onto the healthy surface.
  EXPECT_GT(resilient.reassignments, 0);
  for (const track::DeviceTrackResult& d : resilient.devices)
    if (d.home_surface == 1) EXPECT_EQ(d.surface, 0u);

  // The dropout schedule actually fired, and the loop accounted for it.
  EXPECT_GT(resilient.dropped_measurements, 0);

  // The health machinery is policy-agnostic (it lives in FleetTracker), so
  // the baseline fleet also evacuates the crashed surface — its 3x-worse
  // outage is the policy layer's doing: no fade trigger, no deviation
  // ladder, no retry absorption.
  EXPECT_GT(baseline.reassignments, 0);
}

TEST(FaultDrill, FaultedFleetIsByteIdenticalForAnyThreadCount) {
  const core::FaultDrillScenario scenario = core::fault_drill_scenario(6, 2);
  const codebook::Codebook book = drill_codebook(scenario);
  ResilientPolicy::Options opts;
  opts.lookup.threads = 1;
  const track::PolicyFactory factory = [&] {
    return std::make_unique<ResilientPolicy>(book, opts);
  };

  track::FleetConfig serial = scenario.config;
  serial.deployment.threads = 1;
  track::FleetConfig parallel = scenario.config;
  parallel.deployment.threads = 4;
  const track::FleetReport a =
      track::FleetTracker{serial}.run(scenario.devices, factory,
                                      scenario.ticks);
  const track::FleetReport b =
      track::FleetTracker{parallel}.run(scenario.devices, factory,
                                        scenario.ticks);

  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].surface, b.devices[i].surface);
    EXPECT_EQ(a.devices[i].report.outage_fraction,
              b.devices[i].report.outage_fraction);
    EXPECT_EQ(a.devices[i].report.mean_power_dbm,
              b.devices[i].report.mean_power_dbm);
    EXPECT_EQ(a.devices[i].report.retune_airtime_s,
              b.devices[i].report.retune_airtime_s);
    EXPECT_EQ(a.devices[i].report.dropped_measurements,
              b.devices[i].report.dropped_measurements);
  }
  EXPECT_EQ(a.mean_outage_fraction, b.mean_outage_fraction);
  EXPECT_EQ(a.reassignments, b.reassignments);
  EXPECT_EQ(a.health_transitions, b.health_transitions);
  EXPECT_EQ(a.surface_health, b.surface_health);
}

TEST(FaultDrill, DrillScenarioPlanRoundTripsAndValidates) {
  const core::FaultDrillScenario scenario = core::fault_drill_scenario(4, 2);
  ASSERT_TRUE(scenario.plan);
  EXPECT_NO_THROW(validate(*scenario.plan));
  EXPECT_EQ(FaultPlan::deserialize(scenario.plan->serialize()),
            *scenario.plan);
  EXPECT_EQ(scenario.config.faults.get(), scenario.plan.get());
  EXPECT_THROW((void)core::fault_drill_scenario(4, 2, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace llama::fault
