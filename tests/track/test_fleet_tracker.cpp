#include "src/track/fleet_tracker.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/fault/fault_plan.h"

namespace llama::track {
namespace {

using common::Angle;

PolicyFactory null_like_policy_factory() {
  struct Null final : RetunePolicy {
    [[nodiscard]] const char* name() const override { return "null"; }
    PolicyAction on_tick(core::LlamaSystem&, const TickObservation&) override {
      return {};
    }
  };
  return [] { return std::make_unique<Null>(); };
}

TEST(FleetTracker, ValidatesConfigAndSpecs) {
  core::MobileFleetScenario scenario = core::mobile_fleet_scenario(2, 1);
  {
    FleetConfig bad = scenario.config;
    bad.deployment.n_surfaces = 0;
    EXPECT_THROW((FleetTracker{bad}), std::invalid_argument);
  }
  FleetTracker tracker{scenario.config};
  EXPECT_THROW(
      (void)tracker.run(scenario.devices, null_like_policy_factory(), 0),
      std::invalid_argument);
  EXPECT_THROW((void)tracker.run(scenario.devices, PolicyFactory{}, 5),
               std::invalid_argument);
  {
    auto devices = scenario.devices;
    devices[1].surface = 3;  // only 1 surface configured
    EXPECT_THROW(
        (void)tracker.run(devices, null_like_policy_factory(), 5),
        std::out_of_range);
  }
  {
    auto devices = scenario.devices;
    devices[0].process = nullptr;
    EXPECT_THROW(
        (void)tracker.run(devices, null_like_policy_factory(), 5),
        std::invalid_argument);
  }
}

TEST(FleetTracker, RoundRobinAndExplicitSurfaceAssignment) {
  core::MobileFleetScenario scenario = core::mobile_fleet_scenario(4, 2);
  scenario.devices[3].surface = 0;  // explicit override
  FleetTracker tracker{scenario.config};
  const FleetReport report =
      tracker.run(scenario.devices, null_like_policy_factory(), 3);
  ASSERT_EQ(report.devices.size(), 4u);
  EXPECT_EQ(report.devices[0].surface, 0u);
  EXPECT_EQ(report.devices[1].surface, 1u);
  EXPECT_EQ(report.devices[2].surface, 0u);
  EXPECT_EQ(report.devices[3].surface, 0u);
  ASSERT_EQ(report.surfaces.size(), 2u);
  EXPECT_EQ(report.surfaces[0].device_count, 3u);
  EXPECT_EQ(report.surfaces[1].device_count, 1u);
}

TEST(FleetTracker, AggregatesMatchPerDeviceReports) {
  const core::MobileFleetScenario scenario = core::mobile_fleet_scenario(5, 2);
  const core::SystemConfig device_cfg = core::device_system_config(
      scenario.config.deployment, Angle::degrees(0.0));
  const codebook::Codebook book =
      codebook::CodebookCompiler{device_cfg}.compile();
  FleetTracker tracker{scenario.config};
  const FleetReport report = tracker.run(
      scenario.devices,
      [&book] { return std::make_unique<PredictiveCodebook>(book); }, 20);

  long retunes = 0;
  double airtime = 0.0;
  double outage_sum = 0.0;
  double delivered = 0.0;
  for (const DeviceTrackResult& d : report.devices) {
    retunes += d.report.retune_count;
    airtime += d.report.retune_airtime_s;
    outage_sum += d.report.outage_fraction;
    delivered += d.report.mean_delivered_mbps;
  }
  EXPECT_EQ(report.retune_count, retunes);
  EXPECT_DOUBLE_EQ(report.retune_airtime_s, airtime);
  EXPECT_DOUBLE_EQ(report.mean_outage_fraction, outage_sum / 5.0);
  EXPECT_DOUBLE_EQ(report.sum_delivered_mbps, delivered);
  // Every device retuned at least once (the initial programming switch).
  EXPECT_GE(report.retune_count, 5);

  double surface_airtime = 0.0;
  std::size_t surface_devices = 0;
  for (const SurfaceTrackSummary& s : report.surfaces) {
    surface_airtime += s.retune_airtime_s;
    surface_devices += s.device_count;
  }
  EXPECT_DOUBLE_EQ(surface_airtime, airtime);
  EXPECT_EQ(surface_devices, 5u);
}

TEST(FleetTracker, ByteIdenticalForAnyThreadCount) {
  core::MobileFleetScenario scenario = core::mobile_fleet_scenario(6, 2);
  const core::SystemConfig device_cfg = core::device_system_config(
      scenario.config.deployment, Angle::degrees(0.0));
  const codebook::Codebook book =
      codebook::CodebookCompiler{device_cfg}.compile();

  FleetReport reports[2];
  const int thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    FleetConfig cfg = scenario.config;
    cfg.deployment.threads = thread_counts[k];
    FleetTracker tracker{cfg};
    reports[k] = tracker.run(
        scenario.devices,
        [&book] { return std::make_unique<PredictiveCodebook>(book); }, 15);
  }
  ASSERT_EQ(reports[0].devices.size(), reports[1].devices.size());
  for (std::size_t i = 0; i < reports[0].devices.size(); ++i) {
    const TrackReport& a = reports[0].devices[i].report;
    const TrackReport& b = reports[1].devices[i].report;
    EXPECT_DOUBLE_EQ(a.mean_power_dbm, b.mean_power_dbm) << "device " << i;
    EXPECT_DOUBLE_EQ(a.outage_fraction, b.outage_fraction) << "device " << i;
    EXPECT_DOUBLE_EQ(a.retune_airtime_s, b.retune_airtime_s)
        << "device " << i;
    EXPECT_EQ(a.retune_count, b.retune_count) << "device " << i;
    EXPECT_DOUBLE_EQ(a.mean_delivered_mbps, b.mean_delivered_mbps)
        << "device " << i;
  }
  EXPECT_DOUBLE_EQ(reports[0].mean_outage_fraction,
                   reports[1].mean_outage_fraction);
  EXPECT_DOUBLE_EQ(reports[0].retune_airtime_s, reports[1].retune_airtime_s);
}

TEST(FleetTracker, LockstepLeakageChangesWhatDevicesHear) {
  // Same fleet, leakage model off vs on: with the scene's leakage paths in
  // play the devices' measured powers — and so their reports — differ.
  core::MobileFleetScenario off = core::mobile_fleet_scenario(4, 2);
  core::MobileFleetScenario on = core::mobile_fleet_scenario(4, 2);
  on.config.deployment.interference.enable_leakage = true;

  FleetTracker tracker_off{off.config};
  FleetTracker tracker_on{on.config};
  const FleetReport a =
      tracker_off.run(off.devices, null_like_policy_factory(), 12);
  const FleetReport b =
      tracker_on.run(on.devices, null_like_policy_factory(), 12);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  bool any_power_differs = false;
  for (std::size_t i = 0; i < a.devices.size(); ++i)
    if (a.devices[i].report.mean_power_dbm !=
        b.devices[i].report.mean_power_dbm)
      any_power_differs = true;
  EXPECT_TRUE(any_power_differs);
}

TEST(FleetTracker, LockstepIsByteIdenticalForAnyThreadCount) {
  core::MobileFleetScenario scenario = core::mobile_fleet_scenario(5, 2);
  scenario.config.deployment.interference.enable_leakage = true;
  FleetConfig serial = scenario.config;
  serial.deployment.threads = 1;
  FleetConfig parallel = scenario.config;
  parallel.deployment.threads = 4;
  FleetTracker tracker_serial{serial};
  FleetTracker tracker_parallel{parallel};
  const FleetReport a =
      tracker_serial.run(scenario.devices, null_like_policy_factory(), 10);
  const FleetReport b =
      tracker_parallel.run(scenario.devices, null_like_policy_factory(), 10);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].report.mean_power_dbm,
              b.devices[i].report.mean_power_dbm)
        << "device " << i;
    EXPECT_EQ(a.devices[i].report.outage_fraction,
              b.devices[i].report.outage_fraction);
  }
  EXPECT_EQ(a.sum_delivered_mbps, b.sum_delivered_mbps);
}

TEST(FleetTracker, OneDeviceRetunePerturbsItsNeighborsLink) {
  // Two static devices on two surfaces. In run A nobody retunes; in run B
  // device 1 reprograms its surface mid-episode. Device 0 never acts in
  // either run — but with leakage enabled its measured power must move
  // when its neighbor's surface switches bias.
  core::MobileFleetScenario scenario = core::mobile_fleet_scenario(2, 2);
  scenario.config.deployment.interference.enable_leakage = true;
  scenario.config.loop.keep_trace = true;
  for (track::FleetDeviceSpec& spec : scenario.devices)
    spec.process = [] {
      return std::make_unique<channel::StaticMount>(Angle::degrees(70.0));
    };

  struct ForcedRetune final : RetunePolicy {
    long retune_tick;
    explicit ForcedRetune(long tick) : retune_tick(tick) {}
    [[nodiscard]] const char* name() const override { return "forced"; }
    PolicyAction on_tick(core::LlamaSystem& system,
                         const TickObservation& obs) override {
      if (obs.tick != retune_tick) return {};
      system.supply().set_outputs(common::Voltage{27.0},
                                  common::Voltage{3.0});
      system.surface().set_bias(common::Voltage{27.0}, common::Voltage{3.0});
      PolicyAction action;
      action.retuned = true;
      return action;
    }
  };
  const auto factory_for = [](bool device1_retunes) {
    auto counter = std::make_shared<int>(0);
    return PolicyFactory{[counter, device1_retunes]()
                             -> std::unique_ptr<RetunePolicy> {
      const int index = (*counter)++;
      if (index == 1 && device1_retunes)
        return std::make_unique<ForcedRetune>(4);
      return std::make_unique<ForcedRetune>(-1);  // never fires
    }};
  };

  FleetTracker tracker{scenario.config};
  const FleetReport quiet =
      tracker.run(scenario.devices, factory_for(false), 10);
  const FleetReport perturbed =
      tracker.run(scenario.devices, factory_for(true), 10);

  const TrackReport& quiet_dev0 = quiet.devices[0].report;
  const TrackReport& pert_dev0 = perturbed.devices[0].report;
  ASSERT_EQ(quiet_dev0.trace.size(), 10u);
  ASSERT_EQ(pert_dev0.trace.size(), 10u);
  // Identical until the neighbor's retune lands (one-tick snapshot delay)...
  for (long t = 0; t <= 4; ++t)
    EXPECT_EQ(quiet_dev0.trace[t].power.value(),
              pert_dev0.trace[t].power.value())
        << "tick " << t;
  // ...then device 0's link moves although device 0 itself did nothing.
  bool diverged = false;
  for (long t = 5; t < 10; ++t)
    if (quiet_dev0.trace[t].power.value() !=
        pert_dev0.trace[t].power.value())
      diverged = true;
  EXPECT_TRUE(diverged);
  EXPECT_EQ(pert_dev0.retune_count, 0);
}

TEST(FleetTracker, ScenarioIsDeterministicAndWellFormed) {
  const core::MobileFleetScenario a = core::mobile_fleet_scenario(7, 3);
  const core::MobileFleetScenario b = core::mobile_fleet_scenario(7, 3);
  ASSERT_EQ(a.devices.size(), 7u);
  EXPECT_EQ(a.config.deployment.n_surfaces, 3u);
  EXPECT_FALSE(a.config.loop.keep_trace);
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    ASSERT_TRUE(a.devices[i].process != nullptr);
    // Factories built from the same scenario parameters generate identical
    // trajectories.
    const auto pa = a.devices[i].process();
    const auto pb = b.devices[i].process();
    for (double t : {0.0, 0.37, 1.1})
      EXPECT_DOUBLE_EQ(pa->orientation_at(t).deg(),
                       pb->orientation_at(t).deg())
          << "device " << i << " t " << t;
  }
}


// ---------------------------------------------------------------------------
// City-layout path: nearest-surface serving, per-device geometry from the
// real serving distance, device loop sharded over spatial cells.
// ---------------------------------------------------------------------------

core::MobileFleetScenario city_fleet_scenario(std::size_t n_devices,
                                              std::size_t m_surfaces) {
  core::MobileFleetScenario s =
      core::mobile_fleet_scenario(n_devices, m_surfaces);
  // Reuse the city generator's layout (street grid + leakage model) so the
  // tracker and CityFleetEngine agree on what a deployment looks like.
  s.config.deployment.layout =
      core::city_scale_scenario(m_surfaces, 1).config.layout;
  for (std::size_t i = 0; i < n_devices; ++i)
    s.devices[i].position = channel::Point2{
        3.0 + 11.0 * static_cast<double>(i % 5),
        5.0 + 9.0 * static_cast<double>(i / 5)};
  return s;
}

TEST(FleetTracker, CityLayoutValidation) {
  core::MobileFleetScenario scenario = city_fleet_scenario(4, 4);
  {
    FleetConfig bad = scenario.config;
    bad.deployment.layout.positions.pop_back();
    EXPECT_THROW((FleetTracker{bad}), std::invalid_argument);
  }
  {
    // Moving a city device to another mount would need a rebuilt link
    // plant, so a fault plan (whose health pass moves devices) is refused.
    FleetConfig bad = scenario.config;
    bad.faults = std::make_shared<const fault::FaultPlan>();
    EXPECT_THROW((FleetTracker{bad}), std::invalid_argument);
  }
  {
    FleetConfig leaky = scenario.config;
    leaky.deployment.interference.enable_leakage = true;
    EXPECT_NO_THROW((FleetTracker{leaky}));
  }
  FleetTracker tracker{scenario.config};
  auto devices = scenario.devices;
  devices[2].position.reset();
  EXPECT_THROW(
      (void)tracker.run(devices, null_like_policy_factory(), 3),
      std::invalid_argument);
}

TEST(FleetTracker, CityLayoutServesNearestSurface) {
  const core::MobileFleetScenario scenario = city_fleet_scenario(8, 6);
  FleetTracker tracker{scenario.config};
  const FleetReport report =
      tracker.run(scenario.devices, null_like_policy_factory(), 2);
  ASSERT_EQ(report.devices.size(), 8u);
  const auto& positions = scenario.config.deployment.layout.positions;
  for (std::size_t i = 0; i < report.devices.size(); ++i) {
    std::size_t best = 0;
    double best_d = channel::distance_m(*scenario.devices[i].position,
                                        positions[0]);
    for (std::size_t s = 1; s < positions.size(); ++s) {
      const double d = channel::distance_m(*scenario.devices[i].position,
                                           positions[s]);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    EXPECT_EQ(report.devices[i].surface, best) << "device " << i;
  }
}

TEST(FleetTracker, CityLayoutByteIdenticalForAnyThreadCount) {
  const core::MobileFleetScenario scenario = city_fleet_scenario(10, 4);

  // HysteresisResweep needs no codebook: the city path gives every device
  // its own serving geometry, so a codebook compiled from the deployment
  // template would fail its config-hash check.
  FleetReport reports[2];
  const int thread_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    FleetConfig cfg = scenario.config;
    cfg.deployment.threads = thread_counts[k];
    FleetTracker tracker{cfg};
    reports[k] = tracker.run(
        scenario.devices,
        [] { return std::make_unique<HysteresisResweep>(); }, 10);
  }
  ASSERT_EQ(reports[0].devices.size(), reports[1].devices.size());
  for (std::size_t i = 0; i < reports[0].devices.size(); ++i) {
    const TrackReport& a = reports[0].devices[i].report;
    const TrackReport& b = reports[1].devices[i].report;
    EXPECT_EQ(reports[0].devices[i].surface, reports[1].devices[i].surface);
    EXPECT_DOUBLE_EQ(a.mean_power_dbm, b.mean_power_dbm) << "device " << i;
    EXPECT_DOUBLE_EQ(a.outage_fraction, b.outage_fraction) << "device " << i;
    EXPECT_EQ(a.retune_count, b.retune_count) << "device " << i;
    EXPECT_DOUBLE_EQ(a.mean_delivered_mbps, b.mean_delivered_mbps)
        << "device " << i;
  }
  EXPECT_DOUBLE_EQ(reports[0].mean_outage_fraction,
                   reports[1].mean_outage_fraction);
}

std::string power_bytes(const FleetReport& r) {
  std::string s;
  for (const DeviceTrackResult& d : r.devices) {
    s += std::to_string(d.surface) + ":";
    for (const double v : {d.report.mean_power_dbm, d.report.min_power_dbm,
                           d.report.outage_fraction,
                           d.report.mean_delivered_mbps,
                           d.report.retune_airtime_s})
      s.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  return s;
}

TEST(FleetTracker, CityLeakageIsByteIdenticalForAnyWorkerCount) {
  core::MobileFleetScenario scenario = city_fleet_scenario(10, 6);
  scenario.config.deployment.interference.enable_leakage = true;
  std::string bytes[3];
  const int worker_counts[3] = {1, 2, 8};
  for (int k = 0; k < 3; ++k) {
    FleetConfig cfg = scenario.config;
    cfg.deployment.threads = worker_counts[k];
    bytes[k] = power_bytes(FleetTracker{cfg}.run(
        scenario.devices,
        [] { return std::make_unique<HysteresisResweep>(); }, 20));
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(bytes[0], bytes[2]);
}

TEST(FleetTracker, CityLeakageChangesWhatDevicesHear) {
  // Same city fleet, leakage off vs on: the placed neighbors in each
  // device's scene move its measured power.
  const core::MobileFleetScenario off = city_fleet_scenario(10, 6);
  core::MobileFleetScenario on = city_fleet_scenario(10, 6);
  on.config.deployment.interference.enable_leakage = true;
  const FleetReport a = FleetTracker{off.config}.run(
      off.devices, null_like_policy_factory(), 8);
  const FleetReport b =
      FleetTracker{on.config}.run(on.devices, null_like_policy_factory(), 8);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  bool any_power_differs = false;
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].surface, b.devices[i].surface);
    if (a.devices[i].report.mean_power_dbm !=
        b.devices[i].report.mean_power_dbm)
      any_power_differs = true;
  }
  EXPECT_TRUE(any_power_differs);
}

TEST(FleetTracker, OfflineSurfaceIsAbsentFromItsNeighborsScenes) {
  // Two static devices on two surfaces with leakage on; nobody retunes.
  // Surface 1 crashes at t = 0.5 s. Device 0 hears surface 1 until the
  // crash lands in the snapshot (one tick later), and from then on hears
  // exactly what it hears with no neighbor at all.
  core::MobileFleetScenario scenario = core::mobile_fleet_scenario(2, 2);
  scenario.config.deployment.interference.enable_leakage = true;
  scenario.config.loop.keep_trace = true;
  for (FleetDeviceSpec& spec : scenario.devices)
    spec.process = [] {
      return std::make_unique<channel::StaticMount>(Angle::degrees(70.0));
    };
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->events.push_back(fault::surface_offline_event(1, 0.5));
  FleetConfig crashed = scenario.config;
  crashed.faults = plan;
  const FleetReport with_crash = FleetTracker{crashed}.run(
      scenario.devices, null_like_policy_factory(), 12);
  // Device 0 alone: surface 1 never airs, so its scene slot stays empty.
  const FleetReport alone = FleetTracker{scenario.config}.run(
      {scenario.devices[0]}, null_like_policy_factory(), 12);

  const std::vector<TrackTrace>& heard = with_crash.devices[0].report.trace;
  const std::vector<TrackTrace>& solo = alone.devices[0].report.trace;
  ASSERT_EQ(heard.size(), 12u);
  ASSERT_EQ(solo.size(), 12u);
  EXPECT_EQ(heard[0].power.value(), solo[0].power.value());  // cold start
  EXPECT_NE(heard[1].power.value(), solo[1].power.value());  // neighbor airs
  const long first_silent = 6;  // crash at tick 5, snapshot one tick later
  for (long t = 1; t < first_silent; ++t)
    EXPECT_NE(heard[t].power.value(), solo[t].power.value()) << "tick " << t;
  for (long t = first_silent; t < 12; ++t)
    EXPECT_EQ(heard[t].power.value(), solo[t].power.value()) << "tick " << t;
}

TEST(FleetTracker, EvacuatedDeviceNeverHearsItsOwnServingSurface) {
  // Surface 1 is offline from t = 0, so its static, never-retuning device
  // falls under the outage floor and is evacuated to surface 0. From then
  // on its one ring slot stands for its offline home, not for surface 0:
  // a retune of device 0 on surface 0 must leave device 1's trace intact.
  core::MobileFleetScenario scenario = core::mobile_fleet_scenario(2, 2);
  scenario.config.deployment.interference.enable_leakage = true;
  scenario.config.loop.keep_trace = true;
  scenario.config.loop.power_floor = common::PowerDbm{-29.7};
  scenario.config.health.probation_delay_s = 100.0;  // no canary trial
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->events.push_back(fault::surface_offline_event(1, 0.0));
  scenario.config.faults = plan;
  for (FleetDeviceSpec& spec : scenario.devices)
    spec.process = [] {
      return std::make_unique<channel::StaticMount>(Angle::degrees(70.0));
    };

  // Device 0 programs (27, 3) V at tick 0 and, with `late`, (20, 8) V at
  // tick 20; device 1 never acts.
  struct Program final : RetunePolicy {
    bool active;
    bool late;
    Program(bool is_active, bool with_late)
        : active(is_active), late(with_late) {}
    [[nodiscard]] const char* name() const override { return "program"; }
    PolicyAction on_tick(core::LlamaSystem& system,
                         const TickObservation& obs) override {
      if (!active || (obs.tick != 0 && !(late && obs.tick == 20))) return {};
      const common::Voltage vx{obs.tick == 0 ? 27.0 : 20.0};
      const common::Voltage vy{obs.tick == 0 ? 3.0 : 8.0};
      system.supply().set_outputs(vx, vy);
      system.surface().set_bias(vx, vy);
      PolicyAction action;
      action.retuned = true;
      return action;
    }
  };
  const auto run = [&](bool late) {
    auto counter = std::make_shared<int>(0);
    const PolicyFactory factory = [counter, late] {
      const bool first = (*counter)++ == 0;
      return std::make_unique<Program>(first, first && late);
    };
    return FleetTracker{scenario.config}.run(scenario.devices, factory, 30);
  };
  const FleetReport quiet = run(false);
  const FleetReport retuned = run(true);

  for (const FleetReport* r : {&quiet, &retuned}) {
    EXPECT_EQ(r->reassignments, 1);
    EXPECT_EQ(r->devices[1].home_surface, 1u);
    EXPECT_EQ(r->devices[1].surface, 0u);
  }
  const std::vector<TrackTrace>& d0_quiet = quiet.devices[0].report.trace;
  const std::vector<TrackTrace>& d0_retuned = retuned.devices[0].report.trace;
  EXPECT_NE(d0_quiet[25].power.value(), d0_retuned[25].power.value());
  const std::vector<TrackTrace>& d1_quiet = quiet.devices[1].report.trace;
  const std::vector<TrackTrace>& d1_retuned = retuned.devices[1].report.trace;
  ASSERT_EQ(d1_quiet.size(), 30u);
  ASSERT_EQ(d1_retuned.size(), 30u);
  for (long t = 0; t < 30; ++t)
    EXPECT_EQ(d1_quiet[t].power.value(), d1_retuned[t].power.value())
        << "tick " << t;
}

}  // namespace
}  // namespace llama::track
