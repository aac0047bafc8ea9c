// Pins FleetTracker's outputs bit for bit. The hashes were recorded from
// the tracker as it ran before its three run bodies (independent, lockstep,
// faulted) were folded into one tick loop over one device partition; the
// loop must reproduce every bit of the flat, city, lockstep-leakage and
// fault-drill reports, at 1 and at 4 workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/fault/resilient_policy.h"
#include "src/track/fleet_tracker.h"

namespace llama::track {
namespace {

/// Full-precision rendering of everything a fleet run decides.
std::string fingerprint(const FleetReport& r) {
  std::string s;
  char buf[64];
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    s += buf;
  };
  for (const DeviceTrackResult& d : r.devices) {
    s += d.name + ":" + std::to_string(d.surface) + ":" +
         std::to_string(d.home_surface) + ":";
    const TrackReport& t = d.report;
    s += std::to_string(t.ticks) + "," + std::to_string(t.retune_count) +
         "," + std::to_string(t.dropped_measurements) + ",";
    add(t.duration_s);
    add(t.outage_fraction);
    add(t.retune_airtime_s);
    add(t.mean_retune_latency_s);
    add(t.mean_power_dbm);
    add(t.min_power_dbm);
    add(t.mean_delivered_mbps);
    for (const TrackTrace& tick : t.trace) add(tick.power.value());
    s += ";";
  }
  for (const SurfaceTrackSummary& sr : r.surfaces) {
    s += std::to_string(sr.surface) + ":" + std::to_string(sr.device_count) +
         ":" + std::to_string(sr.retune_count) + ":";
    add(sr.mean_outage_fraction);
    add(sr.retune_airtime_s);
    add(sr.sum_delivered_mbps);
  }
  add(r.mean_outage_fraction);
  add(r.retune_airtime_s);
  add(r.mean_retune_latency_s);
  add(r.sum_delivered_mbps);
  s += std::to_string(r.retune_count) + "," +
       std::to_string(r.dropped_measurements) + "," +
       std::to_string(r.reassignments) + "," +
       std::to_string(r.health_transitions) + ",";
  for (const fault::SurfaceHealth h : r.surface_health)
    s += fault::to_string(h) + std::string{","};
  return s;
}

/// FNV-1a 64 of the fingerprint.
std::uint64_t fingerprint_hash(const FleetReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : fingerprint(r)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

FleetReport run_at(FleetConfig config,
                   const std::vector<FleetDeviceSpec>& devices,
                   const PolicyFactory& make_policy, long ticks,
                   int threads) {
  config.deployment.threads = threads;
  return FleetTracker{config}.run(devices, make_policy, ticks);
}

void expect_pinned(const FleetConfig& config,
                   const std::vector<FleetDeviceSpec>& devices,
                   const PolicyFactory& make_policy, long ticks,
                   std::uint64_t golden) {
  for (const int threads : {1, 4}) {
    const std::uint64_t h =
        fingerprint_hash(run_at(config, devices, make_policy, ticks, threads));
    EXPECT_EQ(h, golden) << "threads " << threads << ": got 0x" << std::hex
                         << h;
  }
}

PolicyFactory hysteresis() {
  return [] { return std::make_unique<HysteresisResweep>(); };
}

TEST(FleetGolden, FlatFleet) {
  const core::MobileFleetScenario s = core::mobile_fleet_scenario(8, 2);
  const auto book = std::make_shared<const codebook::Codebook>(
      codebook::CodebookCompiler{
          core::device_system_config(s.config.deployment,
                                     common::Angle::degrees(0.0))}
          .compile());
  expect_pinned(s.config, s.devices,
                [book] { return std::make_unique<PredictiveCodebook>(*book); },
                40, 0x3004a2e2a97ce6e4ULL);
}

TEST(FleetGolden, CityFleet) {
  core::MobileFleetScenario s = core::mobile_fleet_scenario(10, 6);
  s.config.deployment.layout = core::city_scale_scenario(6, 1).config.layout;
  for (std::size_t i = 0; i < s.devices.size(); ++i)
    s.devices[i].position =
        channel::Point2{3.0 + 11.0 * static_cast<double>(i % 5),
                        5.0 + 9.0 * static_cast<double>(i / 5)};
  expect_pinned(s.config, s.devices, hysteresis(), 30, 0xa4a46eff911d1a04ULL);
}

TEST(FleetGolden, LockstepLeakageFleet) {
  core::MobileFleetScenario s = core::mobile_fleet_scenario(6, 3);
  s.config.deployment.interference.enable_leakage = true;
  expect_pinned(s.config, s.devices, hysteresis(), 40, 0x287350fe5d16e457ULL);
}

TEST(FleetGolden, FaultDrillFleet) {
  const core::FaultDrillScenario s = core::fault_drill_scenario(8, 2);
  const auto book = std::make_shared<const codebook::Codebook>(
      codebook::CodebookCompiler{
          core::device_system_config(s.config.deployment,
                                     common::Angle::degrees(0.0))}
          .compile());
  fault::ResilientPolicy::Options options;
  options.lookup.threads = 1;
  expect_pinned(s.config, s.devices,
                [book, options] {
                  return std::make_unique<fault::ResilientPolicy>(*book,
                                                                  options);
                },
                s.ticks, 0x364af7ce7c408ab2ULL);
}

}  // namespace
}  // namespace llama::track
