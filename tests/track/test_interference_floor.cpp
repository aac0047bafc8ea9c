// Satellite coverage: Environment::with_interference's floor composed
// through LinkLayerModel::min_operational_snr and TrackReport outage. A
// rising ambient floor must degrade delivered throughput monotonically and
// drive the loop into outage once the link drops under noise +
// min_operational_snr — and the scene path must agree with the pinned
// outputs of the legacy single-link path number for number.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/channel/mobility.h"
#include "src/core/scenarios.h"
#include "src/track/tracking_loop.h"

namespace llama::track {
namespace {

using common::Angle;
using common::PowerDbm;

/// Observes only; never touches the supply or surface.
class NullPolicy final : public RetunePolicy {
 public:
  [[nodiscard]] const char* name() const override { return "null"; }
  PolicyAction on_tick(core::LlamaSystem&, const TickObservation&) override {
    return {};
  }
};

core::SystemConfig floor_config(PowerDbm floor) {
  core::SystemConfig cfg = core::transmissive_mismatch_config(
      /*tx_rx_distance_m=*/1.0, /*tx_power=*/PowerDbm{0.0});
  cfg.rx_antenna =
      channel::Antenna::directional_10dbi(Angle::degrees(50.0));
  cfg.environment = channel::Environment::with_interference(floor);
  return cfg;
}

TrackReport run_at_floor(PowerDbm floor, long ticks = 10) {
  core::LlamaSystem system{floor_config(floor)};
  channel::StaticMount mount{Angle::degrees(50.0)};
  NullPolicy policy;
  TrackingLoop::Options options;
  // The SNR reference IS the ambient floor: this is how the environment's
  // interference composes into the link layer's operational threshold.
  options.noise = floor;
  TrackingLoop loop{system, mount, policy, options};
  return loop.run(ticks);
}

TEST(InterferenceFloor, IncrementalEpisodeEnforcesItsBounds) {
  core::LlamaSystem system{floor_config(PowerDbm{-80.0})};
  channel::StaticMount mount{Angle::degrees(50.0)};
  NullPolicy policy;
  TrackingLoop loop{system, mount, policy, TrackingLoop::Options{}};
  EXPECT_THROW(loop.step(), std::logic_error);   // outside an episode
  EXPECT_THROW(loop.finish(), std::logic_error);
  loop.begin(2);
  EXPECT_THROW(loop.begin(2), std::logic_error);  // episode already in flight
  loop.step();
  loop.step();
  EXPECT_THROW(loop.step(), std::logic_error);   // past the planned length
  const TrackReport report = loop.finish();
  EXPECT_EQ(report.ticks, 2);
}

TEST(InterferenceFloor, PowerFloorComposesMinOperationalSnr) {
  core::LlamaSystem system{floor_config(PowerDbm{-70.0})};
  channel::StaticMount mount{Angle::degrees(50.0)};
  NullPolicy policy;
  TrackingLoop::Options options;
  options.noise = PowerDbm{-70.0};
  TrackingLoop loop{system, mount, policy, options};
  EXPECT_DOUBLE_EQ(
      loop.power_floor().value(),
      (options.noise + options.link_layer.min_operational_snr()).value());
}

TEST(InterferenceFloor, RisingFloorDegradesThroughputMonotonically) {
  const std::vector<double> floors{-95.0, -75.0, -60.0, -45.0, -10.0};
  double prev_delivered = 1e9;
  double prev_outage = -1.0;
  for (double floor : floors) {
    const TrackReport report = run_at_floor(PowerDbm{floor});
    EXPECT_LE(report.mean_delivered_mbps, prev_delivered + 1e-12)
        << "floor " << floor;
    EXPECT_GE(report.outage_fraction, prev_outage) << "floor " << floor;
    prev_delivered = report.mean_delivered_mbps;
    prev_outage = report.outage_fraction;
  }
  // At -10 dBm ambient the ~-24 dBm link sits far under noise +
  // min_operational_snr: hard outage, nothing delivered.
  const TrackReport drowned = run_at_floor(PowerDbm{-10.0});
  EXPECT_DOUBLE_EQ(drowned.outage_fraction, 1.0);
  EXPECT_DOUBLE_EQ(drowned.mean_delivered_mbps, 0.0);
}

TEST(InterferenceFloor, SceneAndLegacyPathsDegradeIdentically) {
  // Per floor: the expected measure [dBm] and delivered throughput [Mb/s]
  // of the legacy single-link chain (standalone link model -> receiver
  // expected measure -> link layer), pinned as hexfloats. The tracking
  // loop runs the scene path and must land on them every tick.
  struct Pinned {
    double floor_dbm;
    double power_dbm;
    double delivered_mbps;
  };
  const Pinned pinned[] = {
      {-90.0, -0x1.1e5226f884ccap+5, 0x1p+0},
      {-65.0, -0x1.1e4785f55c5e6p+5, 0x1.ffffffffeed54p-1},
      {-50.0, -0x1.1d070a9bbfe7fp+5, 0x1.ffe4fa2f28c29p-1},
  };
  for (const Pinned& pin : pinned) {
    const double floor = pin.floor_dbm;
    const core::SystemConfig cfg = floor_config(PowerDbm{floor});
    core::LlamaSystem system{cfg};
    channel::StaticMount mount{Angle::degrees(50.0)};
    NullPolicy policy;
    TrackingLoop::Options options;
    options.noise = PowerDbm{floor};
    TrackingLoop loop{system, mount, policy, options};
    const TrackReport report = loop.run(4);

    ASSERT_FALSE(report.trace.empty());
    for (const TrackTrace& tick : report.trace) {
      EXPECT_NEAR(tick.power.value(), pin.power_dbm, 1e-12)
          << "floor " << floor;
      EXPECT_NEAR(tick.delivered_mbps, pin.delivered_mbps, 1e-12)
          << "floor " << floor;
      EXPECT_EQ(tick.outage,
                PowerDbm{pin.power_dbm} <
                    options.noise + options.link_layer.min_operational_snr());
    }
  }
}

}  // namespace
}  // namespace llama::track
