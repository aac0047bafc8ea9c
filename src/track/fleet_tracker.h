// Fleet-scale tracking: N per-device TrackingLoops over a deployment's M
// surfaces, run as one tick loop over one device partition.
//
// deploy::partition_fleet decides every device's serving surface, link
// geometry and scene, and the shard groups, serially from the config and
// roster alone — the same partition CityFleetEngine evaluates on. Each
// device owns its own LlamaSystem (core::device_system_config plus its
// placement), orientation process and policy instance, so shards share no
// mutable state. Each tick common::parallel_for runs over the groups and
// every worker steps only its own devices' plants; after the join two
// serial hooks run, in order: the health pass (with a fault plan) and the
// cross-surface leakage snapshot (with leakage on and M > 1). Combined
// with the loops' deterministic expected-power measurement model, a fleet
// run is byte-identical for any thread count — the same contract as
// deploy::DeploymentEngine and the codebook compiler. Per-surface
// aggregates expose which surface's supply is saturated by retune airtime.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/channel/mobility.h"
#include "src/deploy/deployment_engine.h"
#include "src/fault/fault_plan.h"
#include "src/fault/health_monitor.h"
#include "src/track/tracking_loop.h"

namespace llama::track {

/// Builds one device's orientation trajectory; called once per device per
/// run, serially in device order. Must be deterministic for the fleet's
/// determinism contract to hold.
using ProcessFactory =
    std::function<std::unique_ptr<channel::OrientationProcess>()>;

/// Builds one device's policy instance; called once per device per run,
/// serially in device order.
using PolicyFactory = std::function<std::unique_ptr<RetunePolicy>()>;

/// One mobile endpoint of a tracked fleet.
struct FleetDeviceSpec {
  std::string name;
  ProcessFactory process;
  /// Surface serving this device; -1 assigns round-robin by index (or
  /// nearest-surface when the deployment carries a city layout).
  int surface = -1;
  /// Device position on the deployment plane; required when
  /// deployment.layout is non-empty (the city-scale path), ignored
  /// otherwise.
  std::optional<channel::Point2> position;
};

/// Fleet-wide parameters: the deployment's shared link configuration
/// (surfaces, geometry, antennas, receiver, per-shard thread count) plus the
/// per-device loop options.
struct FleetConfig {
  deploy::DeploymentConfig deployment{};
  TrackingLoop::Options loop{};
  /// Scheduled fault plan driving every shard's fault layer; nullptr runs
  /// the fleet healthy. Shared so scenario builders hand the identical plan
  /// to the tracker, benches, and serialization round-trips. Combines with
  /// interference.enable_leakage; not with a city layout (rejected at
  /// construction).
  std::shared_ptr<const fault::FaultPlan> faults;
  /// Health state-machine thresholds for the faulted run.
  fault::HealthMonitor::Options health{};
};

/// One device's tracking outcome.
struct DeviceTrackResult {
  std::string name;
  /// Surface serving the device at the end of the run (may differ from
  /// home_surface after a health reassignment).
  std::size_t surface = 0;
  /// Surface the roster originally assigned.
  std::size_t home_surface = 0;
  TrackReport report;
};

/// Per-surface aggregate: how much of the surface's supply the fleet's
/// retuning consumed, and how its devices fared.
struct SurfaceTrackSummary {
  std::size_t surface = 0;
  std::size_t device_count = 0;
  double mean_outage_fraction = 0.0;
  long retune_count = 0;
  double retune_airtime_s = 0.0;
  double sum_delivered_mbps = 0.0;
};

/// Outcome of one fleet run.
struct FleetReport {
  std::vector<DeviceTrackResult> devices;
  std::vector<SurfaceTrackSummary> surfaces;
  double mean_outage_fraction = 0.0;
  long retune_count = 0;
  double retune_airtime_s = 0.0;
  double mean_retune_latency_s = 0.0;
  double sum_delivered_mbps = 0.0;
  /// Fault-layer observability (all zero/empty for a healthy run).
  long dropped_measurements = 0;
  /// Device -> surface moves the health monitor triggered (evacuations,
  /// canary trials, and probation homecomings).
  long reassignments = 0;
  long health_transitions = 0;
  /// Final per-surface health; empty when no fault plan was installed.
  std::vector<fault::SurfaceHealth> surface_health;
};

class FleetTracker {
 public:
  /// Throws what config.deployment.validate() throws, std::invalid_argument
  /// on a non-positive loop tick or a layout combined with a fault plan
  /// (moving a city device to another mount would need a rebuilt link
  /// plant), and fault::validate's error on an invalid plan.
  explicit FleetTracker(FleetConfig config);

  /// Tracks every device for `ticks` steps (sharded over
  /// config.deployment.threads workers; byte-identical for any value).
  /// Throws std::invalid_argument on a missing process/policy factory,
  /// ticks <= 0, or (with a layout) a device without a position, and
  /// std::out_of_range when a spec names a surface index >= n_surfaces.
  ///
  /// Serving follows deploy::partition_fleet: explicit or round-robin
  /// without a layout; explicit or nearest-surface with one, where the
  /// link geometry takes the device's real serving distance and the
  /// groups are spatial cells.
  ///
  /// With a fault plan, the health pass after each tick walks the
  /// per-surface state machines and reassigns devices away from
  /// quarantined surfaces (and back, through the probation canary).
  ///
  /// With config.deployment.interference.enable_leakage set (and M > 1)
  /// every device's scene carries other surfaces as leakage paths (the
  /// ring without a layout, the placed, pruned neighbors with one), frozen
  /// per tick at the snapshot of what those surfaces aired at the previous
  /// tick's end: a surface airs the mean response of the devices it
  /// currently serves, and nothing while the fault plan has it offline.
  /// One device's retune therefore perturbs its neighbors' measured power
  /// on the next tick — the paper's scaling question made observable —
  /// while the one-tick-delayed snapshot keeps the run byte-identical for
  /// any thread count.
  [[nodiscard]] FleetReport run(const std::vector<FleetDeviceSpec>& devices,
                                const PolicyFactory& make_policy, long ticks);

  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
};

}  // namespace llama::track
