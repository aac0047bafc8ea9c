// City-scale fleet evaluation: thousands of placed surfaces, spatially
// pruned per-device scenes, device loops sharded by spatial cell.
//
// The classic DeploymentEngine models cross-surface interference as a
// symmetric ring (every non-serving surface at one lateral offset), which
// is exact for a lab bench but dense: every device sums all M surfaces.
// CityFleetEngine is the city counterpart:
//
//  - Surfaces live at real mount positions (DeploymentConfig::layout); a
//    device is served by its nearest surface (SpatialSurfaceIndex) and its
//    scene keeps only the leakage paths above the layout's amplitude
//    cutoff — per-device cost is O(local neighborhood), not O(M), with the
//    worst-case power error bounded by PropagationScene::pruned_field_bound.
//
//  - Fleet evaluation is sharded over spatial cells via common::parallel_for.
//    Cell -> shard assignment and pruning decisions are pure functions of
//    the layout (never of thread count), and each shard writes only its own
//    cells' device slots, so results are byte-identical for any thread
//    count — the same contract as the rest of the codebase, memcmp-tested
//    in tests/deploy/test_city_fleet.cpp.
//
//  - Retune sweeps stay O(1) in M: freeze_device() pre-sums every frozen
//    path per spatial cell (hierarchical frozen aggregation), and
//    refreeze_device() refreshes only the cells whose surfaces retuned.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/channel/spatial_index.h"
#include "src/deploy/deployment_engine.h"

namespace llama::deploy {

/// Bias pair programmed on one deployment surface.
struct SurfaceBias {
  common::Voltage vx{0.0};
  common::Voltage vy{0.0};
};

/// Outcome of one fleet-wide coherent evaluation.
struct CityEvalReport {
  /// Received power per device (coherent sum over its pruned scene).
  std::vector<common::PowerDbm> power;
  /// Worst-case |Delta P| in dB pruning could have introduced per device
  /// (from the analytic field bound against the device's signal power).
  std::vector<double> error_bound_db;
  double max_error_bound_db = 0.0;
  std::size_t shard_count = 0;  ///< spatial cells the device loop ran over
};

/// M placed surfaces, N positioned devices, pruned scenes, cell shards.
class CityFleetEngine {
 public:
  /// Throws what config.validate() throws, and std::invalid_argument
  /// without a layout or with a reflective geometry.
  explicit CityFleetEngine(DeploymentConfig config,
                           metasurface::RotatorStack stack =
                               metasurface::prototype_fr4_design());

  /// Builds each device's link with link_fleet (partition_fleet, the same
  /// partition FleetTracker runs on, then one scene per device). Every
  /// device needs a position (std::invalid_argument otherwise); an explicit
  /// DeviceSpec::surface overrides nearest-surface serving (std::out_of_range
  /// when >= n_surfaces). Deterministic: assignments depend only on the
  /// layout and roster.
  void assign(const std::vector<DeviceSpec>& devices);

  [[nodiscard]] const channel::SpatialSurfaceIndex& index() const {
    return index_;
  }
  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] std::size_t device_count() const { return fleet_.links.size(); }
  [[nodiscard]] std::size_t serving_surface(std::size_t device) const;
  [[nodiscard]] const channel::PropagationScene& scene(
      std::size_t device) const;
  /// Mean kept leakage paths per device scene — the observable the
  /// sub-linear claim rides on (dense would be n_surfaces - 1).
  [[nodiscard]] double mean_kept_leakage() const;
  [[nodiscard]] std::size_t total_pruned() const { return total_pruned_; }

  /// Coherent received power for every device with every surface
  /// programmed at `biases` (size n_surfaces), sharded over spatial cells.
  /// Byte-identical for any config.threads value. Throws
  /// std::invalid_argument on a wrong-sized or non-finite bias vector (so
  /// do freeze_device and refreeze_device).
  [[nodiscard]] CityEvalReport evaluate(const std::vector<SurfaceBias>& biases);
  /// Same evaluation with an explicit worker count (0 = hardware default)
  /// overriding config.threads — the thread-scaling and determinism
  /// harnesses vary the count without rebuilding the engine.
  [[nodiscard]] CityEvalReport evaluate(const std::vector<SurfaceBias>& biases,
                                        int threads);

  /// Freezes device `device`'s scene for a serving-surface retune sweep:
  /// every non-serving contribution is pre-summed per spatial cell, so a
  /// candidate evaluation (received_power_swept on scene(device)) costs
  /// O(1) in M.
  [[nodiscard]] channel::PropagationScene::FrozenEval freeze_device(
      std::size_t device, const std::vector<SurfaceBias>& biases);

  /// After the deployment surfaces in `retuned` changed bias, refreshes
  /// the frozen state by recomputing only their spatial cells —
  /// byte-identical to a fresh freeze_device() at the new biases.
  void refreeze_device(std::size_t device,
                       channel::PropagationScene::FrozenEval& frozen,
                       std::span<const std::size_t> retuned,
                       const std::vector<SurfaceBias>& biases);

  [[nodiscard]] SharedResponseEngine& response_engine() { return engine_; }

 private:
  /// Per-deployment-surface responses at `biases` (serial, cache-backed).
  [[nodiscard]] std::vector<em::JonesMatrix> responses_at(
      const std::vector<SurfaceBias>& biases);
  /// Fills `view` with device-scene-ordered response pointers.
  void view_for(const DeviceLink& link,
                const std::vector<em::JonesMatrix>& responses,
                std::vector<const em::JonesMatrix*>& view) const;

  DeploymentConfig config_;
  channel::SpatialSurfaceIndex index_;
  SharedResponseEngine engine_;
  /// Groups are the shard plan: device indices by the serving surface's
  /// cell ordinal (one per index cell, possibly empty).
  FleetLinks fleet_;
  std::size_t total_pruned_ = 0;
  std::size_t total_kept_ = 0;
};

}  // namespace llama::deploy
