// Spatial index + build-time leakage pruning for city-scale scenes.
//
// A city deployment mounts M surfaces at known 2-D positions; a device at
// position p is served by its nearest surface and sees every other surface
// only through an off-lobe leakage path. Dense scenes sum all M paths per
// device. This module adds the sub-linear alternative:
//
//  - SpatialSurfaceIndex: a deterministic uniform grid over mount
//    positions. Cell ordinals, per-cell surface order and nearest() results
//    are pure functions of the positions (never of thread count or
//    insertion order), which is what lets cell -> shard assignment preserve
//    the byte-identical-for-any-thread-count invariant.
//
//  - build_city_scene_spec(): emits a per-device SceneSpec whose placed
//    leakage entries keep only the paths whose worst-case amplitude,
//    relative to the serving path, clears a configurable cutoff (default
//    -40 dB). The relative amplitude bound coupling * d_serve / len is
//    frequency independent (both amplitudes carry the same lambda/4pi), so
//    one build-time decision is valid at every carrier.
//
// Error bound (the provable part): each pruned path's received-field
// amplitude is at most coupling/len * friis_amplitude(f, 1 m) * |tx state|
// * sqrt(rx boresight gain), because a passive surface response has
// ||R|| <= 1 (em::JonesMatrix::norm_bound) and the endpoint pattern factor
// is <= 1. By the triangle inequality the dense and pruned fields differ
// by at most the SUM of those bounds, so with P in mW (interference floor
// subtracted) |sqrt(P_dense) - sqrt(P_pruned)| <=
// PropagationScene::pruned_field_bound(). The randomized property suite in
// tests/channel/test_spatial_index.cpp checks exactly this inequality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/channel/propagation_scene.h"

namespace llama::channel {

/// A mount/device position on the deployment plane [m].
struct Point2 {
  double x_m = 0.0;
  double y_m = 0.0;
};

[[nodiscard]] double distance_m(const Point2& a, const Point2& b);

/// Build-time pruning policy.
struct PruneConfig {
  /// Keep a leakage path when its amplitude bound relative to the serving
  /// path is at least this many dB (20*log10 of the amplitude ratio).
  /// -infinity keeps everything (the dense scene).
  double cutoff_db = -40.0;
  /// Spatial-index cell edge [m]. Also the frozen-aggregation and
  /// shard-ownership granule.
  double cell_size_m = 24.0;
};

/// A city deployment's surface placement + leakage model.
struct SurfaceLayout {
  /// Mount position per deployment surface (index = deployment surface id).
  std::vector<Point2> positions;
  /// Leakage coupling of an unserved surface at the sidelobe reference
  /// distance (its main lobe is steered at its own devices; another
  /// device's AP illuminates it off-lobe).
  double coupling0 = 0.15;
  /// Distance [m] beyond which the off-lobe coupling rolls off:
  /// coupling(r) = coupling0 * min(1, (sidelobe_ref_m / r)^exponent).
  double sidelobe_ref_m = 10.0;
  /// Rolloff exponent of the off-lobe coupling beyond the reference
  /// distance. 2.0 (the default) models a street deployment: side-lobe
  /// angular rolloff compounds with urban clutter/blockage (measured
  /// non-LoS path-loss exponents of 3-4 vs free space), giving leakage
  /// amplitudes ~1/r^3 overall — which makes the total pruned energy over
  /// a 2-D city converge instead of diverging logarithmically.
  double sidelobe_exponent = 2.0;
  PruneConfig prune;

  [[nodiscard]] bool empty() const { return positions.empty(); }
  /// coupling(r) above; the amplitude model build_city_scene_spec applies.
  [[nodiscard]] double coupling_at(double hop_m) const;
};

/// Deterministic uniform grid over surface mount positions. Cells are
/// dense ordinals [0, cell_count) ordered by (cell row, cell column);
/// surfaces within a cell are sorted ascending by id.
class SpatialSurfaceIndex {
 public:
  SpatialSurfaceIndex() = default;
  /// Throws std::invalid_argument on empty positions, a cell size that is
  /// not finite and > 0, or a position that is not finite or lies more
  /// than 2^53 cells from the origin.
  SpatialSurfaceIndex(const std::vector<Point2>& positions,
                      double cell_size_m);

  [[nodiscard]] std::size_t surface_count() const { return cell_of_.size(); }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }

  /// Cell ordinal of a deployment surface.
  [[nodiscard]] std::int32_t cell_of(std::size_t surface) const;
  /// Surfaces in one cell, ascending by id.
  [[nodiscard]] const std::vector<std::size_t>& surfaces_in_cell(
      std::int32_t cell) const;

  /// Nearest surface to `p` (ties broken toward the lowest id). Searches
  /// outward ring by ring from the first occupied ring around p's cell, so
  /// cost is O(local density), not O(M); a query so far out that the walk
  /// would probe more cells than there are surfaces scans all M instead
  /// (same answer, bounded cost). Throws std::invalid_argument when `p` is
  /// not finite or lies more than 2^53 cells from the origin.
  [[nodiscard]] std::size_t nearest(const Point2& p) const;

 private:
  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::vector<std::size_t> surfaces;
  };

  /// Grid index floor(coord / cell size) of one coordinate; throws
  /// std::invalid_argument naming `what` when the coordinate is not finite
  /// or the index exceeds 2^53 in magnitude.
  [[nodiscard]] std::int64_t grid_index(double coord_m,
                                        const char* what) const;
  /// Ordinal of grid cell (cx, cy); -1 when empty.
  [[nodiscard]] std::int32_t find_cell(std::int64_t cx, std::int64_t cy) const;

  double cell_size_m_ = 0.0;
  std::vector<Point2> positions_;
  std::vector<Cell> cells_;           ///< sorted by (cy, cx)
  std::vector<std::int32_t> cell_of_; ///< per surface
};

/// Result of building one device's pruned scene description.
struct CitySceneBuild {
  SceneSpec spec;              ///< placed entries only (+ pruning tally)
  std::size_t serving = 0;     ///< deployment id of the serving surface
  double serving_distance_m = 0.0;
};

/// Scene spec for a device at `device_pos` served by surface `serving`:
/// one placed leakage entry per other surface whose relative amplitude
/// bound coupling * d_serve / len clears layout.prune.cutoff_db; the rest
/// are pruned into spec.pruned_coupling_over_length (the error-bound
/// accumulator). `tx_back_m` is the AP-to-mount distance added to the
/// serving distance (the AP sits just behind its transmissive surface).
/// Pruning depends only on the layout — never on thread count.
[[nodiscard]] CitySceneBuild build_city_scene_spec(
    const SpatialSurfaceIndex& index, const SurfaceLayout& layout,
    std::size_t serving, const Point2& device_pos, double tx_back_m);

}  // namespace llama::channel
