// PropagationScene — the coherent link model between one Tx/Rx pair.
//
// A device's received field is the coherent Jones-domain sum over an
// explicit set of propagation paths: the direct LoS, the serving surface's
// transmissive/reflective path, cross-surface leakage paths to every other
// programmed surface of a deployment, and chained surface->surface relay
// segments. Each path carries its own Friis attenuation, carrier phase,
// endpoint-pattern scaling and coupling loss; the environment's multipath
// and interference floor compose on top.
//
// Contracts:
//
//  - Single link: a scene built by single_link() is the paper's testbed
//    (Fig. 14, transmissive or reflective, one surface between Tx and Rx).
//    Its outputs are pinned as hexfloats at 1e-12 for both modes, with and
//    without multipath, batched and unbatched
//    (tests/channel/single_link_pins.h).
//  - Frozen-contribution batching: a bias sweep over ONE surface evaluates
//    only that surface's paths per candidate response; every other path's
//    contribution is summed once into a FrozenEval. This keeps per-cell
//    sweep cost identical to the single-link hot path regardless of how
//    many surfaces the scene carries. The freeze also records the receive
//    side (rx Jones state, rx gain, interference floor), so a cell computes
//    none of the scene's per-freeze constants.
//  - Revision counter: every mutation (geometry, endpoint antennas) bumps
//    revision(). A FrozenEval records the revision it was built against
//    and evaluation throws std::logic_error when the scene has moved on — a
//    mid-run set_geometry() can no longer be silently served from stale
//    precomputed state. A scene's surfaces are fixed at construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/channel/antenna.h"
#include "src/channel/propagation.h"
#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/metasurface/metasurface.h"

namespace llama::channel {

/// Geometry of the paper's two experimental setups (Fig. 14).
struct LinkGeometry {
  /// Transmitter-to-receiver separation [m] (transmissive: through the
  /// surface; reflective: the direct LoS distance).
  double tx_rx_distance_m = 0.42;
  /// Transmitter-to-surface distance [m]; used in both modes. In the
  /// transmissive mode the surface sits between the endpoints at this
  /// distance from the transmitter.
  double tx_surface_distance_m = 0.21;
  /// Surface operating mode for this deployment.
  metasurface::SurfaceMode mode = metasurface::SurfaceMode::kTransmissive;

  /// Receiver-to-surface distance implied by the geometry [m].
  [[nodiscard]] double rx_surface_distance_m() const;
  /// Total surface-path length [m] (Tx->surface->Rx).
  [[nodiscard]] double surface_path_m() const;
};

/// Role of one term in the coherent sum.
enum class PathKind {
  kDirect,   ///< Tx -> Rx line of sight (no surface)
  kSurface,  ///< Tx -> home surface -> Rx (the serving surface's path)
  kLeakage,  ///< Tx -> another deployment surface -> Rx (off-lobe coupling)
  kRelay,    ///< Tx -> home surface -> relay surface -> Rx (chained hop)
};

/// One propagation path. Amplitude model: coupling * pattern *
/// friis_amplitude(f, length) * e^{-j(k*length + excess_phase)}, applied to
/// the cascade of the traversed surfaces' Jones responses.
struct PropagationPath {
  PathKind kind = PathKind::kDirect;
  /// Scene surface ids traversed, in propagation order (empty for kDirect).
  std::vector<std::size_t> surfaces;
  /// Total geometric length [m] (one Friis factor over the whole path).
  double length_m = 0.0;
  /// Endpoint-pattern amplitude factor (sqrt of off-boresight gain ratios).
  double pattern_scale = 1.0;
  /// Extra amplitude coupling (an unserved surface's lobe is not steered
  /// at this device; a surface->surface hop is not a perfect aperture).
  double coupling_scale = 1.0;
  /// Excess phase beyond the carrier phase over length_m [rad].
  double excess_phase_rad = 0.0;
  /// Spatial-index cell ordinal of the path's surface (-1: not a placed
  /// city path). freeze_except() aggregates frozen paths per cell so a
  /// retune of one cell's surfaces re-sums only that cell.
  std::int32_t cell = -1;
};

/// A non-serving deployment surface seen through its leakage path.
struct LeakageSurfaceSpec {
  /// Lateral offset from the serving surface's mount [m].
  double lateral_offset_m = 0.4;
  /// Amplitude coupling of the leakage path.
  double coupling = 0.15;
};

/// A second surface chained after the home surface: Tx -> home -> relay ->
/// Rx, composing both rotations (the range-extension topology).
struct RelaySurfaceSpec {
  /// Home-surface -> relay-surface hop length [m].
  double surface_surface_m = 1.0;
  /// Relay-surface -> receiver leg [m].
  double relay_rx_m = 1.0;
  /// Amplitude coupling of the surface->surface hop.
  double coupling = 0.9;
};

/// A non-serving surface placed by the city spatial index: its leakage
/// path geometry is fully resolved (total length through the surface's
/// actual mount position), unlike the ring-model LeakageSurfaceSpec whose
/// legs derive from the home geometry.
struct PlacedLeakageSpec {
  /// Total Tx -> surface -> device path length [m].
  double path_length_m = 1.0;
  /// Amplitude coupling of the off-lobe hop (SurfaceLayout::coupling_at).
  double coupling = 0.15;
  /// Spatial-index cell ordinal of the surface's mount (-1: unindexed).
  std::int32_t cell = -1;
  /// Deployment surface id this entry represents (scene ids are compact
  /// after pruning, so the mapping back must travel with the spec).
  std::size_t external_id = 0;
};

/// Declarative description of a scene's non-home surfaces. Part of the
/// codebook-relevant configuration: the compiler hashes it, so a codebook
/// compiled for one topology is rejected by a scene with another.
struct SceneSpec {
  std::vector<LeakageSurfaceSpec> leakage;
  std::vector<RelaySurfaceSpec> relays;
  /// City-scale surfaces placed by build_city_scene_spec (spatial_index.h),
  /// already pruned to the paths above the layout's amplitude cutoff.
  std::vector<PlacedLeakageSpec> placed;
  /// Sum over pruned paths of coupling / path_length [1/m]: multiplied by
  /// lambda/(4 pi) and the launch amplitude this bounds the field error
  /// pruning introduced (PropagationScene::pruned_field_bound).
  double pruned_coupling_over_length = 0.0;
  std::size_t pruned_count = 0;

  [[nodiscard]] bool empty() const {
    return leakage.empty() && relays.empty() && placed.empty();
  }
};

/// Coherent multi-path propagation graph between one Tx/Rx pair.
class PropagationScene {
 public:
  /// Scene surface id of the serving (home) surface.
  static constexpr std::size_t kHomeSurface = 0;

  /// Per-surface Jones responses for one evaluation, indexed by scene
  /// surface id. nullptr = surface absent/unprogrammed: the home
  /// transmissive surface degrades to free-space transmission (the frame
  /// still spans the LoS), every other missing surface drops its paths.
  using ResponseView = std::span<const em::JonesMatrix* const>;

  /// Single-link scene: the home surface only (paper Fig. 14).
  [[nodiscard]] static PropagationScene single_link(Antenna tx_antenna,
                                                    Antenna rx_antenna,
                                                    LinkGeometry geometry,
                                                    Environment environment);

  /// Single-link scene plus every surface of `spec`, in spec order
  /// (leakage surfaces first, then relays).
  [[nodiscard]] static PropagationScene from_spec(Antenna tx_antenna,
                                                  Antenna rx_antenna,
                                                  LinkGeometry geometry,
                                                  Environment environment,
                                                  SceneSpec spec);

  /// Mutations route through the scene so consumers holding precomputed
  /// state can detect drift: each bumps revision() and rebuilds the path
  /// table from the new geometry/antennas.
  void set_geometry(const LinkGeometry& g);
  void set_tx_antenna(Antenna a);
  void set_rx_antenna(Antenna a);

  /// Monotonic mutation counter; FrozenEvals built against an older value
  /// are rejected.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Like revision(), but set_rx_antenna does NOT bump it: the rx antenna
  /// is a tracked device's fast-changing end, while everything else in the
  /// scene is structural. Consumers that exclude the rx antenna from a
  /// derived value (the codebook config hash memoizes its expensive
  /// stack/scene prefix) key their memo on this counter so per-round
  /// re-orientation stays cache-hot.
  [[nodiscard]] std::uint64_t structural_revision() const {
    return structural_revision_;
  }

  [[nodiscard]] const Antenna& tx_antenna() const { return tx_; }
  [[nodiscard]] const Antenna& rx_antenna() const { return rx_; }
  /// Home-surface geometry (anchors the direct path and the multipath
  /// reference).
  [[nodiscard]] const LinkGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const Environment& environment() const { return env_; }
  /// Number of surfaces in the scene (>= 1; home is id 0).
  [[nodiscard]] std::size_t surface_count() const { return surface_count_; }
  [[nodiscard]] const std::vector<PropagationPath>& paths() const {
    return paths_;
  }
  /// The declarative spec the non-home surfaces were built from.
  [[nodiscard]] const SceneSpec& spec() const { return spec_; }

  /// Coherent field at the receiver (pre-antenna projection), environment
  /// multipath included.
  [[nodiscard]] em::JonesVector field_at_receiver(
      common::PowerDbm tx_power, common::Frequency f,
      ResponseView responses) const;

  /// Home surface driven by `surface` at its current bias (its response is
  /// taken at the home geometry's mode; nullptr = absent), every other
  /// surface absent — the static field a caller composes further paths
  /// onto (the respiration scenario adds the breathing body's replica).
  [[nodiscard]] em::JonesVector field_at_receiver(
      common::PowerDbm tx_power, common::Frequency f,
      const metasurface::Metasurface* surface) const;

  /// Received power: field -> polarization match -> rx gain -> plus the
  /// environment's incoherent interference floor.
  [[nodiscard]] common::PowerDbm received_power(common::PowerDbm tx_power,
                                                common::Frequency f,
                                                ResponseView responses) const;

  /// Home surface driven by `response`, every other surface absent — the
  /// pointwise probe of a one-surface link (a codebook lookup, a served
  /// retune request).
  [[nodiscard]] common::PowerDbm received_power_with_response(
      common::PowerDbm tx_power, common::Frequency f,
      const em::JonesMatrix& response) const;

  /// Every surface absent: the no-surface baseline a surface's gain is
  /// reported against.
  [[nodiscard]] common::PowerDbm received_power_without_surface(
      common::PowerDbm tx_power, common::Frequency f) const;

  /// Power delivered by path `path_index` alone (no multipath, no
  /// interference floor) — the interference bookkeeping quantity a
  /// deployment aggregates per leakage path. Zero when the path's
  /// surfaces are absent from `responses`.
  [[nodiscard]] common::PowerMw path_power(std::size_t path_index,
                                           common::PowerDbm tx_power,
                                           common::Frequency f,
                                           ResponseView responses) const;

  /// What turns a field at the receiver into a received power: the rx
  /// antenna's Jones state, its boresight gain (linear) and the
  /// environment's interference floor [mW].
  struct ReceiveSide {
    em::JonesVector state;
    double gain = 1.0;
    double interference_mw = 0.0;
  };

  /// Precomputed state for sweeping one surface's response: every path not
  /// traversing the swept surface is summed once into fixed_field; each
  /// swept path keeps its complex scale, pre-applied launch state and
  /// (for relays) the frozen post-cascade. The receive side is recorded
  /// too, so a swept cell pays only for its own paths' Jones math and the
  /// dBm conversion; it cannot go stale unnoticed, since set_rx_antenna
  /// bumps the revision like every other mutation.
  struct FrozenEval {
    std::uint64_t revision = 0;
    em::JonesVector tx_state;
    ReceiveSide rx;
    /// Frozen contributions of paths with no spatial cell (ring-model
    /// leakage, relays, the direct path).
    em::JonesVector fixed_field;
    /// Hierarchical aggregation: frozen placed paths pre-summed per
    /// spatial cell (order = first encounter in path order, a pure
    /// function of the scene). refreeze_cells() recomputes single cells.
    struct CellField {
      std::int32_t cell = -1;
      em::JonesVector field;
      /// Scene path indices summed into `field`.
      std::vector<std::size_t> path_indices;
    };
    std::vector<CellField> cell_fields;
    /// fixed_field + every cell field, summed in cell_fields order — the
    /// value received_power_swept starts from. Identical to fixed_field
    /// when the scene has no placed paths.
    em::JonesVector fixed_total;
    /// Carrier the freeze was taken at (refreeze_cells re-evaluates with
    /// the same carrier).
    double frequency_hz = 0.0;
    struct SweptTerm {
      em::Complex scale{0.0, 0.0};
      /// Launch state with the cascade before the swept surface applied.
      em::JonesVector state;
      /// Cascade after the swept surface (frozen responses), when any.
      em::JonesMatrix post;
      bool has_post = false;
    };
    std::vector<SweptTerm> terms;
    /// Swept surface is the transmissive home surface: environmental rays
    /// rescale per candidate response.
    bool swept_scales_rays = false;
    double ray_ref_base = 0.0;    ///< friis * endpoint suppression
    double frozen_ray_scale = 1.0;
    bool has_multipath = false;
    /// The environment's rays applied to tx_state (empty without
    /// multipath): a cell pays no rotation or phase of its own.
    std::vector<RayTerm> rays;
  };

  /// Freezes every contribution except surface `swept`'s. `frozen`
  /// supplies the non-swept surfaces' responses (the swept slot is
  /// ignored; pass an all-null view for quiet neighbors). Throws
  /// std::out_of_range on a bad surface id.
  [[nodiscard]] FrozenEval freeze_except(std::size_t swept,
                                         common::PowerDbm tx_power,
                                         common::Frequency f,
                                         ResponseView frozen) const;

  /// Received power with the swept surface at `response` and everything
  /// else as frozen. Equals received_power() with the same inputs at
  /// 1e-12, at single-link per-cell cost. Throws std::logic_error when
  /// the scene mutated after the freeze (stale plan).
  [[nodiscard]] common::PowerDbm received_power_swept(
      const FrozenEval& frozen, const em::JonesMatrix& response) const;

  /// Linear form of received_power_swept over a row of responses:
  /// out_mw[i] is the clamped power max(p, 1e-15) mW that
  /// received_power_swept(frozen, responses[i]) converts to dBm, computed
  /// by the same swept-field body, so PowerMw{out_mw[i]}.to_dbm() equals
  /// it bit for bit. The conversion is monotone (non-decreasing), so a
  /// caller that only needs the best few cells of a plane can rank in mW
  /// and convert just those (CodebookCompiler::compile does). Throws
  /// std::invalid_argument when the spans differ in length and
  /// std::logic_error when the scene mutated after the freeze.
  void received_mw_swept(const FrozenEval& frozen,
                         std::span<const em::JonesMatrix> responses,
                         std::span<double> out_mw) const;

  /// Recomputes only the named spatial cells' frozen fields (surfaces in
  /// those cells retuned; `frozen` supplies the new responses) and re-sums
  /// fixed_total in the original deterministic order — byte-identical to a
  /// fresh freeze_except with the same inputs, at O(retuned cells) instead
  /// of O(M) cost. Unknown cell ordinals are ignored (their surfaces were
  /// pruned from this device's scene). Throws std::logic_error when the
  /// scene mutated after the freeze.
  void refreeze_cells(FrozenEval& frozen,
                      std::span<const std::int32_t> cells,
                      ResponseView responses) const;

  /// Worst-case magnitude of the received-field error introduced by scene-
  /// build pruning (spec().pruned_coupling_over_length), in sqrt-mW at the
  /// receiver output: sum over pruned paths of coupling/length *
  /// lambda/(4 pi) * |launch state| * sqrt(rx boresight gain). Valid for
  /// any passive responses (||R|| <= 1) since endpoint pattern factors are
  /// <= 1; with powers in mW (interference floor subtracted),
  /// |sqrt(P_dense) - sqrt(P_pruned)| never exceeds this bound.
  [[nodiscard]] double pruned_field_bound(common::PowerDbm tx_power,
                                          common::Frequency f) const;

 private:
  PropagationScene(Antenna tx_antenna, Antenna rx_antenna,
                   LinkGeometry home_geometry, Environment environment,
                   SceneSpec spec);

  /// Response for a path surface, honoring the absence rules. Returns
  /// false when the path must be dropped.
  [[nodiscard]] bool resolve_path_field(const PropagationPath& path,
                                        common::Frequency f,
                                        ResponseView responses,
                                        const em::JonesVector& tx_state,
                                        em::JonesVector& out) const;

  [[nodiscard]] em::JonesVector launch_state(common::PowerDbm tx_power) const;
  [[nodiscard]] ReceiveSide receive_side() const;
  /// Field -> polarization match -> rx gain -> plus the interference
  /// floor, clamped at 1e-15 mW: the one power body of the pointwise and
  /// the swept paths (callers convert to dBm).
  [[nodiscard]] static double power_mw_from_field(const em::JonesVector& field,
                                                  const ReceiveSide& rx);
  /// Throws std::logic_error unless `frozen` carries the current revision.
  void require_fresh(const FrozenEval& frozen) const;
  /// friis(los) * endpoint suppression — the multipath reference before
  /// any surface transmission scale.
  [[nodiscard]] double multipath_reference(common::Frequency f) const;

  void rebuild_paths();

  Antenna tx_;
  Antenna rx_;
  LinkGeometry geometry_;
  Environment env_;
  SceneSpec spec_;
  std::size_t surface_count_ = 1;
  std::vector<PropagationPath> paths_;
  std::uint64_t revision_ = 0;
  std::uint64_t structural_revision_ = 0;
};

}  // namespace llama::channel
