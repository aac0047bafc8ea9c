// Wave propagation: free-space (Friis) path loss and a stochastic multipath
// model that distinguishes the paper's absorber-clad chamber from its
// "rich multipath" laboratory (Figs. 18 vs 19).
#pragma once

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/em/jones.h"

namespace llama::channel {

/// Free-space amplitude attenuation over `distance_m` at frequency f:
/// |a| = lambda / (4 pi d) (the square of which is the Friis power loss,
/// paper ref. [14]).
[[nodiscard]] double friis_amplitude(common::Frequency f, double distance_m);

/// Friis power loss in dB (positive number = loss).
[[nodiscard]] common::GainDb friis_loss_db(common::Frequency f,
                                           double distance_m);

/// Range-extension factor implied by a link-power gain under Friis
/// propagation: d2/d1 = 10^(gain_dB / 20). The paper quotes 15 dBm gain
/// => 5.6x distance.
[[nodiscard]] double friis_range_extension(common::GainDb gain);

/// Plane-wave propagation factor over distance d: Friis amplitude with
/// carrier phase. Phase is what makes paths interfere (direct vs surface
/// in the reflective geometry, surface vs leakage/relay in a scene).
[[nodiscard]] em::Complex propagation_factor(common::Frequency f,
                                             double distance_m);

/// Representative off-axis angle of environmental reflections; used to
/// compute how much endpoint directivity suppresses multipath
/// (PropagationScene's multipath reference).
inline constexpr double kMultipathOffAxisDeg = 60.0;

/// One secondary propagation path: a delayed, attenuated, re-polarized
/// replica produced by an environmental reflector.
struct MultipathRay {
  double amplitude_scale;     ///< relative to the LoS amplitude
  double phase_rad;           ///< excess phase at the carrier
  common::Angle polarization_rotation;  ///< reflector-induced rotation
};

/// Environment descriptor. The absorber chamber has no secondary rays;
/// the laboratory draws `ray_count` random rays once (frozen channel) and
/// additionally carries an ambient interference floor (other 2.4 GHz
/// occupants of a working lab), which is what eventually defeats the
/// control loop at very low transmit power (paper Fig. 19a).
class Environment {
 public:
  /// Paper's controlled setup: test area covered with absorbing material.
  [[nodiscard]] static Environment absorber_chamber();

  /// A clean (ray-free) environment with an ambient in-band interference
  /// floor — e.g. the occupied building where the sensing case study ran.
  [[nodiscard]] static Environment with_interference(
      common::PowerDbm floor);

  /// Paper's laboratory: rich multipath. `mean_ray_amplitude` is relative
  /// to LoS; rays persist for the lifetime of the Environment (the room
  /// does not move).
  [[nodiscard]] static Environment laboratory(common::Rng& rng,
                                              int ray_count = 6,
                                              double mean_ray_amplitude = 0.2);

  [[nodiscard]] const std::vector<MultipathRay>& rays() const { return rays_; }
  [[nodiscard]] bool has_multipath() const { return !rays_.empty(); }

  /// Ambient in-band interference power (-inf-like when clean).
  [[nodiscard]] common::PowerDbm interference_floor() const {
    return interference_floor_;
  }

  /// Std-dev [dB] of the bursty component riding on the interference floor
  /// (Wi-Fi traffic is not a constant carrier). Per-measurement bursts are
  /// what defeat the control loop when the signal sinks toward the floor
  /// (paper Fig. 19a's low-power regime).
  [[nodiscard]] double interference_burst_std_db() const {
    return interference_burst_std_db_;
  }

 private:
  std::vector<MultipathRay> rays_;
  common::PowerDbm interference_floor_{-150.0};
  double interference_burst_std_db_ = 0.0;
};

/// One environmental ray applied to a transmitted state: everything about
/// the ray that does not depend on the link's Friis reference. Within a
/// freeze (or one pointwise evaluation) the ray's rotation and carrier
/// phase are constant, so they are evaluated once here rather than per
/// bias cell.
struct RayTerm {
  double amplitude_scale = 0.0;  ///< MultipathRay::amplitude_scale
  em::Complex phase{1.0, 0.0};   ///< e^{j phase_rad}
  em::JonesVector rotated_state; ///< R(polarization_rotation) * tx_state
};

/// The ray terms of every ray of `env` for the transmitted state
/// `tx_state`, in ray order.
[[nodiscard]] std::vector<RayTerm> ray_terms(const Environment& env,
                                             const em::JonesVector& tx_state);

/// Composes the field at the receiver: LoS Jones state (already scaled by
/// Friis amplitude and any surface response) plus each ray term scaled by
/// (friis_amp * amplitude_scale) * phase. Used by PropagationScene; exposed
/// for tests.
[[nodiscard]] em::JonesVector combine_multipath(const em::JonesVector& los_at_rx,
                                                std::span<const RayTerm> rays,
                                                double friis_amp);

}  // namespace llama::channel
