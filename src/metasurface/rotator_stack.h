// The full polarization-rotator stack: QWP(+45°) | BFS boards | QWP(-45°),
// combined at the Jones level (paper Eq. 2 and Fig. 6a).
#pragma once

#include <vector>

#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/metasurface/board.h"

namespace llama::metasurface {

/// Fraction of the first face's birefringence that couples into the
/// specular return (see RotatorStack::reflection). Shared by the scalar
/// reflection paths and the SoA kernels (src/kernel) so the two models can
/// never drift apart.
inline constexpr microwave::Complex kFrontBirefringence{0.3, 0.0};
/// Aperture-spillover attenuation of the deep round-trip component.
inline constexpr microwave::Complex kDeepPathWeight{0.15, 0.0};

/// Bias-independent part of the front-face specular reflection built from
/// the per-axis reflection coefficients (shared by the scalar planned and
/// SoA-kernel reflection paths so the two stay in agreement).
[[nodiscard]] em::JonesMatrix front_gamma(microwave::Complex r0x,
                                          microwave::Complex r0y,
                                          common::Angle rotation);

/// Transmission efficiency of paper Eq. 11 read off a transmission Jones
/// matrix: |S_co|^2 + |S_cross|^2 of the excited column, in dB.
[[nodiscard]] double transmission_efficiency_db(const em::JonesMatrix& t,
                                                bool y_excitation);

/// One element of the stack: a board physically rotated in the surface
/// plane, followed by an air gap to the next board.
struct StackElement {
  Board board;
  common::Angle rotation;     ///< physical rotation of the board's axes
  double gap_after_m = 0.0;   ///< air spacing to the next element
  bool tunable = false;       ///< biased by the (Vx, Vy) control pair
};

/// Layered polarization rotator driven by two bias voltages.
///
/// Hot-path note: thousands of control-loop probes evaluate the same stack
/// at one frequency with only (Vx, Vy) changing. The plan_*() factories
/// precompute every bias-independent piece — static boards' Jones matrices,
/// air-gap phases, slab ABCD matrices and fixed-pattern admittances — so the
/// per-probe work collapses to the tunable boards' varactor-loaded
/// two-ports. The planned overloads are the one scalar cascade; the
/// (f, vx, vy) overloads build a plan and evaluate it once.
class RotatorStack {
 public:
  /// One step of a per-frequency transmission plan: either a fully
  /// precomputed static element or a tunable element whose board is
  /// re-solved per bias through its BoardFrequencyPlan. A tunable step
  /// carries cos/sin of its rotation (the R that JonesMatrix::rotated builds)
  /// rather than the angle. When its board plan and varactor equal the
  /// previous tunable step's, its diag(tx, ty) is equal too at every bias, so
  /// it is marked `repeats_previous` and transmission() reuses that solve.
  struct TransmissionStep {
    bool tunable = false;
    bool repeats_previous = false;    ///< reuse the last tunable solve
    std::size_t index = 0;            ///< element index
    em::JonesMatrix fixed_jones;      ///< rotated Jones (static steps)
    BoardFrequencyPlan board_plan;    ///< per-frequency state (tunable steps)
    double cos_rotation = 1.0;        ///< cos of the rotation (tunable steps)
    double sin_rotation = 0.0;        ///< sin of the rotation (tunable steps)
    microwave::Complex gap_factor{1.0, 0.0};  ///< e^{-jkd} after the element
    bool has_gap = false;
  };

  /// Bias-independent precomputation of transmission() at one frequency.
  /// The static elements ahead of the first tunable one, with their gaps,
  /// are multiplied into `prefix` at plan time in the order the per-bias
  /// loop would multiply them, so `steps` starts at the first tunable
  /// element. With a tunable first element the prefix is the identity; with
  /// no tunable element it is the whole stack and `steps` is empty.
  struct TransmissionPlan {
    common::Frequency frequency;
    em::JonesMatrix prefix = em::JonesMatrix::identity();
    std::vector<TransmissionStep> steps;
  };

  /// Bias-independent precomputation of reflection() at one frequency: the
  /// forward cascade through the leading fixed boards, plus the per-frequency
  /// plan of the board the deep bounce reflects off.
  struct ReflectionPlan {
    common::Frequency frequency;
    em::JonesMatrix forward;          ///< prefix cascade (bias-independent)
    std::size_t target_index = 0;     ///< element the deep bounce reflects off
    bool target_uses_bias = false;
    BoardFrequencyPlan target_plan;
    /// The first element is tunable, so it is also the deep-bounce target:
    /// the front face's per-bias S11 are the target's, solved once.
    bool front_is_target = false;
    em::JonesMatrix gamma_front;      ///< precomputed unless front_is_target
  };

  explicit RotatorStack(std::vector<StackElement> elements);

  [[nodiscard]] const std::vector<StackElement>& elements() const {
    return elements_;
  }

  /// Transmission Jones matrix of the entire stack at frequency f under
  /// bias (vx, vy). Boards are composed per paper Eq. 2; air gaps add a
  /// common propagation phase (they are isotropic). One-shot convenience:
  /// plans f and evaluates the plan, so loops over biases at one frequency
  /// should hold the plan themselves.
  [[nodiscard]] em::JonesMatrix transmission(common::Frequency f,
                                             common::Voltage vx,
                                             common::Voltage vy) const;

  /// Reflection Jones matrix seen from the front face. The dominant
  /// contribution travels through the front boards, reflects off the first
  /// strongly mismatched interface of the tunable section, and returns; on
  /// the return pass the geometric rotation is traversed in the opposite
  /// sense, which is why rotation largely cancels in reflective operation
  /// (the paper's Section 5.2.1 observation). One-shot convenience like
  /// transmission(f, vx, vy).
  [[nodiscard]] em::JonesMatrix reflection(common::Frequency f,
                                           common::Voltage vx,
                                           common::Voltage vy) const;

  /// Precomputes the bias-independent transmission cascade at frequency f.
  [[nodiscard]] TransmissionPlan plan_transmission(common::Frequency f) const;

  /// Precomputes the bias-independent reflection cascade at frequency f.
  [[nodiscard]] ReflectionPlan plan_reflection(common::Frequency f) const;

  /// transmission(f, vx, vy) against a plan from plan_transmission. The
  /// plan must have been created by this stack.
  [[nodiscard]] em::JonesMatrix transmission(const TransmissionPlan& plan,
                                             common::Voltage vx,
                                             common::Voltage vy) const;

  /// reflection(f, vx, vy) against a plan from plan_reflection. The plan
  /// must have been created by this stack.
  [[nodiscard]] em::JonesMatrix reflection(const ReflectionPlan& plan,
                                           common::Voltage vx,
                                           common::Voltage vy) const;

  /// Transmission efficiency of paper Eq. 11 for an x- or y-polarized
  /// excitation: |S_co|^2 + |S_cross|^2 in dB.
  [[nodiscard]] double transmission_efficiency_db(common::Frequency f,
                                                  common::Voltage vx,
                                                  common::Voltage vy,
                                                  bool y_excitation) const;

  /// Net polarization rotation angle imparted on a linearly polarized wave
  /// (the paper's theta_r = delta/2).
  [[nodiscard]] common::Angle rotation_angle(common::Frequency f,
                                             common::Voltage vx,
                                             common::Voltage vy) const;

  /// Total board thickness plus gaps [m] (the paper's prototype is 5 mm of
  /// PCB in a 480x480 mm aperture).
  [[nodiscard]] double total_thickness_m() const;

 private:
  std::vector<StackElement> elements_;
};

}  // namespace llama::metasurface
