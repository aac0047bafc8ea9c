// One patterned PCB of the metasurface stack, modelled as an anisotropic
// two-port per polarization axis.
//
// Each board is a dielectric slab with printed admittance patterns on its
// faces (paper Fig. 6: "The metallic patterns plated on the substrate boards
// act as admittance components"). The X and Y axes see different patterns,
// which is what makes the board birefringent. A face pattern is a parallel
// LC tank — the paper's BFS loads the tank's capacitive branch with an
// SMV1233 varactor ("used as part of an LC tank circuit for the X and Y
// planes"), so the bias voltage detunes the tank and shifts the transmission
// phase of that axis.
//
// Loss enters in two physically distinct ways, which is exactly the paper's
// Rogers-vs-FR4 story: (1) bulk attenuation in the slab (propagation
// constant of the lossy dielectric), and (2) dissipation in the pattern
// capacitance, whose ESR is proportional to the substrate loss tangent —
// resonant patterns circulate large currents, so a 22x higher tan-delta
// (FR4) multiplies the per-face loss by the same factor.
//
// The per-axis response is solved exactly within the board (ABCD cascade of
// face-shunt / slab / face-shunt); boards are then combined at the Jones
// level per paper Eq. 2.
#pragma once

#include <string>

#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/microwave/substrate.h"
#include "src/microwave/two_port.h"
#include "src/microwave/varactor.h"

namespace llama::metasurface {

/// Admittance pattern printed on one face, seen by one polarization axis.
/// Electrically: a shunt element Y = Y_L + Y_C with
///   Y_L = 1 / (R_L + j w L)                  (inductive strip branch)
///   Y_C = 1 / (Z_Cfixed + Z_varactor)        (capacitive gap branch)
/// where the fixed capacitance carries the substrate's loss tangent and the
/// varactor (if loaded) adds C(V) plus its series resistance.
struct FacePattern {
  double inductance_h = 0.0;     ///< strip inductance; 0 = branch absent
  double r_inductor_ohm = 0.0;   ///< conductor loss of the strip
  double capacitance_f = 0.0;    ///< fixed gap capacitance; 0 = branch absent
  bool varactor_loaded = false;  ///< varactor in series with the gap C

  [[nodiscard]] bool empty() const {
    return inductance_h <= 0.0 && capacitance_f <= 0.0 && !varactor_loaded;
  }

  /// Shunt admittance of this face at frequency f. `bias` is consulted only
  /// when `varactor_loaded`.
  [[nodiscard]] microwave::Complex admittance(
      common::Frequency f, common::Voltage bias,
      const microwave::Varactor& varactor, double substrate_tan_d) const;
};

/// Per-axis description: the patterns on the front and back face.
struct AxisPatterns {
  FacePattern front;
  FacePattern back;
};

/// Precomputed frequency-dependent state of one face. For a fixed pattern
/// the full shunt admittance is baked in; for a varactor-loaded pattern the
/// bias-independent pieces (inductive-branch admittance, fixed gap-C
/// impedance) are precomputed and only the diode impedance remains per bias.
struct FacePlan {
  bool present = false;  ///< face carries a pattern at all
  bool dynamic = false;  ///< admittance depends on the bias voltage
  /// Full admittance (static face) or the inductive-branch admittance alone
  /// (dynamic face).
  microwave::Complex y_static{0.0, 0.0};
  /// Fixed gap-capacitance impedance in series with the varactor (dynamic
  /// faces only; zero when the pattern has no fixed capacitor).
  microwave::Complex z_fixed{0.0, 0.0};

  /// Shunt admittance at this plan's frequency under `bias`. Matches
  /// FacePattern::admittance bit-for-bit.
  [[nodiscard]] microwave::Complex admittance(
      double omega, common::Voltage bias,
      const microwave::Varactor& varactor) const;

  friend bool operator==(const FacePlan&, const FacePlan&) = default;
};

/// Per-axis precomputation: both face plans plus the slab's ABCD matrix
/// (complex exp/trig, the dominant cost of building a plan, and entirely
/// bias-independent).
struct BoardAxisPlan {
  FacePlan front;
  FacePlan back;
  microwave::Abcd slab;

  friend bool operator==(const BoardAxisPlan&, const BoardAxisPlan&) = default;
};

/// Everything about a board that depends only on frequency. Two boards
/// whose plans and varactors compare equal give bit-identical responses at
/// every bias (RotatorStack::plan_transmission relies on this to solve a
/// repeated board once).
struct BoardFrequencyPlan {
  double omega = 0.0;
  BoardAxisPlan x;
  BoardAxisPlan y;

  friend bool operator==(const BoardFrequencyPlan&,
                         const BoardFrequencyPlan&) = default;
};

/// A patterned board: substrate + thickness + X/Y axis patterns.
class Board {
 public:
  Board(std::string name, microwave::Substrate substrate, double thickness_m,
        AxisPatterns x_axis, AxisPatterns y_axis,
        microwave::Varactor varactor = microwave::Varactor::smv1233());

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const microwave::Substrate& substrate() const {
    return substrate_;
  }
  [[nodiscard]] double thickness_m() const { return thickness_m_; }

  /// The varactor model loaded into this board's dynamic faces. The SoA
  /// kernels (src/kernel) need it to run the per-bias admittance solve on
  /// whole lanes; its parameters feed FacePlan::admittance either way.
  [[nodiscard]] const microwave::Varactor& varactor() const {
    return varactor_;
  }

  /// Full two-port of one axis at frequency f and axis bias voltage
  /// (ignored by fixed patterns): front face | slab | back face. One-shot
  /// convenience: builds a frequency plan and evaluates it, so repeated
  /// queries at one frequency should hold the plan themselves.
  [[nodiscard]] microwave::SParams axis_sparams(common::Frequency f,
                                                common::Voltage bias,
                                                bool y_axis) const;

  /// Complex transmission coefficient of one axis.
  [[nodiscard]] microwave::Complex axis_transmission(common::Frequency f,
                                                     common::Voltage bias,
                                                     bool y_axis) const;

  /// Complex reflection coefficient of one axis (front side).
  [[nodiscard]] microwave::Complex axis_reflection(common::Frequency f,
                                                   common::Voltage bias,
                                                   bool y_axis) const;

  /// Jones transmission matrix in the board's own eigenbasis: diag(tx, ty).
  /// One-shot convenience over make_frequency_plan, like axis_sparams.
  [[nodiscard]] em::JonesMatrix jones_transmission(common::Frequency f,
                                                   common::Voltage vx,
                                                   common::Voltage vy) const;

  /// Precomputes the bias-independent state for frequency f. The plan is a
  /// value type tied to this board; evaluating it through the overloads
  /// below re-solves only the varactor-loaded faces per bias, skipping the
  /// slab ABCD (complex exponentials) and all fixed-pattern admittances.
  [[nodiscard]] BoardFrequencyPlan make_frequency_plan(
      common::Frequency f) const;

  /// axis_sparams(f, bias, y_axis) against a plan from make_frequency_plan.
  [[nodiscard]] microwave::SParams axis_sparams(const BoardFrequencyPlan& plan,
                                                common::Voltage bias,
                                                bool y_axis) const;

  /// axis_sparams(plan, bias, y_axis).s11, bit-identical, without solving
  /// the other three S-parameters.
  [[nodiscard]] microwave::Complex axis_reflection(
      const BoardFrequencyPlan& plan, common::Voltage bias, bool y_axis) const;

  /// jones_transmission(f, vx, vy) against a plan from make_frequency_plan:
  /// diag(axis_sparams(plan, vx, x).s21, axis_sparams(plan, vy, y).s21),
  /// bit-identical, solving only s21 per axis.
  [[nodiscard]] em::JonesMatrix jones_transmission(
      const BoardFrequencyPlan& plan, common::Voltage vx,
      common::Voltage vy) const;

 private:
  std::string name_;
  microwave::Substrate substrate_;
  double thickness_m_;
  AxisPatterns x_;
  AxisPatterns y_;
  microwave::Varactor varactor_;
};

}  // namespace llama::metasurface
