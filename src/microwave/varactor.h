// Varactor diode model (Skyworks SMV1233).
//
// The paper loads the BFS layer with SMV1233 varactors as the voltage-
// controlled capacitance of an LC tank: "Lumped capacitances ranging from
// 0.84 pF to 2.41 pF were used ... reverse bias voltages from 2 V to 15 V
// would realize these capacitance values" (paper Section 3.2). The standard
// junction-capacitance law C(V) = Cj0 / (1 + V/Vj)^M is fit to those two
// anchor points.
#pragma once

#include <complex>

#include "src/common/units.h"

namespace llama::microwave {

/// Voltage-dependent junction capacitance of a reverse-biased varactor.
class Varactor {
 public:
  /// Generic junction model: C(V) = cj0 / (1 + V/vj)^m + c_parasitic.
  Varactor(double cj0_farad, double vj_volt, double m,
           double c_parasitic_farad, double series_resistance_ohm);

  /// The SMV1233 as used in the paper's LC tank: calibrated so that
  /// C(2 V) ~= 2.41 pF and C(15 V) ~= 0.84 pF.
  [[nodiscard]] static Varactor smv1233();

  /// The fabricated prototype's effective tuning curve: "the effective
  /// reverse bias voltage of the varactor diodes may need to be as high as
  /// 30 V ... due to the fabrication and assemble errors" (paper Section
  /// 3.3). Modelled as the ideal C(V) stretched along the bias axis by
  /// `bias_derating` (2.0 maps the ideal 0-15 V curve onto 0-30 V).
  [[nodiscard]] Varactor derated(double bias_derating) const;

  /// Junction capacitance at reverse bias v [F]. Bias below 0 V is clamped
  /// to 0 (the paper sweeps 0-30 V; above ~20 V the curve flattens).
  [[nodiscard]] double capacitance(common::Voltage v) const;

  /// Effective series resistance [ohm] (loss inside the diode).
  [[nodiscard]] double series_resistance() const { return rs_; }

  /// Series impedance of the diode at angular frequency omega [rad/s] and
  /// reverse bias v: Rs + 1/(j omega C(v)). This is the only bias-dependent
  /// impedance in the whole stack, which is what the per-frequency response
  /// plans exploit: everything else is computed once per frequency.
  /// The lane twin in src/kernel/board_kernels.cpp solves the same C(V) and
  /// admittance per bias lane; keep the two in lockstep (the tests/kernel
  /// golden suite bounds divergence at 1e-12).
  [[nodiscard]] std::complex<double> impedance(double omega,
                                               common::Voltage v) const;

  /// Inverse map: reverse bias that realizes capacitance c [V], clamped to
  /// [0, 30] V. Used by tests and by the controller's calibration path.
  [[nodiscard]] common::Voltage bias_for_capacitance(double c_farad) const;

  /// Parameter-wise equality: equal varactors have the same C(V) and
  /// impedance at every bias.
  friend bool operator==(const Varactor&, const Varactor&) = default;

 private:
  double cj0_;
  double vj_;
  double m_;
  double cpar_;
  double rs_;
};

}  // namespace llama::microwave
