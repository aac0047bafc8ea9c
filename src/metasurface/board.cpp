#include "src/metasurface/board.h"

#include <cmath>
#include <stdexcept>

#include "src/common/constants.h"
#include "src/microwave/transmission_line.h"

namespace llama::metasurface {

using microwave::Abcd;
using microwave::Complex;

Complex FacePattern::admittance(common::Frequency f, common::Voltage bias,
                                const microwave::Varactor& varactor,
                                double substrate_tan_d) const {
  if (empty()) return Complex{0.0, 0.0};
  const double omega = 2.0 * common::kPi * f.in_hz();
  const Complex j{0.0, 1.0};
  Complex y_total{0.0, 0.0};
  // Inductive strip branch.
  if (inductance_h > 0.0) {
    const Complex z_l = Complex{r_inductor_ohm, 0.0} + j * omega * inductance_h;
    y_total += 1.0 / z_l;
  }
  // Capacitive gap branch (optionally varactor-loaded).
  if (capacitance_f > 0.0 || varactor_loaded) {
    Complex z_c{0.0, 0.0};
    if (capacitance_f > 0.0) {
      // Lossy gap capacitance: complex C models dielectric dissipation in
      // the substrate between the metal edges.
      const Complex c_eff = capacitance_f * Complex{1.0, -substrate_tan_d};
      z_c += 1.0 / (j * omega * c_eff);
    }
    if (varactor_loaded) {
      z_c += varactor.impedance(omega, bias);
    }
    if (std::abs(z_c) < 1e-9) z_c = Complex{1e-9, 0.0};
    y_total += 1.0 / z_c;
  }
  return y_total;
}

Complex FacePlan::admittance(double omega, common::Voltage bias,
                             const microwave::Varactor& varactor) const {
  if (!dynamic) return y_static;
  Complex z_c = z_fixed + varactor.impedance(omega, bias);
  if (std::abs(z_c) < 1e-9) z_c = Complex{1e-9, 0.0};
  return y_static + 1.0 / z_c;
}

Board::Board(std::string name, microwave::Substrate substrate,
             double thickness_m, AxisPatterns x_axis, AxisPatterns y_axis,
             microwave::Varactor varactor)
    : name_(std::move(name)),
      substrate_(std::move(substrate)),
      thickness_m_(thickness_m),
      x_(x_axis),
      y_(y_axis),
      varactor_(varactor) {
  if (thickness_m_ <= 0.0)
    throw std::invalid_argument{"Board: thickness must be positive"};
}

microwave::SParams Board::axis_sparams(common::Frequency f,
                                       common::Voltage bias,
                                       bool y_axis) const {
  return axis_sparams(make_frequency_plan(f), bias, y_axis);
}

Complex Board::axis_transmission(common::Frequency f, common::Voltage bias,
                                 bool y_axis) const {
  return axis_sparams(f, bias, y_axis).s21;
}

Complex Board::axis_reflection(common::Frequency f, common::Voltage bias,
                               bool y_axis) const {
  return axis_sparams(f, bias, y_axis).s11;
}

em::JonesMatrix Board::jones_transmission(common::Frequency f,
                                          common::Voltage vx,
                                          common::Voltage vy) const {
  return jones_transmission(make_frequency_plan(f), vx, vy);
}

namespace {

/// Builds the per-frequency plan of one face. Static faces get their full
/// admittance baked in via FacePattern::admittance; dynamic faces keep only
/// the inductive branch and the fixed gap-C impedance, mirroring the term
/// grouping of FacePattern::admittance so both agree bit for bit.
FacePlan plan_face(const FacePattern& face, common::Frequency f,
                   const microwave::Varactor& varactor, double tan_d) {
  FacePlan plan;
  plan.present = !face.empty();
  if (!plan.present) return plan;
  plan.dynamic = face.varactor_loaded;
  if (!plan.dynamic) {
    plan.y_static = face.admittance(f, common::Voltage{0.0}, varactor, tan_d);
    return plan;
  }
  const double omega = 2.0 * common::kPi * f.in_hz();
  const Complex j{0.0, 1.0};
  if (face.inductance_h > 0.0) {
    const Complex z_l =
        Complex{face.r_inductor_ohm, 0.0} + j * omega * face.inductance_h;
    plan.y_static = 1.0 / z_l;
  }
  if (face.capacitance_f > 0.0) {
    const Complex c_eff = face.capacitance_f * Complex{1.0, -tan_d};
    plan.z_fixed = 1.0 / (j * omega * c_eff);
  }
  return plan;
}

}  // namespace

BoardFrequencyPlan Board::make_frequency_plan(common::Frequency f) const {
  BoardFrequencyPlan plan;
  plan.omega = 2.0 * common::kPi * f.in_hz();
  const double tan_d = substrate_.loss_tangent();
  const microwave::Abcd slab =
      microwave::DielectricSlab{substrate_, thickness_m_}.abcd(f);
  plan.x.front = plan_face(x_.front, f, varactor_, tan_d);
  plan.x.back = plan_face(x_.back, f, varactor_, tan_d);
  plan.x.slab = slab;
  plan.y.front = plan_face(y_.front, f, varactor_, tan_d);
  plan.y.back = plan_face(y_.back, f, varactor_, tan_d);
  plan.y.slab = slab;
  return plan;
}

namespace {

/// ABCD cascade front face | slab | back face of one axis under `bias`; the
/// slab ABCD and static admittances come from the plan instead of being
/// re-derived. Every planned per-axis query reads its S-parameters off this
/// one chain, so they all agree bit for bit.
Abcd axis_chain(const BoardAxisPlan& ax, double omega, common::Voltage bias,
                const microwave::Varactor& varactor) {
  Abcd chain = Abcd::identity();
  if (ax.front.present)
    chain = chain * Abcd::shunt(ax.front.admittance(omega, bias, varactor));
  chain = chain * ax.slab;
  if (ax.back.present)
    chain = chain * Abcd::shunt(ax.back.admittance(omega, bias, varactor));
  return chain;
}

}  // namespace

microwave::SParams Board::axis_sparams(const BoardFrequencyPlan& plan,
                                       common::Voltage bias,
                                       bool y_axis) const {
  return axis_chain(y_axis ? plan.y : plan.x, plan.omega, bias, varactor_)
      .to_sparams();
}

Complex Board::axis_reflection(const BoardFrequencyPlan& plan,
                               common::Voltage bias, bool y_axis) const {
  return axis_chain(y_axis ? plan.y : plan.x, plan.omega, bias, varactor_)
      .s11();
}

em::JonesMatrix Board::jones_transmission(const BoardFrequencyPlan& plan,
                                          common::Voltage vx,
                                          common::Voltage vy) const {
  const Complex tx = axis_chain(plan.x, plan.omega, vx, varactor_).s21();
  const Complex ty = axis_chain(plan.y, plan.omega, vy, varactor_).s21();
  return em::JonesMatrix{tx, Complex{0.0, 0.0}, Complex{0.0, 0.0}, ty};
}

}  // namespace llama::metasurface
