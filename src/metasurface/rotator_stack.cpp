#include "src/metasurface/rotator_stack.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/constants.h"

namespace llama::metasurface {

using em::JonesMatrix;
using microwave::Complex;

RotatorStack::RotatorStack(std::vector<StackElement> elements)
    : elements_(std::move(elements)) {
  if (elements_.empty())
    throw std::invalid_argument{"RotatorStack: need at least one element"};
}

namespace {

/// Isotropic air-gap propagation factor e^{-j k d}.
Complex gap_phase(common::Frequency f, double gap_m) {
  const double k = 2.0 * common::kPi * f.in_hz() / common::kSpeedOfLight;
  return std::exp(Complex{0.0, -k * gap_m});
}

/// Rotated Jones matrix of a static (unbiased) element.
JonesMatrix fixed_jones(const StackElement& e, common::Frequency f) {
  const common::Voltage v0{0.0};
  return e.board.jones_transmission(f, v0, v0).rotated(e.rotation);
}

}  // namespace

JonesMatrix front_gamma(Complex r0x, Complex r0y, common::Angle rotation) {
  const Complex r_mean = 0.5 * (r0x + r0y);
  const JonesMatrix gamma_aniso =
      JonesMatrix{r0x - r_mean, Complex{0, 0}, Complex{0, 0}, r0y - r_mean}
          .rotated(rotation);
  return r_mean * JonesMatrix::identity() + kFrontBirefringence * gamma_aniso;
}

JonesMatrix RotatorStack::transmission(common::Frequency f, common::Voltage vx,
                                       common::Voltage vy) const {
  return transmission(plan_transmission(f), vx, vy);
}

JonesMatrix RotatorStack::reflection(common::Frequency f, common::Voltage vx,
                                     common::Voltage vy) const {
  return reflection(plan_reflection(f), vx, vy);
}

RotatorStack::TransmissionPlan RotatorStack::plan_transmission(
    common::Frequency f) const {
  TransmissionPlan plan;
  plan.frequency = f;
  plan.steps.reserve(elements_.size());
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const StackElement& e = elements_[i];
    TransmissionStep step;
    step.tunable = e.tunable;
    step.index = i;
    if (e.tunable) {
      step.board_plan = e.board.make_frequency_plan(f);
      step.rotation = e.rotation;
    } else {
      step.fixed_jones = fixed_jones(e, f);
    }
    if (e.gap_after_m > 0.0) {
      step.has_gap = true;
      step.gap_factor = gap_phase(f, e.gap_after_m);
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

JonesMatrix RotatorStack::transmission(const TransmissionPlan& plan,
                                       common::Voltage vx,
                                       common::Voltage vy) const {
  // Paper Eq. 2: J_out = M_N ... M_2 M_1 J_in — the first element hit by the
  // wave multiplies from the right. Air gaps add a common propagation phase.
  // Static elements come precomputed; tunable boards are re-solved per bias.
  JonesMatrix total = JonesMatrix::identity();
  for (const TransmissionStep& step : plan.steps) {
    if (step.tunable) {
      const StackElement& e = elements_[step.index];
      total = e.board.jones_transmission(step.board_plan, vx, vy)
                  .rotated(step.rotation) *
              total;
    } else {
      total = step.fixed_jones * total;
    }
    if (step.has_gap) total = step.gap_factor * total;
  }
  return total;
}

RotatorStack::ReflectionPlan RotatorStack::plan_reflection(
    common::Frequency f) const {
  ReflectionPlan plan;
  plan.frequency = f;
  // Dominant single-bounce model: propagate through the leading fixed
  // boards, reflect off the tunable section (per-axis S11 in its eigenbasis),
  // and traverse the leading boards backwards. The target is the first
  // tunable element, else the last element with the prefix rebuilt over all
  // but the last. Elements ahead of the first tunable one are by definition
  // bias-independent, so the forward cascade is always precomputable.
  JonesMatrix forward = JonesMatrix::identity();
  std::size_t target = elements_.size();
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const StackElement& e = elements_[i];
    if (e.tunable) {
      target = i;
      break;
    }
    forward = fixed_jones(e, f) * forward;
    if (e.gap_after_m > 0.0) forward = gap_phase(f, e.gap_after_m) * forward;
  }
  if (target == elements_.size()) {
    target = elements_.size() - 1;
    forward = JonesMatrix::identity();
    for (std::size_t i = 0; i + 1 < elements_.size(); ++i) {
      forward = fixed_jones(elements_[i], f) * forward;
      if (elements_[i].gap_after_m > 0.0)
        forward = gap_phase(f, elements_[i].gap_after_m) * forward;
    }
  }
  plan.forward = forward;
  plan.target_index = target;
  plan.target_uses_bias = elements_[target].tunable;
  plan.target_plan = elements_[target].board.make_frequency_plan(f);

  const StackElement& first = elements_.front();
  plan.front_uses_bias = first.tunable;
  plan.front_plan = first.board.make_frequency_plan(f);
  if (!first.tunable) {
    const common::Voltage v0{0.0};
    const Complex r0x =
        first.board.axis_sparams(plan.front_plan, v0, /*y_axis=*/false).s11;
    const Complex r0y =
        first.board.axis_sparams(plan.front_plan, v0, /*y_axis=*/true).s11;
    plan.gamma_front = front_gamma(r0x, r0y, first.rotation);
  }
  return plan;
}

JonesMatrix RotatorStack::reflection(const ReflectionPlan& plan,
                                     common::Voltage vx,
                                     common::Voltage vy) const {
  const StackElement& target = elements_[plan.target_index];
  const common::Voltage bx = plan.target_uses_bias ? vx : common::Voltage{0.0};
  const common::Voltage by = plan.target_uses_bias ? vy : common::Voltage{0.0};
  const Complex rx =
      target.board.axis_sparams(plan.target_plan, bx, /*y_axis=*/false).s11;
  const Complex ry =
      target.board.axis_sparams(plan.target_plan, by, /*y_axis=*/true).s11;
  const JonesMatrix gamma_deep =
      JonesMatrix{rx, Complex{0, 0}, Complex{0, 0}, ry}.rotated(
          target.rotation);
  // Specular reflection off the very first patterned face (the dominant
  // return): its birefringence (rx != ry in its own frame) converts a small
  // amount of cross- to co-polarization, while the wave that penetrates to
  // the tunable section adds the bias-DEPENDENT part. This split is why
  // reflective heatmaps show much weaker voltage contrast than transmissive
  // ones (paper Section 5.2.1).
  JonesMatrix gamma_front = plan.gamma_front;
  if (plan.front_uses_bias) {
    const StackElement& first = elements_.front();
    const Complex r0x =
        first.board.axis_sparams(plan.front_plan, vx, /*y_axis=*/false).s11;
    const Complex r0y =
        first.board.axis_sparams(plan.front_plan, vy, /*y_axis=*/true).s11;
    gamma_front = front_gamma(r0x, r0y, first.rotation);
  }
  // Round trip of the deep component: forward in, reflect, transpose out
  // (for a reciprocal layer the backward Jones matrix is the transpose of
  // the forward one). It is attenuated by re-traversal spillover off the
  // finite aperture: the 0.48 m panel does not recapture the full divergent
  // wavefront on the second pass.
  const JonesMatrix deep = plan.forward.transpose() * gamma_deep * plan.forward;
  return gamma_front + kDeepPathWeight * deep;
}

double transmission_efficiency_db(const JonesMatrix& t, bool y_excitation) {
  // Paper Eq. 11: eff = |S_xx21|^2 + |S_yx21|^2 for an x-polarized wave
  // (column of the Jones matrix corresponding to the excitation).
  const int col = y_excitation ? 1 : 0;
  const double p = std::norm(t.at(0, col)) + std::norm(t.at(1, col));
  return 10.0 * std::log10(std::max(p, 1e-30));
}

double RotatorStack::transmission_efficiency_db(common::Frequency f,
                                                common::Voltage vx,
                                                common::Voltage vy,
                                                bool y_excitation) const {
  return metasurface::transmission_efficiency_db(transmission(f, vx, vy),
                                                 y_excitation);
}

common::Angle RotatorStack::rotation_angle(common::Frequency f,
                                           common::Voltage vx,
                                           common::Voltage vy) const {
  return em::rotation_angle_of(transmission(f, vx, vy));
}

double RotatorStack::total_thickness_m() const {
  double t = 0.0;
  for (const StackElement& e : elements_) {
    t += e.board.thickness_m();
    t += e.gap_after_m;
  }
  return t;
}

}  // namespace llama::metasurface
