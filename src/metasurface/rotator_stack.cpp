#include "src/metasurface/rotator_stack.h"

#include <algorithm>
#include <cmath>
#include <optional>
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

/// Index of the first tunable element; elements.size() when there is none.
std::size_t first_tunable(const std::vector<StackElement>& elements) {
  const auto it = std::find_if(elements.begin(), elements.end(),
                               [](const StackElement& e) { return e.tunable; });
  return static_cast<std::size_t>(it - elements.begin());
}

/// Cascade of the static elements [0, end) and their air gaps, the first
/// element multiplying from the right (paper Eq. 2). Both plans precompute
/// their bias-independent leading run with it.
JonesMatrix static_cascade(const std::vector<StackElement>& elements,
                           std::size_t end, common::Frequency f) {
  JonesMatrix total = JonesMatrix::identity();
  for (std::size_t i = 0; i < end; ++i) {
    total = fixed_jones(elements[i], f) * total;
    if (elements[i].gap_after_m > 0.0)
      total = gap_phase(f, elements[i].gap_after_m) * total;
  }
  return total;
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
  const std::size_t first = first_tunable(elements_);
  plan.prefix = static_cascade(elements_, first, f);
  plan.steps.reserve(elements_.size() - first);
  std::optional<std::size_t> last_tunable;  // into plan.steps
  for (std::size_t i = first; i < elements_.size(); ++i) {
    const StackElement& e = elements_[i];
    TransmissionStep step;
    step.tunable = e.tunable;
    step.index = i;
    if (e.tunable) {
      step.board_plan = e.board.make_frequency_plan(f);
      step.cos_rotation = std::cos(e.rotation.rad());
      step.sin_rotation = std::sin(e.rotation.rad());
      if (last_tunable) {
        const TransmissionStep& prev = plan.steps[*last_tunable];
        step.repeats_previous =
            prev.board_plan == step.board_plan &&
            elements_[prev.index].board.varactor() == e.board.varactor();
      }
    } else {
      step.fixed_jones = fixed_jones(e, f);
    }
    if (e.gap_after_m > 0.0) {
      step.has_gap = true;
      step.gap_factor = gap_phase(f, e.gap_after_m);
    }
    plan.steps.push_back(std::move(step));
    if (e.tunable) last_tunable = plan.steps.size() - 1;
  }
  return plan;
}

JonesMatrix RotatorStack::transmission(const TransmissionPlan& plan,
                                       common::Voltage vx,
                                       common::Voltage vy) const {
  // Paper Eq. 2: J_out = M_N ... M_2 M_1 J_in — the first element hit by the
  // wave multiplies from the right. Air gaps add a common propagation phase.
  // The leading static elements come pre-multiplied in the prefix, later
  // static elements precomputed; tunable boards are re-solved per bias,
  // once per run of equal boards.
  JonesMatrix total = plan.prefix;
  JonesMatrix solved;  // diag(tx, ty) of the last solved tunable board
  for (const TransmissionStep& step : plan.steps) {
    if (step.tunable) {
      if (!step.repeats_previous)
        solved = elements_[step.index].board.jones_transmission(
            step.board_plan, vx, vy);
      total = solved.rotated(step.cos_rotation, step.sin_rotation) * total;
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
  // tunable element, else the last element with the prefix built over all
  // but the last. Elements ahead of the first tunable one are by definition
  // bias-independent, so the forward cascade is always precomputable.
  const std::size_t target =
      std::min(first_tunable(elements_), elements_.size() - 1);
  plan.forward = static_cascade(elements_, target, f);
  plan.target_index = target;
  plan.target_uses_bias = elements_[target].tunable;
  plan.target_plan = elements_[target].board.make_frequency_plan(f);

  // A tunable first element is the first tunable one, hence the target.
  const StackElement& first = elements_.front();
  plan.front_is_target = first.tunable;
  if (!first.tunable) {
    const BoardFrequencyPlan front_plan = first.board.make_frequency_plan(f);
    const common::Voltage v0{0.0};
    const Complex r0x =
        first.board.axis_reflection(front_plan, v0, /*y_axis=*/false);
    const Complex r0y =
        first.board.axis_reflection(front_plan, v0, /*y_axis=*/true);
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
      target.board.axis_reflection(plan.target_plan, bx, /*y_axis=*/false);
  const Complex ry =
      target.board.axis_reflection(plan.target_plan, by, /*y_axis=*/true);
  const JonesMatrix gamma_deep =
      JonesMatrix{rx, Complex{0, 0}, Complex{0, 0}, ry}.rotated(
          target.rotation);
  // Specular reflection off the very first patterned face (the dominant
  // return): its birefringence (rx != ry in its own frame) converts a small
  // amount of cross- to co-polarization, while the wave that penetrates to
  // the tunable section adds the bias-DEPENDENT part. This split is why
  // reflective heatmaps show much weaker voltage contrast than transmissive
  // ones (paper Section 5.2.1).
  const JonesMatrix gamma_front =
      plan.front_is_target ? front_gamma(rx, ry, target.rotation)
                           : plan.gamma_front;
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
