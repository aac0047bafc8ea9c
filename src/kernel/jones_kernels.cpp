#include "src/kernel/jones_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/kernel/board_kernels.h"

namespace llama::kernel {

using em::Complex;
using em::JonesMatrix;

namespace {

/// Splits a rotation angle into the rotated-diagonal coefficients:
/// R(theta) diag(tx, ty) R(theta)^T = [[c2 tx + s2 ty, cs (tx - ty)],
///                                     [cs (tx - ty), s2 tx + c2 ty]].
struct RotationCoeffs {
  double c2, s2, cs;
};

RotationCoeffs rotation_coeffs(double c, double s) {
  return {c * c, s * s, c * s};
}

RotationCoeffs rotation_coeffs(common::Angle theta) {
  return rotation_coeffs(std::cos(theta.rad()), std::sin(theta.rad()));
}

}  // namespace

// ---------------------------------------------------------------- transmission

TransmissionKernel::TransmissionKernel(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::TransmissionPlan& plan,
    std::span<const double> vx, std::span<const double> vy)
    : nx_(vx.size()), ny_(vy.size()) {
  // Fold every run of consecutive static boards and air-gap phases into one
  // constant matrix; solve each tunable board's axes as whole lanes. The
  // leading run is the plan's prefix, already folded in the scalar loop's
  // order; it is empty (the identity, nothing to fold) exactly when the
  // steps start at element 0. The multiplication ORDER matches the scalar
  // planned loop (first element multiplies from the right), but the folding
  // reassociates — hence the <= 1e-12 (not bit-equal) contract with the
  // scalar path. A repeated board is solved again here: lanes cost nx + ny
  // solves per board, not one per cell.
  JonesMatrix pending = plan.prefix;
  bool have_pending = plan.steps.empty() || plan.steps.front().index > 0;
  for (const metasurface::RotatorStack::TransmissionStep& step : plan.steps) {
    if (step.tunable) {
      if (have_pending) {
        ops_.push_back(Op{false, 0, pending});
        pending = JonesMatrix::identity();
        have_pending = false;
      }
      TunableLanes lanes;
      const metasurface::Board& board = stack.elements()[step.index].board;
      axis_s_lanes(step.board_plan.x, step.board_plan.omega, board.varactor(),
                   vx, AxisOutput::kS21, &lanes.tx, nullptr);
      axis_s_lanes(step.board_plan.y, step.board_plan.omega, board.varactor(),
                   vy, AxisOutput::kS21, &lanes.ty, nullptr);
      const RotationCoeffs rc =
          rotation_coeffs(step.cos_rotation, step.sin_rotation);
      lanes.c2 = rc.c2;
      lanes.s2 = rc.s2;
      lanes.cs = rc.cs;
      ops_.push_back(Op{true, tunables_.size(), JonesMatrix{}});
      tunables_.push_back(std::move(lanes));
      if (step.has_gap) {
        pending = step.gap_factor * JonesMatrix::identity();
        have_pending = true;
      }
    } else {
      pending = step.fixed_jones * pending;
      if (step.has_gap) pending = step.gap_factor * pending;
      have_pending = true;
    }
  }
  if (have_pending) ops_.push_back(Op{false, 0, pending});
}

void TransmissionKernel::set_blend(const StuckBlend& blend) {
  blend_enabled_ = true;
  blend_ = blend;
}

void TransmissionKernel::eval_grid_row(std::size_t iy,
                                       em::JonesMatrix* out) const {
  LLAMA_EXPECTS(iy < ny_, "row index inside the vy lane");
  const std::size_t n = nx_;
  if (n == 0) return;
  // Call-local scratch: eight accumulator lanes (split re/im of the running
  // 2x2 cascade), each padded to a whole number of cache lines so every
  // slice keeps the lane alignment. Local allocation is what makes this
  // method safe from concurrent parallel_for shards — no shared state.
  const std::size_t stride = (n + 7) & ~std::size_t{7};
  Lane scratch(8 * stride);
  double* const t00r = common::assume_lane_aligned(scratch.data());
  double* const t00i = t00r + stride;
  double* const t01r = t00r + 2 * stride;
  double* const t01i = t00r + 3 * stride;
  double* const t10r = t00r + 4 * stride;
  double* const t10i = t00r + 5 * stride;
  double* const t11r = t00r + 6 * stride;
  double* const t11i = t00r + 7 * stride;
  std::fill_n(t00r, n, 1.0);  // cascade starts from the identity
  std::fill_n(t00i, n, 0.0);
  std::fill_n(t01r, n, 0.0);
  std::fill_n(t01i, n, 0.0);
  std::fill_n(t10r, n, 0.0);
  std::fill_n(t10i, n, 0.0);
  std::fill_n(t11r, n, 1.0);
  std::fill_n(t11i, n, 0.0);

  for (const Op& op : ops_) {
    if (op.tunable) {
      const TunableLanes& t = tunables_[op.lane_index];
      const double* txr = t.tx.re.data();
      const double* txi = t.tx.im.data();
      const double yr = t.ty.re[iy], yi = t.ty.im[iy];  // one row, one vy
      const double c2 = t.c2, s2 = t.s2, cs = t.cs;
      for (std::size_t i = 0; i < n; ++i) {
        const double xr = txr[i], xi = txi[i];
        // Rotated diag(tx, ty): symmetric [[a, b], [b, d]].
        const double ar = c2 * xr + s2 * yr, ai = c2 * xi + s2 * yi;
        const double br = cs * (xr - yr), bi = cs * (xi - yi);
        const double dr = s2 * xr + c2 * yr, di = s2 * xi + c2 * yi;
        const double u00r = t00r[i], u00i = t00i[i];
        const double u01r = t01r[i], u01i = t01i[i];
        const double u10r = t10r[i], u10i = t10i[i];
        const double u11r = t11r[i], u11i = t11i[i];
        t00r[i] = ar * u00r - ai * u00i + br * u10r - bi * u10i;
        t00i[i] = ar * u00i + ai * u00r + br * u10i + bi * u10r;
        t01r[i] = ar * u01r - ai * u01i + br * u11r - bi * u11i;
        t01i[i] = ar * u01i + ai * u01r + br * u11i + bi * u11r;
        t10r[i] = br * u00r - bi * u00i + dr * u10r - di * u10i;
        t10i[i] = br * u00i + bi * u00r + dr * u10i + di * u10r;
        t11r[i] = br * u01r - bi * u01i + dr * u11r - di * u11i;
        t11i[i] = br * u01i + bi * u01r + dr * u11i + di * u11r;
      }
    } else {
      const double k00r = op.constant.at(0, 0).real();
      const double k00i = op.constant.at(0, 0).imag();
      const double k01r = op.constant.at(0, 1).real();
      const double k01i = op.constant.at(0, 1).imag();
      const double k10r = op.constant.at(1, 0).real();
      const double k10i = op.constant.at(1, 0).imag();
      const double k11r = op.constant.at(1, 1).real();
      const double k11i = op.constant.at(1, 1).imag();
      for (std::size_t i = 0; i < n; ++i) {
        const double u00r = t00r[i], u00i = t00i[i];
        const double u01r = t01r[i], u01i = t01i[i];
        const double u10r = t10r[i], u10i = t10i[i];
        const double u11r = t11r[i], u11i = t11i[i];
        t00r[i] = k00r * u00r - k00i * u00i + k01r * u10r - k01i * u10i;
        t00i[i] = k00r * u00i + k00i * u00r + k01r * u10i + k01i * u10r;
        t01r[i] = k00r * u01r - k00i * u01i + k01r * u11r - k01i * u11i;
        t01i[i] = k00r * u01i + k00i * u01r + k01r * u11i + k01i * u11r;
        t10r[i] = k10r * u00r - k10i * u00i + k11r * u10r - k11i * u10i;
        t10i[i] = k10r * u00i + k10i * u00r + k11r * u10i + k11i * u10r;
        t11r[i] = k10r * u01r - k10i * u01i + k11r * u11r - k11i * u11i;
        t11i[i] = k10r * u01i + k10i * u01r + k11r * u11i + k11i * u11r;
      }
    }
  }

  if (blend_enabled_) {
    // Lane-space degraded blend: cell' = keep * cell + frac * stuck, with
    // frac * stuck folded into constants (same association as the scalar
    // post-pass in Metasurface::response_grid had).
    const double kr = blend_.keep.real(), ki = blend_.keep.imag();
    const JonesMatrix fs{blend_.frac * blend_.stuck.at(0, 0),
                         blend_.frac * blend_.stuck.at(0, 1),
                         blend_.frac * blend_.stuck.at(1, 0),
                         blend_.frac * blend_.stuck.at(1, 1)};
    double* const lanes_re[4] = {t00r, t01r, t10r, t11r};
    double* const lanes_im[4] = {t00i, t01i, t10i, t11i};
    for (int k = 0; k < 4; ++k) {
      const double fsr = fs.at(k / 2, k % 2).real();
      const double fsi = fs.at(k / 2, k % 2).imag();
      double* re = lanes_re[k];
      double* im = lanes_im[k];
      for (std::size_t i = 0; i < n; ++i) {
        const double ur = re[i], ui = im[i];
        re[i] = kr * ur - ki * ui + fsr;
        im[i] = kr * ui + ki * ur + fsi;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i)
    out[i] = JonesMatrix{Complex{t00r[i], t00i[i]}, Complex{t01r[i], t01i[i]},
                         Complex{t10r[i], t10i[i]}, Complex{t11r[i], t11i[i]}};
}

// ------------------------------------------------------------------ reflection

ReflectionKernel::ReflectionKernel(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::ReflectionPlan& plan,
    std::span<const double> vx, std::span<const double> vy)
    : nx_(vx.size()), ny_(vy.size()) {
  const metasurface::StackElement& target = stack.elements()[plan.target_index];
  target_uses_bias_ = plan.target_uses_bias;
  if (target_uses_bias_) {
    axis_s_lanes(plan.target_plan.x, plan.target_plan.omega,
                 target.board.varactor(), vx, AxisOutput::kS11, nullptr, &rx_);
    axis_s_lanes(plan.target_plan.y, plan.target_plan.omega,
                 target.board.varactor(), vy, AxisOutput::kS11, nullptr, &ry_);
  } else {
    // Bias-independent target: solve once at 0 V and broadcast, so the
    // evaluation loops can index lanes uniformly.
    const double zero = 0.0;
    ComplexLanes one;
    axis_s_lanes(plan.target_plan.x, plan.target_plan.omega,
                 target.board.varactor(), std::span<const double>{&zero, 1},
                 AxisOutput::kS11, nullptr, &one);
    rx_.fill(nx_, one.at(0));
    axis_s_lanes(plan.target_plan.y, plan.target_plan.omega,
                 target.board.varactor(), std::span<const double>{&zero, 1},
                 AxisOutput::kS11, nullptr, &one);
    ry_.fill(ny_, one.at(0));
  }
  const RotationCoeffs rc = rotation_coeffs(target.rotation);
  c2_ = rc.c2;
  s2_ = rc.s2;
  cs_ = rc.cs;
  // Deep-bounce decomposition: F^T rotated(diag(rx, ry)) F
  //   = a F^T E00 F + b F^T (E01 + E10) F + d F^T E11 F
  // with [[a, b], [b, d]] the rotated diagonal; the three G matrices are
  // bias-independent, so they fold with kDeepPathWeight at construction.
  const JonesMatrix f = plan.forward;
  const JonesMatrix ft = f.transpose();
  const Complex zero_c{0.0, 0.0};
  const Complex one_c{1.0, 0.0};
  wga_ = metasurface::kDeepPathWeight *
         (ft * JonesMatrix{one_c, zero_c, zero_c, zero_c} * f);
  wgb_ = metasurface::kDeepPathWeight *
         (ft * JonesMatrix{zero_c, one_c, one_c, zero_c} * f);
  wgd_ = metasurface::kDeepPathWeight *
         (ft * JonesMatrix{zero_c, zero_c, zero_c, one_c} * f);

  front_is_target_ = plan.front_is_target;
  if (!front_is_target_) gamma_front_ = plan.gamma_front;
}

void ReflectionKernel::set_blend(const StuckBlend& blend) {
  blend_enabled_ = true;
  blend_ = blend;
}

void ReflectionKernel::eval_grid_row(std::size_t iy,
                                     em::JonesMatrix* out) const {
  LLAMA_EXPECTS(iy < ny_, "row index inside the vy lane");
  const double* rxr = rx_.re.data();
  const double* rxi = rx_.im.data();
  const double yr = ry_.re[iy], yi = ry_.im[iy];  // one row, one vy
  const double kfbr = metasurface::kFrontBirefringence.real();
  const double kfbi = metasurface::kFrontBirefringence.imag();
  for (std::size_t i = 0; i < nx_; ++i) {
    const double xr = rxr[i], xi = rxi[i];
    // Rotated diag(rx, ry) coefficients of the deep bounce.
    const Complex a{c2_ * xr + s2_ * yr, c2_ * xi + s2_ * yi};
    const Complex b{cs_ * (xr - yr), cs_ * (xi - yi)};
    const Complex d{s2_ * xr + c2_ * yr, s2_ * xi + c2_ * yi};
    Complex gf00, gf01, gf10, gf11;
    if (front_is_target_) {
      // front_gamma (rotator_stack.h) in decomposed per-cell form, over the
      // target's own S11 and rotation: the front face is the target.
      const Complex r0x{xr, xi};
      const Complex r0y{yr, yi};
      const Complex rm = 0.5 * (r0x + r0y);
      const Complex p = r0x - rm;
      const Complex q = r0y - rm;
      const Complex kfb{kfbr, kfbi};
      gf00 = rm + kfb * (c2_ * p + s2_ * q);
      gf01 = kfb * (cs_ * (p - q));
      gf10 = gf01;
      gf11 = rm + kfb * (s2_ * p + c2_ * q);
    } else {
      gf00 = gamma_front_.at(0, 0);
      gf01 = gamma_front_.at(0, 1);
      gf10 = gamma_front_.at(1, 0);
      gf11 = gamma_front_.at(1, 1);
    }
    JonesMatrix cell{gf00 + a * wga_.at(0, 0) + b * wgb_.at(0, 0) + d * wgd_.at(0, 0),
                     gf01 + a * wga_.at(0, 1) + b * wgb_.at(0, 1) + d * wgd_.at(0, 1),
                     gf10 + a * wga_.at(1, 0) + b * wgb_.at(1, 0) + d * wgd_.at(1, 0),
                     gf11 + a * wga_.at(1, 1) + b * wgb_.at(1, 1) + d * wgd_.at(1, 1)};
    if (blend_enabled_) {
      cell = blend_.keep * cell + blend_.frac * blend_.stuck;
    }
    out[i] = cell;
  }
}

}  // namespace llama::kernel
