// SoA evaluation of whole bias planes through a RotatorStack plan.
//
// The scalar planned path (RotatorStack::transmission/reflection over a
// plan) evaluates one (Vx, Vy) cell at a time; these kernels evaluate a
// whole plane. A plane has one shape, a grid: cell (ix, iy) is bias
// (vx[ix], vy[iy]), and an arbitrary bias pair is a 1x1 grid. Callers build
// and run a kernel through metasurface::evaluate_plane (metasurface.h).
// Construction factors the plan into per-axis lanes — for each
// tunable board, tx depends only on Vx and ty only on Vy, so an nx-by-ny
// grid needs nx + ny board solves (src/kernel/board_kernels) instead of
// nx * ny — and folds every run of consecutive static boards and air gaps
// into a single constant Jones matrix (the leading run arrives pre-folded as
// the plan's prefix, and each tunable board's rotation as its cos/sin, the
// values the scalar loop uses). Evaluation then cascades 2x2 complex
// multiplies over split re/im lanes (src/kernel/lanes.h), which the
// compiler auto-vectorizes.
//
// Contract with the scalar golden reference: the kernels may reassociate
// (constant folding, naive complex division), so results agree with the
// planned scalar path to <= 1e-12 per component — NOT bit-for-bit. Within
// the kernel path every cell is a pure function of (plan, vx, vy), so its
// bytes depend neither on the thread count nor on the grid's shape or the
// cell's place in it; both properties are asserted by
// tests/kernel/test_golden_equivalence.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/em/jones.h"
#include "src/kernel/lanes.h"
#include "src/metasurface/rotator_stack.h"

namespace llama::kernel {

/// Degraded-aperture blend applied in lane space (see
/// Metasurface::set_stuck_cells): cell' = keep * cell + frac * stuck.
struct StuckBlend {
  em::Complex keep{1.0, 0.0};
  em::Complex frac{0.0, 0.0};
  em::JonesMatrix stuck;
};

/// Transmission cascade over a bias grid: cell (ix, iy) = bias
/// (vx[ix], vy[iy]), evaluated row by row with eval_grid_row. An arbitrary
/// bias pair is a 1x1 grid. Bias values are used as given — callers clamp
/// to the supply range first.
class TransmissionKernel {
 public:
  TransmissionKernel(const metasurface::RotatorStack& stack,
                     const metasurface::RotatorStack::TransmissionPlan& plan,
                     std::span<const double> vx, std::span<const double> vy);

  /// Enables the degraded-plane blend for every subsequently evaluated cell.
  void set_blend(const StuckBlend& blend);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }

  /// Writes out[0..nx) = cascade at (vx[*], vy[iy]). Safe to call from
  /// parallel shards: eval is pure per cell and scratch is call-local.
  void eval_grid_row(std::size_t iy, em::JonesMatrix* out) const;

 private:
  /// One cascade step: a run of folded constants, or one tunable board
  /// whose per-axis lanes live in tunables_[lane_index].
  struct Op {
    bool tunable = false;
    std::size_t lane_index = 0;
    em::JonesMatrix constant;
  };
  /// Per-axis transmission lanes of one tunable board plus its rotation
  /// split into the rotated-diagonal coefficients c^2, s^2, c*s.
  struct TunableLanes {
    ComplexLanes tx;  ///< s21 of the X axis over the vx lane
    ComplexLanes ty;  ///< s21 of the Y axis over the vy lane
    double c2 = 1.0;
    double s2 = 0.0;
    double cs = 0.0;
  };

  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<Op> ops_;
  std::vector<TunableLanes> tunables_;
  bool blend_enabled_ = false;
  StuckBlend blend_;
};

/// Reflection model over a bias grid; same shape contract as
/// TransmissionKernel. Construction decomposes the deep bounce
/// F^T rotated(diag(rx, ry)) F into three constant matrices weighted by the
/// per-cell rotated-diagonal coefficients of (rx, ry), so evaluation is a
/// closed-form expression per cell — no cascade loop at all.
class ReflectionKernel {
 public:
  ReflectionKernel(const metasurface::RotatorStack& stack,
                   const metasurface::RotatorStack::ReflectionPlan& plan,
                   std::span<const double> vx, std::span<const double> vy);

  void set_blend(const StuckBlend& blend);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }

  void eval_grid_row(std::size_t iy, em::JonesMatrix* out) const;

 private:
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  /// Deep-bounce S11 lanes of the target board (broadcast length 1 when the
  /// target ignores bias).
  ComplexLanes rx_;
  ComplexLanes ry_;
  bool target_uses_bias_ = false;
  double c2_ = 1.0, s2_ = 0.0, cs_ = 0.0;  ///< target rotation coefficients
  /// kDeepPathWeight * F^T E_k F for E_k in {E00, E01+E10, E11}.
  em::JonesMatrix wga_, wgb_, wgd_;
  /// Front-face specular term: constant when the first board is static,
  /// otherwise (the first board is the tunable target) rebuilt per cell
  /// from the target's rx_/ry_ lanes.
  bool front_is_target_ = false;
  em::JonesMatrix gamma_front_;
  bool blend_enabled_ = false;
  StuckBlend blend_;
};

}  // namespace llama::kernel
