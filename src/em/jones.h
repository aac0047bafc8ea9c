// Jones calculus for fully polarized plane waves (paper Section 2).
//
// A Jones vector J = [Ex, Ey] holds the complex field amplitudes of the two
// orthogonal transverse components; a Jones matrix maps incident to outgoing
// polarization state. Cascading optical/RF elements multiplies their Jones
// matrices right-to-left (paper Eq. 2): J_out = M_N ... M_2 M_1 J_in.
#pragma once

#include <array>
#include <complex>

#include "src/common/units.h"

namespace llama::em {

using Complex = std::complex<double>;

/// 2x1 complex polarization state (paper Eq. 1).
class JonesVector {
 public:
  constexpr JonesVector() = default;
  constexpr JonesVector(Complex ex, Complex ey) : ex_(ex), ey_(ey) {}

  /// Linear polarization at angle theta from the x axis with unit amplitude.
  [[nodiscard]] static JonesVector linear(common::Angle theta);
  /// Horizontal (x) / vertical (y) unit states.
  [[nodiscard]] static constexpr JonesVector horizontal() {
    return {Complex{1.0, 0.0}, Complex{0.0, 0.0}};
  }
  [[nodiscard]] static constexpr JonesVector vertical() {
    return {Complex{0.0, 0.0}, Complex{1.0, 0.0}};
  }
  /// Right/left-hand circular polarization, unit power.
  [[nodiscard]] static JonesVector circular_right();
  [[nodiscard]] static JonesVector circular_left();
  /// General elliptical state from amplitudes a, b (paper Eq. 1:
  /// J = [a, b e^{j pi/2}]^T).
  [[nodiscard]] static JonesVector elliptical(double a, double b);

  [[nodiscard]] constexpr Complex ex() const { return ex_; }
  [[nodiscard]] constexpr Complex ey() const { return ey_; }

  /// Total power carried by the state: |Ex|^2 + |Ey|^2.
  [[nodiscard]] double power() const;
  /// Normalizes to unit power; the zero vector is returned unchanged.
  [[nodiscard]] JonesVector normalized() const;

  /// Inner product <this | other> = conj(this) . other.
  [[nodiscard]] Complex dot(const JonesVector& other) const;

  /// Fraction of this wave's power captured by a receive antenna whose
  /// polarization is `antenna` — the polarization loss factor,
  /// PLF = |<antenna|wave>|^2 / (|antenna|^2 |wave|^2). For two linear
  /// states at relative angle phi this is cos^2(phi) (Malus' law).
  [[nodiscard]] double polarization_match(const JonesVector& antenna) const;

  /// Orientation of the polarization ellipse's major axis, in [-90, 90) deg.
  [[nodiscard]] common::Angle orientation() const;

  /// Degree of circularity in [-1, 1]: 0 = linear, +1 = RHCP, -1 = LHCP
  /// (normalized Stokes V/I parameter).
  [[nodiscard]] double circularity() const;

  friend JonesVector operator*(Complex s, const JonesVector& v) {
    return {s * v.ex_, s * v.ey_};
  }
  friend JonesVector operator+(const JonesVector& a, const JonesVector& b) {
    return {a.ex_ + b.ex_, a.ey_ + b.ey_};
  }

 private:
  Complex ex_{0.0, 0.0};
  Complex ey_{0.0, 0.0};
};

/// 2x2 complex operator on polarization states.
class JonesMatrix {
 public:
  constexpr JonesMatrix() = default;
  constexpr JonesMatrix(Complex m00, Complex m01, Complex m10, Complex m11)
      : m_{m00, m01, m10, m11} {}

  [[nodiscard]] static constexpr JonesMatrix identity() {
    return {Complex{1, 0}, Complex{0, 0}, Complex{0, 0}, Complex{1, 0}};
  }

  /// Real rotation matrix R(theta) (paper Eq. 4).
  [[nodiscard]] static JonesMatrix rotation(common::Angle theta);

  /// Ideal linear polarizer transmitting the component at angle theta.
  [[nodiscard]] static JonesMatrix linear_polarizer(common::Angle theta);

  /// Wave plate with retardance delta between fast (x) and slow (y) axes and
  /// common phase alpha: e^{j alpha} diag(1, e^{j delta}).
  [[nodiscard]] static JonesMatrix wave_plate(double delta_rad,
                                              double alpha_rad = 0.0);

  /// Quarter-wave plate aligned with the axes (paper Eq. 3):
  /// e^{j alpha} diag(1, e^{j pi/2}).
  [[nodiscard]] static JonesMatrix quarter_wave_plate(double alpha_rad = 0.0);

  /// Element physically rotated counterclockwise by theta (paper Eq. 4):
  /// M_theta = R(theta) M R(theta)^T.
  [[nodiscard]] JonesMatrix rotated(common::Angle theta) const;

  /// rotated(theta) from precomputed cos(theta) and sin(theta): the same R
  /// and the same products, so the result is bit-identical. For loops that
  /// rotate by one fixed angle many times.
  [[nodiscard]] JonesMatrix rotated(double cos_theta, double sin_theta) const;

  [[nodiscard]] constexpr Complex at(int r, int c) const {
    return m_[static_cast<std::size_t>(r * 2 + c)];
  }

  [[nodiscard]] JonesMatrix transpose() const;
  [[nodiscard]] JonesMatrix adjoint() const;
  [[nodiscard]] Complex determinant() const;

  /// Largest singular value squared — the maximum power gain over all input
  /// polarizations. A passive element must have norm_bound() <= 1 + eps.
  [[nodiscard]] double norm_bound() const;

  /// True when M^H M == I within tol (lossless element).
  [[nodiscard]] bool is_unitary(double tol = 1e-9) const;

  friend JonesMatrix operator*(const JonesMatrix& a, const JonesMatrix& b);
  friend JonesVector operator*(const JonesMatrix& m, const JonesVector& v);
  friend JonesMatrix operator*(Complex s, const JonesMatrix& m);
  friend JonesMatrix operator+(const JonesMatrix& a, const JonesMatrix& b);

 private:
  std::array<Complex, 4> m_{Complex{1, 0}, Complex{0, 0}, Complex{0, 0},
                            Complex{1, 0}};
};

/// Builds the composite polarization rotator of the paper (Eq. 5-8):
/// P = Q(+45 deg) * B(delta) * Q(-45 deg), which equals a pure rotation by
/// delta/2 up to a common phase. `alpha_rad` is the QWPs' common phase and
/// `beta_rad` the BFS common transmission phase.
[[nodiscard]] JonesMatrix polarization_rotator(double delta_rad,
                                               double alpha_rad = 0.0,
                                               double beta_rad = 0.0);

/// Extracts the rotation angle from a (possibly lossy) rotation-like Jones
/// matrix: atan2 applied to the real rotation structure. For the ideal
/// rotator of Eq. 8 this returns delta/2.
[[nodiscard]] common::Angle rotation_angle_of(const JonesMatrix& m);

}  // namespace llama::em
