#include "src/em/jones.h"

#include <cmath>

#include "src/common/constants.h"

namespace llama::em {

namespace {
constexpr Complex kJ{0.0, 1.0};

/// R(theta) from cos(theta) and sin(theta).
JonesMatrix rotation_of(double c, double s) {
  return {Complex{c, 0.0}, Complex{-s, 0.0}, Complex{s, 0.0}, Complex{c, 0.0}};
}
}  // namespace

JonesVector JonesVector::linear(common::Angle theta) {
  return {Complex{std::cos(theta.rad()), 0.0},
          Complex{std::sin(theta.rad()), 0.0}};
}

JonesVector JonesVector::circular_right() {
  const double s = 1.0 / std::sqrt(2.0);
  return {Complex{s, 0.0}, Complex{0.0, -s}};
}

JonesVector JonesVector::circular_left() {
  const double s = 1.0 / std::sqrt(2.0);
  return {Complex{s, 0.0}, Complex{0.0, s}};
}

JonesVector JonesVector::elliptical(double a, double b) {
  return {Complex{a, 0.0}, b * std::exp(kJ * (common::kPi / 2.0))};
}

double JonesVector::power() const { return std::norm(ex_) + std::norm(ey_); }

JonesVector JonesVector::normalized() const {
  const double p = power();
  if (p <= 0.0) return *this;
  const double s = 1.0 / std::sqrt(p);
  return {ex_ * s, ey_ * s};
}

Complex JonesVector::dot(const JonesVector& other) const {
  return std::conj(ex_) * other.ex_ + std::conj(ey_) * other.ey_;
}

double JonesVector::polarization_match(const JonesVector& antenna) const {
  const double pw = power();
  const double pa = antenna.power();
  if (pw <= 0.0 || pa <= 0.0) return 0.0;
  return std::norm(antenna.dot(*this)) / (pw * pa);
}

common::Angle JonesVector::orientation() const {
  // Stokes parameters: S1 = |Ex|^2 - |Ey|^2, S2 = 2 Re(Ex* Ey).
  const double s1 = std::norm(ex_) - std::norm(ey_);
  const double s2 = 2.0 * std::real(std::conj(ex_) * ey_);
  // Major-axis orientation psi = atan2(S2, S1) / 2 in [-90, 90).
  return common::Angle::radians(0.5 * std::atan2(s2, s1));
}

double JonesVector::circularity() const {
  const double s0 = power();
  if (s0 <= 0.0) return 0.0;
  // S3 = 2 Im(Ex* Ey); sign convention: +1 -> left circular in our basis.
  const double s3 = 2.0 * std::imag(std::conj(ex_) * ey_);
  return s3 / s0;
}

JonesMatrix JonesMatrix::rotation(common::Angle theta) {
  return rotation_of(std::cos(theta.rad()), std::sin(theta.rad()));
}

JonesMatrix JonesMatrix::linear_polarizer(common::Angle theta) {
  const double c = std::cos(theta.rad());
  const double s = std::sin(theta.rad());
  return {Complex{c * c, 0.0}, Complex{c * s, 0.0}, Complex{c * s, 0.0},
          Complex{s * s, 0.0}};
}

JonesMatrix JonesMatrix::wave_plate(double delta_rad, double alpha_rad) {
  const Complex common_phase = std::exp(kJ * alpha_rad);
  return {common_phase, Complex{0.0, 0.0}, Complex{0.0, 0.0},
          common_phase * std::exp(kJ * delta_rad)};
}

JonesMatrix JonesMatrix::quarter_wave_plate(double alpha_rad) {
  return wave_plate(common::kPi / 2.0, alpha_rad);
}

JonesMatrix JonesMatrix::rotated(common::Angle theta) const {
  return rotated(std::cos(theta.rad()), std::sin(theta.rad()));
}

JonesMatrix JonesMatrix::rotated(double cos_theta, double sin_theta) const {
  const JonesMatrix r = rotation_of(cos_theta, sin_theta);
  return r * (*this) * r.transpose();
}

JonesMatrix JonesMatrix::transpose() const {
  return {m_[0], m_[2], m_[1], m_[3]};
}

JonesMatrix JonesMatrix::adjoint() const {
  return {std::conj(m_[0]), std::conj(m_[2]), std::conj(m_[1]),
          std::conj(m_[3])};
}

Complex JonesMatrix::determinant() const {
  return m_[0] * m_[3] - m_[1] * m_[2];
}

double JonesMatrix::norm_bound() const {
  // Largest eigenvalue of the 2x2 Hermitian matrix H = M^H M, closed form.
  const JonesMatrix h = adjoint() * (*this);
  const double a = std::real(h.m_[0]);
  const double d = std::real(h.m_[3]);
  const double off = std::abs(h.m_[1]);
  const double tr_half = 0.5 * (a + d);
  const double disc = std::sqrt(0.25 * (a - d) * (a - d) + off * off);
  return tr_half + disc;
}

bool JonesMatrix::is_unitary(double tol) const {
  const JonesMatrix h = adjoint() * (*this);
  return std::abs(h.m_[0] - Complex{1.0, 0.0}) < tol &&
         std::abs(h.m_[3] - Complex{1.0, 0.0}) < tol &&
         std::abs(h.m_[1]) < tol && std::abs(h.m_[2]) < tol;
}

JonesMatrix operator*(const JonesMatrix& a, const JonesMatrix& b) {
  return {a.m_[0] * b.m_[0] + a.m_[1] * b.m_[2],
          a.m_[0] * b.m_[1] + a.m_[1] * b.m_[3],
          a.m_[2] * b.m_[0] + a.m_[3] * b.m_[2],
          a.m_[2] * b.m_[1] + a.m_[3] * b.m_[3]};
}

JonesVector operator*(const JonesMatrix& m, const JonesVector& v) {
  return {m.m_[0] * v.ex() + m.m_[1] * v.ey(),
          m.m_[2] * v.ex() + m.m_[3] * v.ey()};
}

JonesMatrix operator*(Complex s, const JonesMatrix& m) {
  return {s * m.m_[0], s * m.m_[1], s * m.m_[2], s * m.m_[3]};
}

JonesMatrix operator+(const JonesMatrix& a, const JonesMatrix& b) {
  return {a.m_[0] + b.m_[0], a.m_[1] + b.m_[1], a.m_[2] + b.m_[2],
          a.m_[3] + b.m_[3]};
}

JonesMatrix polarization_rotator(double delta_rad, double alpha_rad,
                                 double beta_rad) {
  // Paper Eq. 5-6: QWPs physically rotated by +/-45 degrees. The paper's
  // notation writes R(+-45) on both sides; the physically meaningful
  // composition (and the one that yields Eq. 8's pure rotation) is the
  // standard rotated-element form of Eq. 4, M_theta = R(theta) M R(theta)^T.
  const JonesMatrix qwp = JonesMatrix::quarter_wave_plate(0.0);
  const Complex phase_a = std::exp(Complex{0.0, 1.0} * alpha_rad);
  const JonesMatrix q_plus =
      phase_a * qwp.rotated(common::Angle::degrees(45.0));
  const JonesMatrix q_minus =
      phase_a * qwp.rotated(common::Angle::degrees(-45.0));
  // Paper Eq. 7: tunable birefringent structure B = e^{jb} diag(1, e^{jd}).
  const Complex phase_b = std::exp(Complex{0.0, 1.0} * beta_rad);
  const JonesMatrix bfs = phase_b * JonesMatrix::wave_plate(delta_rad);
  // Paper Eq. 8: the QWP|BFS|QWP sandwich equals e^{j(...)} R(delta/2).
  // The wave traverses the -45 deg plate first (multiplies from the right,
  // per Eq. 2), which fixes the sign of the resulting rotation.
  return q_minus * bfs * q_plus;
}

common::Angle rotation_angle_of(const JonesMatrix& m) {
  // Strip the common phase by referencing everything to m00, then read the
  // rotation angle from the real rotation structure
  // [cos t, -sin t; sin t, cos t].
  const double c = std::abs(m.at(0, 0));
  // Signed sine: project m10 onto the phase of m00.
  const Complex m00 = m.at(0, 0);
  const Complex m10 = m.at(1, 0);
  double s;
  if (std::abs(m00) > 1e-12) {
    s = std::real(m10 * std::conj(m00)) / std::abs(m00);
  } else {
    s = std::abs(m10);
  }
  return common::Angle::radians(std::atan2(s, c));
}

}  // namespace llama::em
