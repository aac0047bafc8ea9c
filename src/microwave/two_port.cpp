#include "src/microwave/two_port.h"

#include <cmath>

namespace llama::microwave {

double SParams::transmission_efficiency_db() const {
  return 10.0 * std::log10(std::max(std::norm(s21), 1e-30));
}

double SParams::reflection_db() const {
  return 10.0 * std::log10(std::max(std::norm(s11), 1e-30));
}

double SParams::transmission_phase_rad() const { return std::arg(s21); }

bool SParams::is_passive(double tol) const {
  const double col1 = std::norm(s11) + std::norm(s21);
  const double col2 = std::norm(s12) + std::norm(s22);
  return col1 <= 1.0 + tol && col2 <= 1.0 + tol;
}

bool SParams::is_reciprocal(double tol) const {
  return std::abs(s21 - s12) <= tol;
}

Abcd Abcd::series(Complex z) {
  return {Complex{1, 0}, z, Complex{0, 0}, Complex{1, 0}};
}

Abcd Abcd::shunt(Complex y) {
  return {Complex{1, 0}, Complex{0, 0}, y, Complex{1, 0}};
}

Abcd Abcd::line(Complex zc, Complex gamma, double length_m) {
  const Complex gl = gamma * length_m;
  const Complex ch = std::cosh(gl);
  const Complex sh = std::sinh(gl);
  return {ch, zc * sh, sh / zc, ch};
}

namespace {

/// Common denominator of every S-parameter: A + B/z0 + C z0 + D. The one
/// expression shared by to_sparams, s21 and s11 keeps them bit-identical.
Complex sparams_denominator(const Abcd& m, double z0) {
  return m.a() + m.b() / z0 + m.c() * z0 + m.d();
}

}  // namespace

SParams Abcd::to_sparams(double z0) const {
  // Standard ABCD -> S conversion (e.g. Pozar, Microwave Engineering).
  const Complex denom = sparams_denominator(*this, z0);
  SParams s;
  s.s11 = (a_ + b_ / z0 - c_ * z0 - d_) / denom;
  s.s12 = 2.0 * (a_ * d_ - b_ * c_) / denom;
  s.s21 = 2.0 / denom;
  s.s22 = (-a_ + b_ / z0 - c_ * z0 + d_) / denom;
  return s;
}

Complex Abcd::s21(double z0) const {
  return 2.0 / sparams_denominator(*this, z0);
}

Complex Abcd::s11(double z0) const {
  return (a_ + b_ / z0 - c_ * z0 - d_) / sparams_denominator(*this, z0);
}

Abcd operator*(const Abcd& first, const Abcd& second) {
  return {first.a_ * second.a_ + first.b_ * second.c_,
          first.a_ * second.b_ + first.b_ * second.d_,
          first.c_ * second.a_ + first.d_ * second.c_,
          first.c_ * second.b_ + first.d_ * second.d_};
}

}  // namespace llama::microwave
