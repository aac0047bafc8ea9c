#include "src/microwave/two_port.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace llama::microwave {
namespace {

constexpr double kTol = 1e-9;

TEST(Abcd, IdentityIsTransparent) {
  const SParams s = Abcd::identity().to_sparams();
  EXPECT_NEAR(std::abs(s.s21), 1.0, kTol);
  EXPECT_NEAR(std::abs(s.s11), 0.0, kTol);
  EXPECT_NEAR(s.transmission_efficiency_db(), 0.0, 1e-6);
}

TEST(Abcd, SeriesImpedanceMatchesClosedForm) {
  // S21 of a series Z in reference Z0: 2 Z0 / (2 Z0 + Z).
  const Complex z{100.0, 50.0};
  const SParams s = Abcd::series(z).to_sparams(50.0);
  const Complex expected = 2.0 * 50.0 / (2.0 * 50.0 + z);
  EXPECT_NEAR(std::abs(s.s21 - expected), 0.0, kTol);
}

TEST(Abcd, ShuntAdmittanceMatchesClosedForm) {
  // S21 of a shunt Y in reference Z0: 2 / (2 + Y Z0).
  const Complex y{0.0, 5e-3};
  const SParams s = Abcd::shunt(y).to_sparams(kZ0);
  const Complex expected = 2.0 / (2.0 + y * kZ0);
  EXPECT_NEAR(std::abs(s.s21 - expected), 0.0, kTol);
}

TEST(Abcd, ShuntSusceptancePhaseSign) {
  // Capacitive susceptance (B > 0) delays the wave: negative S21 phase.
  const SParams cap = Abcd::shunt(Complex{0.0, 3e-3}).to_sparams();
  EXPECT_LT(cap.transmission_phase_rad(), 0.0);
  const SParams ind = Abcd::shunt(Complex{0.0, -3e-3}).to_sparams();
  EXPECT_GT(ind.transmission_phase_rad(), 0.0);
}

TEST(Abcd, CascadeOrderMatters) {
  const Abcd a = Abcd::series(Complex{50.0, 0.0});
  const Abcd b = Abcd::shunt(Complex{0.01, 0.0});
  const Abcd ab = a * b;
  const Abcd ba = b * a;
  // series*shunt puts Z*Y into A; shunt*series puts it into D.
  EXPECT_GT(std::abs(ab.a() - ba.a()), 1e-12);
  EXPECT_NEAR(std::abs(ab.a() - ba.d()), 0.0, 1e-12);
}

TEST(Abcd, LosslessLineIsAllPass) {
  // Quarter-wave line at Z0 reference: |S21| = 1, phase -90 deg.
  const double beta = 2.0 * 3.14159265358979 / 0.123;  // 2.44 GHz in air
  const double quarter = 0.123 / 4.0;
  const SParams s =
      Abcd::line(Complex{kZ0, 0.0}, Complex{0.0, beta}, quarter).to_sparams();
  EXPECT_NEAR(std::abs(s.s21), 1.0, 1e-9);
  EXPECT_NEAR(s.transmission_phase_rad(), -3.14159265 / 2.0, 1e-6);
}

TEST(Abcd, MismatchedLineReflects) {
  const double beta = 2.0 * 3.14159265358979 / 0.123;
  const SParams s = Abcd::line(Complex{kZ0 / 2.0, 0.0}, Complex{0.0, beta},
                               0.123 / 4.0)
                        .to_sparams();
  EXPECT_GT(std::abs(s.s11), 0.1);
}

TEST(Abcd, LossyLineAttenuates) {
  const double alpha = 10.0;  // Np/m
  const double beta = 2.0 * 3.14159265358979 / 0.123;
  const SParams s = Abcd::line(Complex{kZ0, 0.0}, Complex{alpha, beta}, 0.05)
                        .to_sparams();
  // alpha * d = 0.5 Np ~= -4.34 dB of amplitude.
  EXPECT_NEAR(s.transmission_efficiency_db(), -2.0 * 0.5 * 4.3429, 0.1);
}

TEST(SParams, PassivityOfPassiveNetworks) {
  EXPECT_TRUE(Abcd::identity().to_sparams().is_passive());
  EXPECT_TRUE(Abcd::shunt(Complex{1e-3, 5e-3}).to_sparams().is_passive());
  EXPECT_TRUE(Abcd::series(Complex{20.0, 100.0}).to_sparams().is_passive());
}

TEST(SParams, ReciprocityOfReciprocalNetworks) {
  const SParams s =
      (Abcd::shunt(Complex{0.0, 2e-3}) * Abcd::series(Complex{10.0, 40.0}) *
       Abcd::shunt(Complex{0.0, -1e-3}))
          .to_sparams();
  EXPECT_TRUE(s.is_reciprocal(1e-9));
}

TEST(SParams, EfficiencyFloorsAtTinyMagnitude) {
  SParams s;
  s.s21 = Complex{0.0, 0.0};
  EXPECT_LE(s.transmission_efficiency_db(), -250.0);
}

TEST(SParams, ReflectionDbOfHalfAmplitude) {
  SParams s;
  s.s11 = Complex{0.5, 0.0};
  EXPECT_NEAR(s.reflection_db(), -6.0206, 1e-3);
}

/// Deterministic pseudo-random cascade of n passive elements (shunts,
/// series impedances and lossy lines), seeded by n.
Abcd random_chain(int n) {
  Abcd chain = Abcd::identity();
  unsigned state = static_cast<unsigned>(n) * 2654435761u;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return (state >> 8) / double(1 << 24);
  };
  for (int i = 0; i < n; ++i) {
    const double pick = next();
    if (pick < 0.4) {
      chain = chain * Abcd::shunt(Complex{next() * 1e-3,
                                          (next() - 0.5) * 2e-2});
    } else if (pick < 0.8) {
      chain = chain * Abcd::series(Complex{next() * 30.0,
                                           (next() - 0.5) * 400.0});
    } else {
      chain = chain * Abcd::line(Complex{kZ0 * (0.5 + next()), 0.0},
                                 Complex{next() * 5.0, 30.0 + next() * 50.0},
                                 0.001 + next() * 0.01);
    }
  }
  return chain;
}

/// Property: any cascade of passive elements stays passive and reciprocal.
class CascadePassivity : public ::testing::TestWithParam<int> {};

TEST_P(CascadePassivity, HoldsForRandomChains) {
  const int n = GetParam();
  const SParams s = random_chain(n).to_sparams();
  EXPECT_TRUE(s.is_passive(1e-6)) << "n=" << n;
  EXPECT_TRUE(s.is_reciprocal(1e-7)) << "n=" << n;
}

/// Property: the single-coefficient readers are to_sparams bit for bit.
class SingleSParam : public ::testing::TestWithParam<int> {};

TEST_P(SingleSParam, MatchesToSparamsBits) {
  const int n = GetParam();
  const Abcd chain = random_chain(n);
  for (const double z0 : {kZ0, 50.0}) {
    const SParams s = chain.to_sparams(z0);
    const Complex got[] = {chain.s21(z0), chain.s11(z0)};
    const Complex want[] = {s.s21, s.s11};
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].real()),
                std::bit_cast<std::uint64_t>(want[k].real()))
          << "n=" << n << " z0=" << z0 << (k == 0 ? " s21" : " s11");
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].imag()),
                std::bit_cast<std::uint64_t>(want[k].imag()))
          << "n=" << n << " z0=" << z0 << (k == 0 ? " s21" : " s11");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, SingleSParam,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21));

INSTANTIATE_TEST_SUITE_P(ChainLengths, CascadePassivity,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace llama::microwave
