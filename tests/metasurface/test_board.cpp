#include "src/metasurface/board.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace llama::metasurface {
namespace {

using common::Frequency;
using common::Voltage;
using microwave::Substrate;
using microwave::Varactor;

const Frequency kF0 = Frequency::ghz(2.44);

FacePattern fixed_tank() {
  FacePattern f;
  f.inductance_h = 4.0e-9;
  f.capacitance_f = 1.0e-12;
  f.r_inductor_ohm = 0.2;
  return f;
}

FacePattern tunable_tank() {
  FacePattern f;
  f.inductance_h = 5.46e-9;
  f.capacitance_f = 1.7e-12;
  f.varactor_loaded = true;
  f.r_inductor_ohm = 0.2;
  return f;
}

Board make_board(const Substrate& substrate) {
  return Board{"test", substrate, 0.8e-3,
               AxisPatterns{.front = tunable_tank(), .back = {}},
               AxisPatterns{.front = tunable_tank(), .back = {}}};
}

TEST(FacePattern, EmptyPatternHasZeroAdmittance) {
  const FacePattern empty;
  EXPECT_TRUE(empty.empty());
  const auto y = empty.admittance(kF0, Voltage{5.0}, Varactor::smv1233(),
                                  0.02);
  EXPECT_DOUBLE_EQ(std::abs(y), 0.0);
}

TEST(FacePattern, TankSusceptanceChangesSignThroughResonance) {
  FacePattern f = fixed_tank();
  const Varactor v = Varactor::smv1233();
  // Below tank resonance the inductive branch dominates (B < 0); far above
  // it the capacitive branch dominates (B > 0).
  const double b_low =
      f.admittance(Frequency::ghz(1.0), Voltage{0.0}, v, 0.0).imag();
  const double b_high =
      f.admittance(Frequency::ghz(6.0), Voltage{0.0}, v, 0.0).imag();
  EXPECT_LT(b_low, 0.0);
  EXPECT_GT(b_high, 0.0);
}

TEST(FacePattern, LossTangentAddsConductance) {
  FacePattern f = fixed_tank();
  const Varactor v = Varactor::smv1233();
  const double g_clean = f.admittance(kF0, Voltage{0.0}, v, 0.0).real();
  const double g_lossy = f.admittance(kF0, Voltage{0.0}, v, 0.02).real();
  EXPECT_GT(g_lossy, g_clean);
}

TEST(FacePattern, VaractorBiasMovesSusceptance) {
  FacePattern f = tunable_tank();
  const Varactor v = Varactor::smv1233();
  const double b2 = f.admittance(kF0, Voltage{2.0}, v, 0.02).imag();
  const double b15 = f.admittance(kF0, Voltage{15.0}, v, 0.02).imag();
  EXPECT_GT(b2, b15);  // more capacitance at low bias
  EXPECT_GT(std::abs(b2 - b15), 1e-3);  // a few mS of swing
}

TEST(Board, TransmissionIsPassiveEverywhere) {
  const Board b = make_board(Substrate::fr4());
  for (double ghz = 2.0; ghz <= 2.8; ghz += 0.2)
    for (double bias = 0.0; bias <= 30.0; bias += 6.0) {
      const auto s =
          b.axis_sparams(Frequency::ghz(ghz), Voltage{bias}, false);
      EXPECT_TRUE(s.is_passive(1e-6)) << ghz << " GHz, " << bias << " V";
      EXPECT_TRUE(s.is_reciprocal(1e-7));
    }
}

TEST(Board, BiasShiftsTransmissionPhase) {
  const Board b = make_board(Substrate::fr4());
  const double p2 =
      std::arg(b.axis_transmission(kF0, Voltage{2.0}, false));
  const double p15 =
      std::arg(b.axis_transmission(kF0, Voltage{15.0}, false));
  EXPECT_GT(std::abs(p15 - p2), 0.3);  // tens of degrees of swing
}

TEST(Board, RogersTransmitsMoreThanFr4) {
  const Board fr4 = make_board(Substrate::fr4());
  const Board rogers = make_board(Substrate::rogers5880());
  const double t_fr4 =
      std::abs(fr4.axis_transmission(kF0, Voltage{8.0}, false));
  const double t_rog =
      std::abs(rogers.axis_transmission(kF0, Voltage{8.0}, false));
  EXPECT_GT(t_rog, t_fr4);
}

TEST(Board, ReflectionAndTransmissionShareEnergyBudget) {
  const Board b = make_board(Substrate::fr4());
  const double t = std::norm(b.axis_transmission(kF0, Voltage{5.0}, false));
  const double r = std::norm(b.axis_reflection(kF0, Voltage{5.0}, false));
  EXPECT_LE(t + r, 1.0 + 1e-6);
  EXPECT_GT(t + r, 0.3);  // not everything dissipates in a thin board
}

TEST(Board, JonesTransmissionIsDiagonalInEigenbasis) {
  const Board b = make_board(Substrate::fr4());
  const auto j = b.jones_transmission(kF0, Voltage{4.0}, Voltage{9.0});
  EXPECT_DOUBLE_EQ(std::abs(j.at(0, 1)), 0.0);
  EXPECT_DOUBLE_EQ(std::abs(j.at(1, 0)), 0.0);
  EXPECT_GT(std::abs(j.at(0, 0)), 0.1);
}

TEST(Board, IndependentAxisBiases) {
  const Board b = make_board(Substrate::fr4());
  const auto j1 = b.jones_transmission(kF0, Voltage{2.0}, Voltage{15.0});
  const auto j2 = b.jones_transmission(kF0, Voltage{2.0}, Voltage{2.0});
  // Same X bias -> same (0,0); different Y bias -> different (1,1).
  EXPECT_NEAR(std::abs(j1.at(0, 0) - j2.at(0, 0)), 0.0, 1e-12);
  EXPECT_GT(std::abs(j1.at(1, 1) - j2.at(1, 1)), 1e-3);
}

/// Bit equality of two complex values, naming the quantity on failure.
void expect_same_bits(microwave::Complex actual, microwave::Complex expected,
                      const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.real()),
            std::bit_cast<std::uint64_t>(expected.real()))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.imag()),
            std::bit_cast<std::uint64_t>(expected.imag()))
      << what;
}

TEST(Board, PlannedSingleCoefficientsMatchAxisSParamsBits) {
  // Both faces present on both axes, one static and one varactor-loaded, so
  // every branch of the axis chain runs.
  const Board b{"mixed", Substrate::fr4(), 0.8e-3,
                AxisPatterns{.front = tunable_tank(), .back = fixed_tank()},
                AxisPatterns{.front = fixed_tank(), .back = tunable_tank()}};
  for (const double ghz : {2.4, 2.44, 2.48}) {
    const BoardFrequencyPlan plan = b.make_frequency_plan(Frequency::ghz(ghz));
    for (const double vx : {0.0, 3.5, 30.0})
      for (const double vy : {0.0, 12.25, 30.0}) {
        const em::JonesMatrix j =
            b.jones_transmission(plan, Voltage{vx}, Voltage{vy});
        const microwave::SParams sx = b.axis_sparams(plan, Voltage{vx}, false);
        const microwave::SParams sy = b.axis_sparams(plan, Voltage{vy}, true);
        expect_same_bits(j.at(0, 0), sx.s21, "tx");
        expect_same_bits(j.at(0, 1), microwave::Complex{0.0, 0.0}, "j01");
        expect_same_bits(j.at(1, 0), microwave::Complex{0.0, 0.0}, "j10");
        expect_same_bits(j.at(1, 1), sy.s21, "ty");
        expect_same_bits(b.axis_reflection(plan, Voltage{vx}, false), sx.s11,
                         "rx");
        expect_same_bits(b.axis_reflection(plan, Voltage{vy}, true), sy.s11,
                         "ry");
      }
  }
}

TEST(Board, RejectsNonPositiveThickness) {
  EXPECT_THROW(Board("bad", Substrate::fr4(), 0.0, AxisPatterns{},
                     AxisPatterns{}),
               std::invalid_argument);
}

TEST(Board, DeratedVaractorNeedsMoreBias) {
  const Board ideal = make_board(Substrate::fr4());
  const Board derated{"derated", Substrate::fr4(), 0.8e-3,
                      AxisPatterns{.front = tunable_tank(), .back = {}},
                      AxisPatterns{.front = tunable_tank(), .back = {}},
                      Varactor::smv1233().derated(2.0)};
  // The derated board at 30 V behaves like the ideal one at 15 V.
  const auto t_ideal = ideal.axis_transmission(kF0, Voltage{15.0}, false);
  const auto t_derated = derated.axis_transmission(kF0, Voltage{30.0}, false);
  EXPECT_NEAR(std::abs(t_ideal - t_derated), 0.0, 1e-6);
}

}  // namespace
}  // namespace llama::metasurface
