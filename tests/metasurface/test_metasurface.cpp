#include "src/metasurface/metasurface.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace llama::metasurface {
namespace {

using common::Frequency;
using common::Voltage;

const Frequency kF0 = Frequency::ghz(2.44);

TEST(Metasurface, PrototypeSpecMatchesPaperSection4) {
  const Metasurface m = Metasurface::llama_prototype();
  EXPECT_DOUBLE_EQ(m.spec().width_m, 0.48);
  EXPECT_DOUBLE_EQ(m.spec().height_m, 0.48);
  EXPECT_EQ(m.spec().unit_count, 180u);
  EXPECT_EQ(m.spec().varactor_count, 720u);
  EXPECT_DOUBLE_EQ(m.spec().leakage_current_a, 15e-9);
}

TEST(Metasurface, CostBreakdownMatchesPaper) {
  // Paper Section 4: $540 of PCB + 720 x $0.50 varactors = $900 total,
  // $5 per unit.
  const CostBreakdown c = Metasurface::llama_prototype().cost();
  EXPECT_NEAR(c.varactors_usd, 360.0, 1e-9);
  EXPECT_NEAR(c.pcb_usd, 540.0, 1e-9);
  EXPECT_NEAR(c.total_usd, 900.0, 1e-9);
  EXPECT_NEAR(c.per_unit_usd, 5.0, 1e-9);
}

TEST(Metasurface, BiasIsClampedToSupplyRange) {
  Metasurface m = Metasurface::llama_prototype();
  m.set_bias(Voltage{45.0}, Voltage{-3.0});
  EXPECT_DOUBLE_EQ(m.bias_x().value(), 30.0);
  EXPECT_DOUBLE_EQ(m.bias_y().value(), 0.0);
}

TEST(Metasurface, NonFiniteBiasIsRejected) {
  // Regression: std::clamp passes NaN through, so set_bias(NaN, 5) stored
  // NaN and every later response() came back NaN.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  Metasurface m = Metasurface::llama_prototype();
  m.set_bias(Voltage{4.0}, Voltage{9.0});
  EXPECT_THROW(m.set_bias(Voltage{nan}, Voltage{5.0}), std::invalid_argument);
  try {
    m.set_bias(Voltage{5.0}, Voltage{-inf});
    ADD_FAILURE() << "set_bias accepted an infinite vy";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("vy"), std::string::npos)
        << e.what();
  }
  // A rejected call leaves the previous bias in place.
  EXPECT_EQ(m.bias_x().value(), 4.0);
  EXPECT_EQ(m.bias_y().value(), 9.0);
  const em::JonesMatrix j = m.response(kF0, SurfaceMode::kTransmissive);
  EXPECT_TRUE(std::isfinite(j.at(0, 0).real()));
}

TEST(Metasurface, NonFiniteBiasNeverReachesTheResponseCache) {
  // Regression: with the cache on, a NaN bias was stored under an
  // llround(NaN) key.
  Metasurface m = Metasurface::llama_prototype();
  m.enable_response_cache();
  EXPECT_THROW(m.set_bias(Voltage{std::nan("")}, Voltage{5.0}),
               std::invalid_argument);
  (void)m.response(kF0, SurfaceMode::kTransmissive);
  const std::optional<ResponseCacheStats> stats = m.response_cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->misses, 1u);
  EXPECT_TRUE(std::isfinite(
      m.response(kF0, SurfaceMode::kTransmissive).at(1, 1).imag()));
}

TEST(Metasurface, NonFiniteStuckBiasIsRejected) {
  Metasurface m = Metasurface::llama_prototype();
  StuckCellFault fault;
  fault.fraction = 0.25;
  fault.vx = Voltage{std::nan("")};
  EXPECT_THROW(m.set_stuck_cells(fault), std::invalid_argument);
  fault.vx = Voltage{3.0};
  fault.vy = Voltage{std::numeric_limits<double>::infinity()};
  EXPECT_THROW(m.set_stuck_cells(fault), std::invalid_argument);
  EXPECT_FALSE(m.stuck_cells().has_value());
}

TEST(Metasurface, NonFiniteBatchBiasIsRejected) {
  // Regression: response_grid clamped NaN lanes through and returned NaN
  // cells.
  const Metasurface m = Metasurface::llama_prototype();
  const double nan = std::nan("");
  EXPECT_THROW((void)m.response_grid(kF0, SurfaceMode::kTransmissive,
                                     {0.0, nan}, {1.0}),
               std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(
      (void)m.response_grid(kF0, SurfaceMode::kReflective, {1.0}, {inf}),
      std::invalid_argument);
}

TEST(Metasurface, DcPowerIsNanowatts) {
  // Paper Section 3.3: 15 nA leakage means the surface "can work even with
  // one buffer capacitor".
  Metasurface m = Metasurface::llama_prototype();
  m.set_bias(Voltage{30.0}, Voltage{30.0});
  EXPECT_LT(m.dc_power_w(), 1e-6);
  EXPECT_GT(m.dc_power_w(), 0.0);
}

TEST(Metasurface, ResponseChangesWithBias) {
  Metasurface m = Metasurface::llama_prototype();
  m.set_bias(Voltage{4.0}, Voltage{4.0});
  const auto j1 = m.response(kF0, SurfaceMode::kTransmissive);
  m.set_bias(Voltage{4.0}, Voltage{30.0});
  const auto j2 = m.response(kF0, SurfaceMode::kTransmissive);
  EXPECT_GT(std::abs(j1.at(1, 1) - j2.at(1, 1)), 1e-3);
}

TEST(Metasurface, RotationTracksStack) {
  Metasurface m = Metasurface::llama_prototype();
  m.set_bias(Voltage{4.0}, Voltage{30.0});
  EXPECT_NEAR(m.rotation_angle(kF0).deg(),
              m.stack().rotation_angle(kF0, Voltage{4.0}, Voltage{30.0}).deg(),
              1e-12);
}

TEST(Metasurface, TransmissiveAndReflectiveDiffer) {
  Metasurface m = Metasurface::llama_prototype();
  m.set_bias(Voltage{10.0}, Voltage{20.0});
  const auto t = m.response(kF0, SurfaceMode::kTransmissive);
  const auto r = m.response(kF0, SurfaceMode::kReflective);
  EXPECT_GT(std::abs(t.at(0, 0) - r.at(0, 0)), 1e-3);
}

TEST(Metasurface, EfficiencyAccessorsAgreeWithStack) {
  Metasurface m = Metasurface::llama_prototype();
  m.set_bias(Voltage{10.0}, Voltage{10.0});
  EXPECT_NEAR(transmission_efficiency_db(
                  m.response(kF0, SurfaceMode::kTransmissive), false),
              m.stack().transmission_efficiency_db(kF0, Voltage{10.0},
                                                   Voltage{10.0}, false),
              1e-12);
}

TEST(Metasurface, CustomLatticeSpecPropagates) {
  LatticeSpec spec;
  spec.unit_count = 3000;
  spec.varactor_count = 12000;
  spec.pcb_cost_usd = 3000.0;
  spec.varactor_unit_cost_usd = 0.25;
  const Metasurface m{optimized_fr4_design(), spec};
  // Paper: "we expect the unit cost can be reduced to $2 when there are
  // more than 3000 units per PCB".
  EXPECT_NEAR(m.cost().per_unit_usd, 2.0, 0.01);
}

}  // namespace
}  // namespace llama::metasurface
