#include "src/channel/propagation.h"

#include <gtest/gtest.h>

#include <cmath>

namespace llama::channel {
namespace {

using common::Frequency;
using common::GainDb;

const Frequency kF0 = Frequency::ghz(2.44);

TEST(Friis, AmplitudeInverseWithDistance) {
  EXPECT_NEAR(friis_amplitude(kF0, 1.0) / friis_amplitude(kF0, 2.0), 2.0,
              1e-9);
}

TEST(Friis, KnownValueAtOneMeter) {
  // lambda/(4 pi d) at 2.44 GHz, 1 m: 0.12287/(12.566) ~= 9.78e-3.
  EXPECT_NEAR(friis_amplitude(kF0, 1.0), 9.777e-3, 1e-5);
}

TEST(Friis, LossDbIsTwentyLogAmplitude) {
  const double a = friis_amplitude(kF0, 0.42);
  EXPECT_NEAR(friis_loss_db(kF0, 0.42).value(), -20.0 * std::log10(a), 1e-9);
}

TEST(Friis, SixDbPerDistanceDoubling) {
  const double l1 = friis_loss_db(kF0, 1.0).value();
  const double l2 = friis_loss_db(kF0, 2.0).value();
  EXPECT_NEAR(l2 - l1, 6.0206, 1e-3);
}

TEST(Friis, RangeExtensionMatchesPaperClaim) {
  // Paper Section 5.1.1: 15 dB of link gain extends range by ~5.6x.
  EXPECT_NEAR(friis_range_extension(GainDb{15.0}), 5.62, 0.02);
  EXPECT_NEAR(friis_range_extension(GainDb{0.0}), 1.0, 1e-12);
}

TEST(Friis, TinyDistanceIsClamped) {
  EXPECT_TRUE(std::isfinite(friis_amplitude(kF0, 0.0)));
}

TEST(EnvironmentModel, AbsorberChamberIsClean) {
  const Environment env = Environment::absorber_chamber();
  EXPECT_FALSE(env.has_multipath());
  EXPECT_LT(env.interference_floor().value(), -140.0);
}

TEST(EnvironmentModel, LaboratoryHasRaysAndInterference) {
  common::Rng rng{99};
  const Environment env = Environment::laboratory(rng);
  EXPECT_TRUE(env.has_multipath());
  EXPECT_EQ(env.rays().size(), 6u);
  EXPECT_GT(env.interference_floor().value(), -90.0);
}

TEST(EnvironmentModel, RayStatisticsFollowRequest) {
  common::Rng rng{7};
  const Environment env = Environment::laboratory(rng, 200, 0.2);
  double mean_amp = 0.0;
  for (const auto& ray : env.rays()) {
    EXPECT_GT(ray.amplitude_scale, 0.0);
    mean_amp += ray.amplitude_scale;
  }
  mean_amp /= static_cast<double>(env.rays().size());
  EXPECT_NEAR(mean_amp, 0.2, 0.05);
}

TEST(EnvironmentModel, FrozenChannelIsDeterministicPerSeed) {
  common::Rng rng1{42};
  common::Rng rng2{42};
  const Environment a = Environment::laboratory(rng1);
  const Environment b = Environment::laboratory(rng2);
  ASSERT_EQ(a.rays().size(), b.rays().size());
  for (std::size_t i = 0; i < a.rays().size(); ++i)
    EXPECT_DOUBLE_EQ(a.rays()[i].phase_rad, b.rays()[i].phase_rad);
}

TEST(CombineMultipath, NoRaysIsIdentity) {
  const em::JonesVector los{em::Complex{0.1, 0.0}, em::Complex{0.0, 0.0}};
  const em::JonesVector tx = em::JonesVector::horizontal();
  const Environment env = Environment::absorber_chamber();
  const auto out = combine_multipath(los, ray_terms(env, tx), 1e-2);
  EXPECT_DOUBLE_EQ(out.power(), los.power());
}

TEST(CombineMultipath, RaysAddPowerOnAverage) {
  common::Rng rng{5};
  const Environment env = Environment::laboratory(rng, 50, 0.3);
  const em::JonesVector tx = em::JonesVector::horizontal();
  const em::JonesVector los{em::Complex{0.0, 0.0}, em::Complex{0.0, 0.0}};
  const auto out = combine_multipath(los, ray_terms(env, tx), 1e-2);
  EXPECT_GT(out.power(), 0.0);
}

TEST(CombineMultipath, RayAmplitudeScalesWithReference) {
  common::Rng rng{5};
  const Environment env = Environment::laboratory(rng, 10, 0.3);
  const em::JonesVector tx = em::JonesVector::horizontal();
  const em::JonesVector zero{em::Complex{0.0, 0.0}, em::Complex{0.0, 0.0}};
  const double p1 = combine_multipath(zero, ray_terms(env, tx), 1e-2).power();
  const double p2 = combine_multipath(zero, ray_terms(env, tx), 2e-2).power();
  EXPECT_NEAR(p2 / p1, 4.0, 1e-9);  // amplitude x2 => power x4
}

}  // namespace
}  // namespace llama::channel
