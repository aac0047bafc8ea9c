#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/common/math_utils.h"

namespace llama::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int identical = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++identical;
  EXPECT_LT(identical, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, GaussianMomentsApproximatelyCorrect) {
  Rng rng{11};
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.gaussian(2.0, 3.0));
  EXPECT_NEAR(mean(xs), 2.0, 0.1);
  EXPECT_NEAR(stddev(xs), 3.0, 0.1);
}

TEST(Rng, GaussianMatchesScaledStdNormalDistribution) {
  // gaussian() scales one standard-normal draw; for any positive stddev
  // that is bit for bit what std::normal_distribution{mean, stddev} yields,
  // and it leaves the engine in the same state, so no stream moves.
  const double params[][2] = {{0.0, 1.0}, {2.0, 3.0}, {-62.0, 0.37}};
  for (const std::uint64_t seed : {1ULL, 0x11A02021ULL}) {
    Rng rng{seed};
    std::mt19937_64 reference{seed};
    for (int i = 0; i < 3000; ++i) {
      const auto& [mu, sigma] = params[i % 3];
      const double got = rng.gaussian(mu, sigma);
      const double want =
          std::normal_distribution<double>{mu, sigma}(reference);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "seed " << seed << " draw " << i;
    }
    EXPECT_TRUE(rng.engine() == reference);
  }
}

TEST(Rng, GaussianAtZeroSigmaReturnsTheMeanAndConsumesADraw) {
  Rng rng{3};
  Rng twin{3};
  EXPECT_EQ(rng.gaussian(-4.5, 0.0), -4.5);
  (void)twin.gaussian(0.0, 1.0);
  EXPECT_EQ(rng.uniform(0.0, 1.0), twin.uniform(0.0, 1.0));
}

TEST(Rng, GaussianRejectsNegativeOrNonFiniteSigma) {
  Rng rng{5};
  for (const double sigma : {-1.0, std::nan(""),
                             std::numeric_limits<double>::infinity()})
    EXPECT_THROW((void)rng.gaussian(0.0, sigma), std::invalid_argument)
        << "sigma " << sigma;
}

TEST(Rng, RayleighIsPositiveWithExpectedMean) {
  Rng rng{13};
  std::vector<double> xs;
  const double sigma = 2.0;
  for (int i = 0; i < 20000; ++i) {
    const double r = rng.rayleigh(sigma);
    ASSERT_GT(r, 0.0);
    xs.push_back(r);
  }
  // Rayleigh mean = sigma * sqrt(pi/2) ~= 2.5066 for sigma = 2.
  EXPECT_NEAR(mean(xs), sigma * std::sqrt(3.14159265 / 2.0), 0.05);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng{17};
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[static_cast<std::size_t>(
      rng.uniform_int(0, 4))];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng{19};
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(0.25)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
  Rng parent{23};
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int identical = 0;
  for (int i = 0; i < 100; ++i)
    if (child1.uniform(0.0, 1.0) == child2.uniform(0.0, 1.0)) ++identical;
  EXPECT_LT(identical, 5);
}

}  // namespace
}  // namespace llama::common
