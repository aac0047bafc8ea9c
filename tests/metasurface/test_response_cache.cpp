// Golden correctness of the batched/cached response engine: the cached and
// batched paths must reproduce pointwise planned responses, the per-surface
// plan memo must be invisible to callers, and planned S-parameters must keep
// the physical invariants. The scalar cascade itself is pinned bit for bit in
// test_cascade_golden.cpp.
#include "src/metasurface/response_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/metasurface/designs.h"
#include "src/metasurface/metasurface.h"

namespace llama::metasurface {
namespace {

using common::Frequency;
using common::Voltage;
using em::JonesMatrix;

constexpr double kTol = 1e-12;

const double kBiasSamples[] = {0.0, 2.0, 7.25, 13.5, 21.0, 30.0};
const double kFreqSamplesGhz[] = {2.0, 2.40, 2.44, 2.48, 2.8};

void expect_jones_near(const JonesMatrix& a, const JonesMatrix& b,
                       double tol, const std::string& what) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(a.at(r, c).real(), b.at(r, c).real(), tol)
          << what << " [" << r << "," << c << "] re";
      EXPECT_NEAR(a.at(r, c).imag(), b.at(r, c).imag(), tol)
          << what << " [" << r << "," << c << "] im";
    }
}

TEST(BoardFrequencyPlan, CachedSParamsKeepPhysicalInvariants) {
  const RotatorStack stack = prototype_fr4_design();
  for (const StackElement& e : stack.elements()) {
    const Frequency f = Frequency::ghz(2.44);
    const BoardFrequencyPlan plan = e.board.make_frequency_plan(f);
    for (double v : kBiasSamples) {
      for (bool y_axis : {false, true}) {
        const auto s = e.board.axis_sparams(plan, Voltage{v}, y_axis);
        EXPECT_TRUE(s.is_passive())
            << e.board.name() << " @ " << v << " V";
        EXPECT_TRUE(s.is_reciprocal())
            << e.board.name() << " @ " << v << " V";
      }
    }
  }
}

TEST(ResponseCacheTest, CachedResponseMatchesUncachedBothModes) {
  Metasurface uncached = Metasurface::llama_prototype();
  Metasurface cached = Metasurface::llama_prototype();
  cached.enable_response_cache();

  for (double ghz : kFreqSamplesGhz) {
    const Frequency f = Frequency::ghz(ghz);
    for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      for (double vx : kBiasSamples) {
        for (double vy : kBiasSamples) {
          uncached.set_bias(Voltage{vx}, Voltage{vy});
          cached.set_bias(Voltage{vx}, Voltage{vy});
          // Query twice: first populates the memo, second must hit it.
          const JonesMatrix reference = uncached.response(f, mode);
          expect_jones_near(reference, cached.response(f, mode), kTol,
                            "first (miss) query");
          expect_jones_near(reference, cached.response(f, mode), kTol,
                            "second (hit) query");
        }
      }
    }
  }
  const std::optional<ResponseCacheStats> stats =
      cached.response_cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->hits, 0u);
  EXPECT_GT(stats->misses, 0u);
}

void expect_same_bytes(const JonesMatrix& a, const JonesMatrix& b,
                       const std::string& what) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      const auto x = a.at(r, c);
      const auto y = b.at(r, c);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
          << what << " [" << r << "," << c << "]";
    }
}

TEST(ResponsePlanMemo, AlternatingQueriesMatchAFreshSurface) {
  // Pointwise response() reuses one memoized plan per mode and rebuilds it
  // whenever the frequency changes. Bouncing between frequencies and modes,
  // on the warm surface and on copies of it, must never leak a stale plan.
  const Frequency f1 = Frequency::ghz(2.44);
  const Frequency f2 = Frequency::ghz(2.40);
  const struct {
    Frequency f;
    SurfaceMode mode;
  } queries[] = {{f1, SurfaceMode::kTransmissive},
                 {f2, SurfaceMode::kReflective},
                 {f1, SurfaceMode::kTransmissive},
                 {f2, SurfaceMode::kTransmissive},
                 {f1, SurfaceMode::kReflective},
                 {f2, SurfaceMode::kReflective},
                 {f1, SurfaceMode::kReflective}};
  const auto fresh = [](const Metasurface& like, Frequency f,
                        SurfaceMode mode) {
    Metasurface m = Metasurface::llama_prototype();
    m.set_bias(like.bias_x(), like.bias_y());
    return m.response(f, mode);
  };
  const auto replay = [&](const Metasurface& surface, const char* what) {
    for (const auto& q : queries)
      expect_same_bytes(surface.response(q.f, q.mode),
                        fresh(surface, q.f, q.mode), what);
  };

  Metasurface surface = Metasurface::llama_prototype();
  surface.set_bias(Voltage{7.25}, Voltage{13.5});
  replay(surface, "warm surface");
  surface.set_bias(Voltage{21.0}, Voltage{2.0});
  replay(surface, "warm surface, new bias");

  const Metasurface copy = surface;
  replay(copy, "copy-constructed");
  Metasurface assigned = Metasurface::llama_prototype();
  (void)assigned.response(f2, SurfaceMode::kTransmissive);  // warm at f2
  assigned = surface;
  replay(assigned, "copy-assigned");
}

TEST(ResponseCacheTest, QuantizationBucketsShareOneEntry) {
  Metasurface surface = Metasurface::llama_prototype();
  ResponseCacheConfig config;
  config.voltage_quantum_v = 0.5;
  surface.enable_response_cache(config);
  const Frequency f = Frequency::ghz(2.44);

  surface.set_bias(Voltage{10.1}, Voltage{10.1});
  const JonesMatrix a = surface.response(f, SurfaceMode::kTransmissive);
  surface.set_bias(Voltage{10.2}, Voltage{10.2});
  const JonesMatrix b = surface.response(f, SurfaceMode::kTransmissive);
  // Both biases quantize to 10.0 V, so the second query is a pure hit and
  // returns the identical matrix.
  expect_jones_near(a, b, 0.0, "same-bucket responses");
  const std::optional<ResponseCacheStats> stats =
      surface.response_cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 1u);

  // And the shared value is the response at the quantized representative.
  Metasurface reference = Metasurface::llama_prototype();
  reference.set_bias(Voltage{10.0}, Voltage{10.0});
  expect_jones_near(reference.response(f, SurfaceMode::kTransmissive), a,
                    kTol, "quantized representative");
}

TEST(ResponseCacheTest, LruEvictionBoundsTheCacheAndKeepsCorrectness) {
  Metasurface surface = Metasurface::llama_prototype();
  Metasurface reference = Metasurface::llama_prototype();
  ResponseCacheConfig config;
  config.capacity = 4;
  surface.enable_response_cache(config);
  const Frequency f = Frequency::ghz(2.44);

  for (int pass = 0; pass < 2; ++pass) {
    for (double v : {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
      surface.set_bias(Voltage{v}, Voltage{v});
      reference.set_bias(Voltage{v}, Voltage{v});
      expect_jones_near(reference.response(f, SurfaceMode::kTransmissive),
                        surface.response(f, SurfaceMode::kTransmissive),
                        kTol, "evicting cache");
    }
  }
  const std::optional<ResponseCacheStats> stats =
      surface.response_cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->evictions, 0u);
}

TEST(ResponseCacheTest, InsertCountsTheMissAndARepublishedKeyAsAHit) {
  // find() counts only hits; the miss is counted when insert() files a new
  // key, and an insert() of a key already filed (a racing owner published
  // it first) is a hit. So misses equal the distinct keys however
  // concurrent owners interleave.
  ResponseCache cache{ResponseCacheConfig{.capacity = 2}};
  const Frequency f = Frequency::ghz(2.44);
  const auto key = [&](double v) {
    return cache.make_key(f, Voltage{v}, Voltage{v}, 0);
  };
  EXPECT_FALSE(cache.find(key(1.0)).has_value());
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.insert(key(1.0), JonesMatrix::identity());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.insert(key(1.0), JonesMatrix::identity());  // published twice
  EXPECT_TRUE(cache.find(key(1.0)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.insert(key(2.0), JonesMatrix::identity());
  cache.insert(key(3.0), JonesMatrix::identity());  // evicts key(1.0)
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.find(key(1.0)).has_value());
}

TEST(ResponseCacheTest, SignedZeroFrequencyMapsToOneKey) {
  // Regression: make_key bit_cast the raw frequency, so -0.0 Hz and 0.0 Hz
  // (equal values, different bit patterns) produced distinct keys and an
  // entry written under one was invisible under the other.
  ResponseCache cache{ResponseCacheConfig{}};
  const auto k_pos =
      cache.make_key(Frequency::hz(0.0), Voltage{1.0}, Voltage{2.0}, 0);
  const auto k_neg =
      cache.make_key(Frequency::hz(-0.0), Voltage{1.0}, Voltage{2.0}, 0);
  EXPECT_EQ(k_pos.frequency_bits, k_neg.frequency_bits);
  EXPECT_TRUE(k_pos == k_neg);
  cache.insert(k_pos, JonesMatrix::identity());
  EXPECT_TRUE(cache.find(k_neg).has_value());
}

TEST(ResponseCacheTest, NanFrequencyIsRejected) {
  // NaN bits would poison the map with a key no equal-comparing lookup can
  // ever match (NaN != NaN), leaking an unreachable entry per insert.
  ResponseCache cache{ResponseCacheConfig{}};
  EXPECT_THROW((void)cache.make_key(Frequency::hz(std::nan("")),
                                    Voltage{1.0}, Voltage{1.0}, 0),
               std::invalid_argument);
}

TEST(ResponseCacheTest, RejectsInvalidConfig) {
  EXPECT_THROW(ResponseCache(ResponseCacheConfig{.voltage_quantum_v = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(ResponseCache(ResponseCacheConfig{.capacity = 0}),
               std::invalid_argument);
}

TEST(ResponseGrid, MatchesPointwiseResponses) {
  Metasurface surface = Metasurface::llama_prototype();
  const Frequency f = Frequency::ghz(2.44);
  const std::vector<double> vxs{0.0, 7.5, 15.0, 30.0};
  const std::vector<double> vys{0.0, 10.0, 30.0};
  for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    const JonesGrid grid = surface.response_grid(f, mode, vxs, vys);
    ASSERT_EQ(grid.size(), vys.size());
    for (std::size_t iy = 0; iy < vys.size(); ++iy) {
      ASSERT_EQ(grid[iy].size(), vxs.size());
      for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
        surface.set_bias(Voltage{vxs[ix]}, Voltage{vys[iy]});
        expect_jones_near(surface.response(f, mode), grid[iy][ix], kTol,
                          "grid cell");
      }
    }
  }
}

TEST(ResponseGrid, BatchMatchesPointwiseResponses) {
  // Arbitrary bias pairs, each evaluated as a 1x1 window.
  Metasurface surface = Metasurface::llama_prototype();
  const Frequency f = Frequency::ghz(2.44);
  const std::vector<std::pair<double, double>> points{
      {0.0, 30.0}, {12.3, 4.5}, {30.0, 0.0}};
  for (const auto& [vx, vy] : points) {
    const JonesGrid cell =
        surface.response_grid(f, SurfaceMode::kTransmissive, {vx}, {vy});
    surface.set_bias(Voltage{vx}, Voltage{vy});
    expect_jones_near(surface.response(f, SurfaceMode::kTransmissive),
                      cell[0][0], kTol, "batch point");
  }
}

TEST(ResponseGrid, ThreadCountDoesNotChangeBytes) {
  const Metasurface surface = Metasurface::llama_prototype();
  const Frequency f = Frequency::ghz(2.44);
  std::vector<double> axis;
  for (double v = 0.0; v <= 30.0; v += 2.0) axis.push_back(v);
  for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    const JonesGrid serial = surface.response_grid(f, mode, axis, axis, 1);
    const JonesGrid parallel = surface.response_grid(f, mode, axis, axis, 5);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t iy = 0; iy < serial.size(); ++iy)
      for (std::size_t ix = 0; ix < serial[iy].size(); ++ix)
        for (int r = 0; r < 2; ++r)
          for (int c = 0; c < 2; ++c) {
            const auto a = serial[iy][ix].at(r, c);
            const auto b = parallel[iy][ix].at(r, c);
            // Byte-identical, not merely close.
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0);
          }
  }
}

}  // namespace
}  // namespace llama::metasurface
