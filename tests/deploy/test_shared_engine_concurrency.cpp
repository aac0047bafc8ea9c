// Regression for the ResponseCache statistics under concurrency: the
// counters are relaxed atomics, so (a) a monitor may poll cache_stats()
// while device shards are inside SharedResponseEngine's two-lock window path
// without tearing or serializing, and (b) no increment is ever lost — after
// the dust settles, hits + misses equals the exact number of lookups
// issued, for any interleaving. (c) The split does not depend on the
// interleaving either: a key counts one miss when it is first published,
// so misses equal the distinct keys, and a deployment round reports the
// same counts at any worker count.
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/scenarios.h"
#include "src/deploy/deployment_engine.h"
#include "src/metasurface/designs.h"

namespace llama::deploy {
namespace {

using common::Frequency;
using common::Voltage;
using metasurface::SurfaceMode;

TEST(SharedEngineConcurrency, StatsStayConsistentUnderConcurrentReaders) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);

  constexpr int kPointThreads = 4;
  constexpr int kPointLookups = 200;
  constexpr int kGridThreads = 2;
  constexpr int kGridWindows = 8;
  const std::vector<double> window{0.0, 10.0, 20.0, 30.0};

  // Point-probe workers cycle a small key set (first pass misses, the rest
  // hit); grid workers issue whole windows through the two-lock path.
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kPointThreads; ++t)
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPointLookups; ++i) {
        const double v = static_cast<double>((t + i) % 8);
        (void)engine.response(f, SurfaceMode::kTransmissive, Voltage{v},
                              Voltage{v});
      }
    });
  for (int t = 0; t < kGridThreads; ++t)
    workers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < kGridWindows; ++i)
        (void)engine.response_grid(f, SurfaceMode::kTransmissive, window,
                                   window);
    });

  // The monitor polls concurrently; counters must be monotone (no torn or
  // rolled-back reads) the whole time.
  std::atomic<bool> done{false};
  std::thread monitor{[&] {
    std::uint64_t last_total = 0;
    while (!done.load()) {
      const metasurface::ResponseCacheStats s = engine.cache_stats();
      const std::uint64_t total = s.hits + s.misses;
      EXPECT_GE(total, last_total);
      last_total = total;
    }
  }};

  go.store(true);
  for (std::thread& w : workers) w.join();
  done.store(true);
  monitor.join();

  // Every lookup counted exactly once: one per point probe, one per grid
  // cell. The point keys (v, v) for v in 0..7 and the 4x4 grid keys share
  // only (0, 0): 23 distinct keys, each one miss.
  const std::uint64_t expected_lookups =
      static_cast<std::uint64_t>(kPointThreads) * kPointLookups +
      static_cast<std::uint64_t>(kGridThreads) * kGridWindows *
          window.size() * window.size();
  const metasurface::ResponseCacheStats s = engine.cache_stats();
  EXPECT_EQ(s.hits + s.misses, expected_lookups);
  EXPECT_EQ(s.misses, 23u);
  EXPECT_EQ(s.evictions, 0u);  // capacity far exceeds the key set
}

TEST(SharedEngineConcurrency, RoundStatsDoNotDependOnTheWorkerCount) {
  const core::DenseDeploymentScenario s = core::dense_deployment_scenario(24, 4);
  std::optional<metasurface::ResponseCacheStats> serial;
  for (const int threads : {1, 2, 4, 8}) {
    DeploymentConfig config = s.config;
    config.threads = threads;
    DeploymentEngine engine{config};
    const metasurface::ResponseCacheStats stats =
        engine.run(s.devices).cache_stats;
    if (!serial) {
      serial = stats;
      EXPECT_GT(stats.hits, 0u);
      EXPECT_GT(stats.misses, 0u);
      continue;
    }
    EXPECT_EQ(stats.hits, serial->hits) << threads << " workers";
    EXPECT_EQ(stats.misses, serial->misses) << threads << " workers";
    EXPECT_EQ(stats.evictions, serial->evictions) << threads << " workers";
  }
}

}  // namespace
}  // namespace llama::deploy
