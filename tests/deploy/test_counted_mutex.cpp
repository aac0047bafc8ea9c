// CountedMutex: the contention tally behind SharedResponseEngine's
// lock_contention statistic — uncontended traffic counts nothing, a
// provably contended acquisition counts exactly once, and the engine's
// cache_stats() surfaces the sum.
#include "src/deploy/deployment_engine.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/metasurface/designs.h"

namespace llama::deploy {
namespace {

TEST(CountedMutex, UncontendedTrafficCountsNothing) {
  CountedMutex m;
  for (int i = 0; i < 100; ++i) {
    m.lock();
    m.unlock();
  }
  EXPECT_TRUE(m.try_lock());
  m.unlock();
  EXPECT_EQ(m.contended(), 0u);
}

TEST(CountedMutex, ContendedAcquisitionCountsExactlyOnce) {
  CountedMutex m;
  m.lock();  // the main thread holds the lock...
  std::thread contender([&m] {
    m.lock();  // ...so this acquisition is contended by construction
    m.unlock();
  });
  // The tally is bumped BEFORE the contender blocks, so waiting for it is
  // race-free: once observed, release the lock and let the contender in.
  while (m.contended() == 0) std::this_thread::yield();
  m.unlock();
  contender.join();
  EXPECT_EQ(m.contended(), 1u);
}

TEST(CountedMutex, FailedTryLockDoesNotCount) {
  CountedMutex m;
  m.lock();
  EXPECT_FALSE(m.try_lock());  // contended, but try_lock never blocks
  m.unlock();
  EXPECT_EQ(m.contended(), 0u);
}

TEST(SharedResponseEngine, CacheStatsCarryLockContention) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  // Single-threaded traffic can never contend.
  const common::Frequency f = common::Frequency::ghz(2.44);
  for (double v : {0.0, 10.0, 20.0})
    (void)engine.response(f, metasurface::SurfaceMode::kTransmissive,
                          common::Voltage{v}, common::Voltage{v});
  const metasurface::ResponseCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.lock_contention, 0u);
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace llama::deploy
