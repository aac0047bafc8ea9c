// Determinism of the batched sweep engine: sweeps rerun cleanly, and
// parallel grid evaluation is byte-identical to the single-threaded path.
// The sweeps' outputs themselves are pinned in test_sweep_golden.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/control/search.h"
#include "src/control/sweep.h"
#include "src/core/scenarios.h"

namespace llama::control {
namespace {

using common::PowerDbm;
using common::Voltage;

/// Deterministic synthetic plant with one global optimum.
PowerProbe gaussian_peak(double vx_star, double vy_star, double width = 8.0) {
  return [=](Voltage vx, Voltage vy) {
    const double dx = vx.value() - vx_star;
    const double dy = vy.value() - vy_star;
    return PowerDbm{-30.0 - (dx * dx + dy * dy) / (width * width) * 10.0};
  };
}

TEST(GridOf, ProbesVxOuterVyInner) {
  // Algorithm 1's scan order: a stateful (noisy) pointwise probe must see
  // its cells in this order, whatever shape the sweep asks for.
  std::vector<std::pair<double, double>> calls;
  const GridPowerProbe probe = grid_of([&](Voltage vx, Voltage vy) {
    calls.emplace_back(vx.value(), vy.value());
    return PowerDbm{vx.value() * 100.0 + vy.value()};
  });
  const PowerGrid grid = probe({1.0, 2.0, 3.0}, {4.0, 5.0});
  const std::vector<std::pair<double, double>> expected = {
      {1.0, 4.0}, {1.0, 5.0}, {2.0, 4.0}, {2.0, 5.0}, {3.0, 4.0}, {3.0, 5.0}};
  EXPECT_EQ(calls, expected);
  ASSERT_EQ(grid.size(), 2u);
  ASSERT_EQ(grid[0].size(), 3u);
  for (std::size_t iy = 0; iy < 2; ++iy)
    for (std::size_t ix = 0; ix < 3; ++ix)
      EXPECT_EQ(grid[iy][ix].value(),
                static_cast<double>(ix + 1) * 100.0 +
                    static_cast<double>(iy + 4));
}

TEST(FullGridSweepBatched, RepeatedRunsDoNotLeakState) {
  const GridPowerProbe probe = grid_of(gaussian_peak(18.0, 6.0));
  PowerSupply psu;
  FullGridSweep sweep{psu, {}};
  const SweepResult first = sweep.run(probe);
  const std::size_t rows = sweep.grid_dbm().size();
  const std::size_t cols = sweep.grid_dbm().front().size();

  // A second run must fully replace the outputs.
  const SweepResult again = sweep.run(probe);
  EXPECT_EQ(sweep.grid_dbm().size(), rows);
  EXPECT_EQ(sweep.grid_dbm().front().size(), cols);
  EXPECT_EQ(sweep.vx_values().size(), cols);
  EXPECT_EQ(sweep.vy_values().size(), rows);
  EXPECT_EQ(first.best_power.value(), again.best_power.value());
}

TEST(SystemGridProbe, ThreadCountDoesNotChangeBytes) {
  // Two identical systems probed with different worker counts must produce
  // byte-identical power grids: every cell is a pure planned evaluation and
  // the analytic measurement consumes no RNG state.
  std::vector<double> axis;
  for (double v = 0.0; v <= 30.0; v += 3.0) axis.push_back(v);

  core::LlamaSystem sys_serial{core::transmissive_mismatch_config()};
  core::LlamaSystem sys_parallel{core::transmissive_mismatch_config()};
  const PowerGrid serial = sys_serial.make_grid_probe(1)(axis, axis);
  const PowerGrid parallel = sys_parallel.make_grid_probe(7)(axis, axis);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t iy = 0; iy < serial.size(); ++iy)
    for (std::size_t ix = 0; ix < serial[iy].size(); ++ix) {
      const double a = serial[iy][ix].value();
      const double b = parallel[iy][ix].value();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
          << "cell (" << iy << ", " << ix << ")";
    }
}

TEST(SystemGridProbe, FullGridSweepBatchedIsDeterministicAcrossThreads) {
  core::LlamaSystem sys_a{core::reflective_mismatch_config()};
  core::LlamaSystem sys_b{core::reflective_mismatch_config()};
  PowerSupply psu_a;
  PowerSupply psu_b;
  FullGridSweep::Options opt;
  opt.step = common::Voltage{3.0};
  FullGridSweep sweep_a{psu_a, opt};
  FullGridSweep sweep_b{psu_b, opt};

  const SweepResult a = sweep_a.run(sys_a.make_grid_probe(1));
  const SweepResult b = sweep_b.run(sys_b.make_grid_probe(6));
  EXPECT_EQ(a.best_vx.value(), b.best_vx.value());
  EXPECT_EQ(a.best_vy.value(), b.best_vy.value());
  EXPECT_EQ(a.best_power.value(), b.best_power.value());
  ASSERT_EQ(sweep_a.grid_dbm().size(), sweep_b.grid_dbm().size());
  for (std::size_t iy = 0; iy < sweep_a.grid_dbm().size(); ++iy)
    for (std::size_t ix = 0; ix < sweep_a.grid_dbm()[iy].size(); ++ix)
      EXPECT_EQ(sweep_a.grid_dbm()[iy][ix], sweep_b.grid_dbm()[iy][ix]);
}

TEST(SystemGridProbe, BatchedOptimizationFindsAComparableOptimum) {
  // The expected-power round has no sampling jitter, so its optimum must
  // sit within the probe noise of the noisy windowed-IQ round's.
  core::LlamaSystem noisy_sys{core::transmissive_mismatch_config()};
  core::LlamaSystem batched_sys{core::transmissive_mismatch_config()};
  const auto noisy = noisy_sys.optimize_link();
  const auto batched = batched_sys.optimize_link_batched();
  EXPECT_EQ(noisy.sweep.probes, batched.sweep.probes);
  EXPECT_NEAR(noisy.sweep.best_power.value(),
              batched.sweep.best_power.value(), 1.5);
  // The surface is left programmed at the batched winner.
  EXPECT_EQ(batched_sys.surface().bias_x().value(),
            batched.sweep.best_vx.value());
  EXPECT_EQ(batched_sys.surface().bias_y().value(),
            batched.sweep.best_vy.value());
}

TEST(FastProbes, CachedPointProbeKeepsSequentialSearchesWorking) {
  core::LlamaSystem sys{core::transmissive_mismatch_config()};
  sys.enable_fast_probes();
  PowerSupply psu;
  HillClimb climb{psu, {}};
  const SweepResult r = climb.run(sys.make_probe(0.01));
  EXPECT_GT(r.probes, 0);
  const auto stats = sys.surface().response_cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->misses, 0u);
}

}  // namespace
}  // namespace llama::control
