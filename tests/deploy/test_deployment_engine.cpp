// Deployment-engine correctness: the shared plan registry + cache must
// reproduce the per-surface response engine exactly, device shards must be
// byte-identical for any thread count, and the engine must agree with the
// pre-engine per-device LlamaSystem path at the same measurement model.
#include "src/deploy/deployment_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/core/scenarios.h"
#include "src/metasurface/designs.h"

namespace llama::deploy {
namespace {

using common::Frequency;
using common::PowerDbm;
using common::Voltage;
using em::JonesMatrix;
using metasurface::SurfaceMode;

constexpr double kTol = 1e-12;

void expect_jones_near(const JonesMatrix& a, const JonesMatrix& b, double tol,
                       const std::string& what) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(a.at(r, c).real(), b.at(r, c).real(), tol)
          << what << " [" << r << "," << c << "] re";
      EXPECT_NEAR(a.at(r, c).imag(), b.at(r, c).imag(), tol)
          << what << " [" << r << "," << c << "] im";
    }
}

TEST(SharedResponseEngine, MatchesPrivateCachedMetasurface) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  metasurface::Metasurface reference = metasurface::Metasurface::llama_prototype();
  reference.enable_response_cache();  // same default quantization contract
  const Frequency f = Frequency::ghz(2.44);
  for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    for (double vx : {0.0, 7.25, 13.5, 30.0}) {
      for (double vy : {0.0, 4.5, 21.0, 30.0}) {
        reference.set_bias(Voltage{vx}, Voltage{vy});
        expect_jones_near(reference.response(f, mode),
                          engine.response(f, mode, Voltage{vx}, Voltage{vy}),
                          kTol, "shared vs private cache");
      }
    }
  }
  // One plan per (frequency, mode) touched, never one per caller.
  EXPECT_EQ(engine.plan_count(), 2u);
}

TEST(SharedResponseEngine, GridMatchesPointwiseAndFillsCache) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);
  const std::vector<double> vxs{0.0, 7.5, 15.0, 30.0};
  const std::vector<double> vys{0.0, 10.0, 30.0};
  // Pre-warm two cells so the grid path exercises the hit+miss mix.
  (void)engine.response(f, SurfaceMode::kTransmissive, Voltage{7.5},
                        Voltage{10.0});
  const metasurface::JonesGrid grid =
      engine.response_grid(f, SurfaceMode::kTransmissive, vxs, vys);
  ASSERT_EQ(grid.size(), vys.size());
  for (std::size_t iy = 0; iy < vys.size(); ++iy) {
    ASSERT_EQ(grid[iy].size(), vxs.size());
    for (std::size_t ix = 0; ix < vxs.size(); ++ix)
      expect_jones_near(engine.response(f, SurfaceMode::kTransmissive,
                                        Voltage{vxs[ix]}, Voltage{vys[iy]}),
                        grid[iy][ix], 0.0, "grid cell vs pointwise");
  }
  // Every cell of the window is a distinct key, filed once.
  const metasurface::ResponseCacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.misses, vxs.size() * vys.size());
}

TEST(SharedResponseEngine, RejectsNonFiniteBiases) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no std::invalid_argument thrown";
  };
  EXPECT_EQ(message_of([&] {
              (void)engine.response(f, SurfaceMode::kTransmissive,
                                    Voltage{nan}, Voltage{5.0});
            }),
            "SharedResponseEngine: response vx must be finite");
  EXPECT_EQ(message_of([&] {
              (void)engine.response(f, SurfaceMode::kReflective, Voltage{5.0},
                                    Voltage{-inf});
            }),
            "SharedResponseEngine: response vy must be finite");
  EXPECT_EQ(message_of([&] {
              (void)engine.response_grid(f, SurfaceMode::kTransmissive,
                                         {nan, 3.0}, {5.0});
            }),
            "SharedResponseEngine: response_grid vxs must be finite");
  EXPECT_EQ(message_of([&] {
              (void)engine.response_grid(f, SurfaceMode::kTransmissive,
                                         {3.0}, {5.0, inf});
            }),
            "SharedResponseEngine: response_grid vys must be finite");
  // Rejected before any lookup: nothing cached, nothing counted.
  EXPECT_EQ(engine.cache_stats().hits + engine.cache_stats().misses, 0u);
}

/// Clamped, 1 mV-quantized bias: the value the engine evaluates at.
double engine_bias(double v) {
  const metasurface::ResponseCache lattice{metasurface::ResponseCacheConfig{}};
  return lattice.quantize(Voltage{std::clamp(v, 0.0, 30.0)}).value();
}

void expect_same_bytes(const metasurface::JonesGrid& a,
                       const metasurface::JonesGrid& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t iy = 0; iy < a.size(); ++iy) {
    ASSERT_EQ(a[iy].size(), b[iy].size()) << what;
    EXPECT_EQ(std::memcmp(a[iy].data(), b[iy].data(),
                          a[iy].size() * sizeof(JonesMatrix)),
              0)
        << what << " row " << iy;
  }
}

// Every engine value is a kernel cell, a pure function of (plan, quantized
// bias): a window's bytes must not depend on which of its cells were
// already cached, or by which window shape they were cached.
TEST(SharedResponseEngine, GridBytesDoNotDependOnCacheState) {
  const Frequency f = Frequency::ghz(2.44);
  // Off-lattice and out-of-range values exercise the clamp + quantization.
  const std::vector<double> vxs{-1.0, 0.0, 3.3337, 7.5, 12.2504, 30.0, 31.0};
  const std::vector<double> vys{0.0, 4.0004, 15.0, 22.75, 29.9996};
  for (const SurfaceMode mode :
       {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    SharedResponseEngine cold{metasurface::prototype_fr4_design()};
    const metasurface::JonesGrid grid = cold.response_grid(f, mode, vxs, vys);

    // Pre-warmed pointwise on a checkerboard (the window still misses, so a
    // kernel recomputes it) and on every cell (the memo serves it all).
    for (const bool every_cell : {false, true}) {
      SharedResponseEngine pointwise{metasurface::prototype_fr4_design()};
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        for (std::size_t ix = 0; ix < vxs.size(); ++ix)
          if (every_cell || (ix + iy) % 2 == 0)
            (void)pointwise.response(f, mode, Voltage{vxs[ix]},
                                     Voltage{vys[iy]});
      const std::uint64_t misses_before = pointwise.cache_stats().misses;
      expect_same_bytes(pointwise.response_grid(f, mode, vxs, vys), grid,
                        every_cell ? "pre-warmed pointwise on every cell"
                                   : "pre-warmed pointwise on some cells");
      EXPECT_EQ(pointwise.cache_stats().misses == misses_before, every_cell);
    }

    SharedResponseEngine overlapped{metasurface::prototype_fr4_design()};
    (void)overlapped.response_grid(f, mode, {7.5, 12.2504, 18.0, 31.0},
                                   {2.0, 15.0, 29.9996});
    expect_same_bytes(overlapped.response_grid(f, mode, vxs, vys), grid,
                      "pre-warmed by an overlapping window");
    EXPECT_GT(overlapped.cache_stats().hits, 0u);

    // The same kernels behind Metasurface::response_grid, on the engine's
    // quantized axes: byte for byte. The scalar planned path: <= 1e-12.
    std::vector<double> vxq(vxs.size());
    std::vector<double> vyq(vys.size());
    std::transform(vxs.begin(), vxs.end(), vxq.begin(), engine_bias);
    std::transform(vys.begin(), vys.end(), vyq.begin(), engine_bias);
    const metasurface::Metasurface surface{
        metasurface::prototype_fr4_design()};
    expect_same_bytes(surface.response_grid(f, mode, vxq, vyq), grid,
                      "Metasurface::response_grid");
    const metasurface::RotatorStack& stack = cold.stack();
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
        const Voltage vx{vxq[ix]};
        const Voltage vy{vyq[iy]};
        const JonesMatrix golden =
            mode == SurfaceMode::kTransmissive
                ? stack.transmission(stack.plan_transmission(f), vx, vy)
                : stack.reflection(stack.plan_reflection(f), vx, vy);
        expect_jones_near(grid[iy][ix], golden, kTol, "scalar plan");
      }
  }
}

/// The acceptance-scale scenario: 24 devices, 2 surfaces.
core::DenseDeploymentScenario acceptance_scenario() {
  return core::dense_deployment_scenario(24, 2);
}

TEST(DeploymentEngine, OptimizesEveryDeviceThroughOneSharedEngine) {
  const core::DenseDeploymentScenario scenario = acceptance_scenario();
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);

  ASSERT_EQ(report.devices.size(), 24u);
  const int expected_probes = scenario.config.sweep.iterations *
                              scenario.config.sweep.steps_per_axis *
                              scenario.config.sweep.steps_per_axis;
  for (const DeviceResult& d : report.devices) {
    EXPECT_EQ(d.sweep.probes, expected_probes) << d.name;
    EXPECT_GE(d.sweep.best_vx.value(), 0.0);
    EXPECT_LE(d.sweep.best_vx.value(), 30.0);
    EXPECT_GE(d.sweep.best_vy.value(), 0.0);
    EXPECT_LE(d.sweep.best_vy.value(), 30.0);
    EXPECT_LT(d.surface, 2u);
  }

  // One transmissive plan serves all 24 links; every device after the first
  // draws its whole first Algorithm-1 window (T^2 cells) from the memo.
  EXPECT_EQ(report.plan_count, 1u);
  const std::uint64_t t2 = static_cast<std::uint64_t>(
      scenario.config.sweep.steps_per_axis *
      scenario.config.sweep.steps_per_axis);
  EXPECT_GE(report.cache_stats.hits, 23u * t2);

  // Every device is scheduled exactly once on its own surface.
  ASSERT_EQ(report.surfaces.size(), 2u);
  std::vector<int> scheduled(report.devices.size(), 0);
  for (const SurfaceReport& sr : report.surfaces) {
    ASSERT_EQ(sr.scheduled_power.size(), sr.device_ids.size());
    double airtime = 0.0;
    std::size_t members = 0;
    for (const control::ScheduleSlot& slot : sr.slots) {
      airtime += slot.slot_fraction;
      members += slot.device_indices.size();
      for (std::size_t k : slot.device_indices) {
        ASSERT_LT(k, sr.device_ids.size());
        ++scheduled[sr.device_ids[k]];
      }
    }
    EXPECT_EQ(members, sr.device_ids.size());
    EXPECT_NEAR(airtime, 1.0, 1e-9);
  }
  for (std::size_t i = 0; i < scheduled.size(); ++i)
    EXPECT_EQ(scheduled[i], 1) << "device " << i;

  EXPECT_GT(report.sum_capacity_bits_per_hz,
            report.unassisted_capacity_bits_per_hz);
}

TEST(DeploymentEngine, ByteIdenticalForAnyThreadCount) {
  const core::DenseDeploymentScenario scenario = acceptance_scenario();
  deploy::DeploymentConfig serial_cfg = scenario.config;
  serial_cfg.threads = 1;
  deploy::DeploymentConfig parallel_cfg = scenario.config;
  parallel_cfg.threads = 5;
  DeploymentEngine serial{serial_cfg};
  DeploymentEngine parallel{parallel_cfg};
  const DeploymentReport a = serial.run(scenario.devices);
  const DeploymentReport b = parallel.run(scenario.devices);

  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    // Byte-identical, not merely close.
    EXPECT_EQ(a.devices[i].sweep.best_vx.value(),
              b.devices[i].sweep.best_vx.value());
    EXPECT_EQ(a.devices[i].sweep.best_vy.value(),
              b.devices[i].sweep.best_vy.value());
    EXPECT_EQ(a.devices[i].sweep.best_power.value(),
              b.devices[i].sweep.best_power.value());
    EXPECT_EQ(a.devices[i].unoptimized_power.value(),
              b.devices[i].unoptimized_power.value());
    EXPECT_EQ(a.devices[i].surface, b.devices[i].surface);
  }
  EXPECT_EQ(a.sum_capacity_bits_per_hz, b.sum_capacity_bits_per_hz);
  EXPECT_EQ(a.mean_ber, b.mean_ber);
}

TEST(DeploymentEngine, RepeatedRunsOnWarmCacheAreIdentical) {
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(6, 1);
  DeploymentEngine engine{scenario.config};
  const DeploymentReport cold = engine.run(scenario.devices);
  const DeploymentReport warm = engine.run(scenario.devices);
  ASSERT_EQ(cold.devices.size(), warm.devices.size());
  for (std::size_t i = 0; i < cold.devices.size(); ++i) {
    EXPECT_EQ(cold.devices[i].sweep.best_vx.value(),
              warm.devices[i].sweep.best_vx.value());
    EXPECT_EQ(cold.devices[i].sweep.best_power.value(),
              warm.devices[i].sweep.best_power.value());
  }
  // The warm pass is served almost entirely from the memo.
  EXPECT_GT(warm.cache_stats.hits, cold.cache_stats.hits);
}

TEST(DeploymentEngine, AgreesWithPerDeviceLlamaSystem) {
  // Equal measurement model: LlamaSystem::optimize_link_batched runs the
  // identical batched Algorithm-1 round through its private (re-planned,
  // unquantized) pipeline. The shared engine evaluates at 1 mV-quantized
  // biases, so powers may differ at the quantization scale — far below any
  // physical sensitivity — and the chosen biases must coincide.
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(4, 1);
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);

  for (std::size_t i = 0; i < scenario.devices.size(); ++i) {
    core::SystemConfig cfg;
    cfg.frequency = scenario.config.frequency;
    cfg.tx_power = scenario.config.tx_power;
    cfg.tx_antenna = scenario.config.tx_antenna;
    cfg.rx_antenna = scenario.config.rx_antenna.oriented(
        scenario.devices[i].orientation);
    cfg.geometry = scenario.config.geometry;
    cfg.environment = scenario.config.environment;
    cfg.receiver = scenario.config.receiver;
    cfg.controller.sweep = scenario.config.sweep;
    core::LlamaSystem sys{cfg};
    const control::OptimizationReport expected = sys.optimize_link_batched();
    EXPECT_NEAR(report.devices[i].sweep.best_vx.value(),
                expected.sweep.best_vx.value(), 2e-3)
        << scenario.devices[i].name;
    EXPECT_NEAR(report.devices[i].sweep.best_vy.value(),
                expected.sweep.best_vy.value(), 2e-3);
    EXPECT_NEAR(report.devices[i].sweep.best_power.value(),
                expected.sweep.best_power.value(), 1e-3);
  }
}

TEST(DeploymentEngine, ExplicitSurfaceAssignmentIsHonored) {
  core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(4, 2);
  scenario.devices[0].surface = 1;
  scenario.devices[1].surface = 1;
  scenario.devices[2].surface = 0;
  scenario.devices[3].surface = 0;
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);
  EXPECT_EQ(report.devices[0].surface, 1u);
  EXPECT_EQ(report.devices[1].surface, 1u);
  EXPECT_EQ(report.devices[2].surface, 0u);
  EXPECT_EQ(report.devices[3].surface, 0u);
}

TEST(DeploymentEngine, LeakageDisabledReportsNoLeakage) {
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(6, 2);
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);
  EXPECT_EQ(report.total_leakage.value(), 0.0);
  EXPECT_EQ(report.max_leakage.value(), 0.0);
  for (const DeviceResult& d : report.devices)
    EXPECT_EQ(d.leakage.value(), 0.0);
}

TEST(DeploymentEngine, LeakageChargesEveryLinkAndCostsCapacity) {
  core::DenseDeploymentScenario off = core::dense_deployment_scenario(8, 2);
  core::DenseDeploymentScenario on = core::dense_deployment_scenario(8, 2);
  on.config.interference.enable_leakage = true;

  DeploymentEngine engine_off{off.config};
  DeploymentEngine engine_on{on.config};
  const DeploymentReport report_off = engine_off.run(off.devices);
  const DeploymentReport report_on = engine_on.run(on.devices);

  // Quiet-neighbor optimization: the chosen biases are identical — leakage
  // enters only as per-link interference over the final schedules.
  ASSERT_EQ(report_on.devices.size(), report_off.devices.size());
  double sum_mw = 0.0;
  for (std::size_t i = 0; i < report_on.devices.size(); ++i) {
    EXPECT_EQ(report_on.devices[i].sweep.best_vx.value(),
              report_off.devices[i].sweep.best_vx.value());
    EXPECT_EQ(report_on.devices[i].sweep.best_vy.value(),
              report_off.devices[i].sweep.best_vy.value());
    // Every device has one serving and one interfering surface at M = 2.
    EXPECT_GT(report_on.devices[i].leakage.value(), 0.0) << "device " << i;
    EXPECT_LE(report_on.devices[i].leakage.value(),
              report_on.max_leakage.value());
    sum_mw += report_on.devices[i].leakage.value();
  }
  EXPECT_NEAR(report_on.total_leakage.value(), sum_mw, 1e-15);
  // Interference can only cost capacity, and measurably does here.
  EXPECT_LT(report_on.sum_capacity_bits_per_hz,
            report_off.sum_capacity_bits_per_hz);
  EXPECT_GE(report_on.mean_ber, report_off.mean_ber);
}

TEST(DeploymentEngine, SingleSurfaceDeploymentHasNoLeakage) {
  core::DenseDeploymentScenario scenario = core::dense_deployment_scenario(4, 1);
  scenario.config.interference.enable_leakage = true;
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);
  EXPECT_EQ(report.total_leakage.value(), 0.0);
}

TEST(DeploymentEngine, LeakageRunIsByteIdenticalForAnyThreadCount) {
  core::DenseDeploymentScenario scenario = core::dense_deployment_scenario(6, 2);
  scenario.config.interference.enable_leakage = true;
  deploy::DeploymentConfig serial = scenario.config;
  serial.threads = 1;
  deploy::DeploymentConfig parallel = scenario.config;
  parallel.threads = 4;
  DeploymentEngine engine_serial{serial};
  DeploymentEngine engine_parallel{parallel};
  const DeploymentReport a = engine_serial.run(scenario.devices);
  const DeploymentReport b = engine_parallel.run(scenario.devices);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].optimized_power.value(),
              b.devices[i].optimized_power.value());
    EXPECT_EQ(a.devices[i].leakage.value(), b.devices[i].leakage.value());
  }
  EXPECT_EQ(a.sum_capacity_bits_per_hz, b.sum_capacity_bits_per_hz);
  EXPECT_EQ(a.total_leakage.value(), b.total_leakage.value());
}

TEST(DeploymentEngine, RejectsBadConfigurations) {
  core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(2, 1);
  deploy::DeploymentConfig no_surfaces = scenario.config;
  no_surfaces.n_surfaces = 0;
  EXPECT_THROW(DeploymentEngine{no_surfaces}, std::invalid_argument);

  DeploymentEngine engine{scenario.config};
  scenario.devices[1].surface = 3;  // only 1 surface exists
  EXPECT_THROW((void)engine.run(scenario.devices), std::out_of_range);
}

TEST(DeploymentEngine, RejectsCityLayoutAtConstruction) {
  // The engine runs the ring model only; a layout it would not honor is
  // rejected up front, naming the field.
  deploy::DeploymentConfig config =
      core::dense_deployment_scenario(2, 1).config;
  config.layout = core::city_scale_scenario(1, 1).config.layout;
  ASSERT_FALSE(config.layout.empty());
  try {
    DeploymentEngine engine{config};
    ADD_FAILURE() << "a non-empty layout was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("layout"), std::string::npos)
        << e.what();
  }
}

TEST(DeploymentEngine, RejectsBadSweepOptionsAtConstruction) {
  // A bad Algorithm-1 schedule fails when the engine is built, not inside
  // the first run().
  deploy::DeploymentConfig config =
      core::dense_deployment_scenario(2, 1).config;
  config.sweep.steps_per_axis = 1;
  EXPECT_THROW(DeploymentEngine{config}, std::invalid_argument);
  config.sweep.steps_per_axis = 5;
  config.sweep.v_min = Voltage{-6.0};
  EXPECT_THROW(DeploymentEngine{config}, std::invalid_argument);
}

}  // namespace
}  // namespace llama::deploy
