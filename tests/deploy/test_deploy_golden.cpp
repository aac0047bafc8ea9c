// Pins DeploymentEngine's and CityFleetEngine's outputs bit for bit. The
// hashes were recorded from the engines as they ran before DeploymentEngine
// moved onto deploy::partition_fleet; every field of a DeploymentReport
// except cache_stats must reproduce, at 1 and at 4 workers. cache_stats is
// left out because it carries lock_contention, which does depend on thread
// timing; its hit/miss/eviction counts do not, and
// SharedEngineConcurrency.RoundStatsDoNotDependOnTheWorkerCount checks them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/codebook/codebook.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/deploy/city_fleet.h"
#include "src/deploy/deployment_engine.h"

namespace llama::deploy {
namespace {

/// Appends `v` at full precision.
void add(std::string& s, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g,", v);
  s += buf;
}

/// Full-precision rendering of every DeploymentReport field except
/// cache_stats.
std::string fingerprint(const DeploymentReport& r) {
  std::string s;
  for (const DeviceResult& d : r.devices) {
    s += d.name + ":" + std::to_string(d.surface) + ":" +
         std::to_string(d.sweep.probes) + ",";
    add(s, d.sweep.best_vx.value());
    add(s, d.sweep.best_vy.value());
    add(s, d.sweep.best_power.value());
    add(s, d.sweep.time_cost_s);
    add(s, d.optimized_power.value());
    add(s, d.unoptimized_power.value());
    add(s, d.leakage.value());
    s += ";";
  }
  for (const SurfaceReport& sr : r.surfaces) {
    s += std::to_string(sr.surface) + ":";
    for (const std::size_t id : sr.device_ids) s += std::to_string(id) + ",";
    for (const control::ScheduleSlot& slot : sr.slots) {
      s += "[";
      add(s, slot.vx.value());
      add(s, slot.vy.value());
      add(s, slot.slot_fraction);
      for (const std::size_t i : slot.device_indices)
        s += std::to_string(i) + ",";
      s += "]";
    }
    for (const common::PowerDbm p : sr.scheduled_power) add(s, p.value());
    s += ";";
  }
  add(s, r.noise_floor.value());
  add(s, r.sum_capacity_bits_per_hz);
  add(s, r.unassisted_capacity_bits_per_hz);
  add(s, r.mean_ber);
  add(s, r.unassisted_mean_ber);
  add(s, r.total_leakage.value());
  add(s, r.max_leakage.value());
  s += std::to_string(r.plan_count) + "," +
       std::to_string(static_cast<int>(r.used_codebook)) + "," +
       r.codebook_fallback_reason;
  return s;
}

/// Full-precision rendering of a city evaluation.
std::string fingerprint(const CityEvalReport& r) {
  std::string s;
  for (const common::PowerDbm p : r.power) add(s, p.value());
  for (const double b : r.error_bound_db) add(s, b);
  add(s, r.max_error_bound_db);
  s += std::to_string(r.shard_count);
  return s;
}

/// FNV-1a 64.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// N = 24 over M = 4, round-robin except four devices with an explicit
/// surface (two of them pile onto surface 1).
core::DenseDeploymentScenario mixed_assignment(bool leakage) {
  core::DenseDeploymentScenario s = core::dense_deployment_scenario(24, 4);
  s.config.interference.enable_leakage = leakage;
  s.devices[2].surface = 1;
  s.devices[7].surface = 1;
  s.devices[13].surface = 0;
  s.devices[22].surface = 3;
  return s;
}

/// Runs `round` on a fresh engine at 1 and at 4 workers and checks each
/// report against `golden`.
template <typename Round>
void expect_pinned(DeploymentConfig config, const Round& round,
                   std::uint64_t golden) {
  for (const int threads : {1, 4}) {
    config.threads = threads;
    DeploymentEngine engine{config};
    const std::uint64_t h = fnv1a(fingerprint(round(engine)));
    EXPECT_EQ(h, golden) << "threads " << threads << ": got 0x" << std::hex
                         << h;
  }
}

/// A codebook compiled for the deployment's device configuration (the
/// pairing deployment_config_hash accepts), 10 deg orientation pitch.
codebook::Codebook book_for(const DeploymentConfig& config) {
  codebook::CompilerOptions opts;
  opts.f_min = config.frequency;
  opts.n_orientations = 19;
  opts.threads = 1;
  return codebook::CodebookCompiler{
      core::device_system_config(config, common::Angle::degrees(0.0))}
      .compile(opts);
}

TEST(DeployGolden, RunWithoutLeakage) {
  const core::DenseDeploymentScenario s = mixed_assignment(false);
  expect_pinned(
      s.config, [&](DeploymentEngine& e) { return e.run(s.devices); },
      0x6e30c1aec7335230ULL);
}

TEST(DeployGolden, RunWithLeakage) {
  const core::DenseDeploymentScenario s = mixed_assignment(true);
  expect_pinned(
      s.config, [&](DeploymentEngine& e) { return e.run(s.devices); },
      0xec9f72fb7e3d93baULL);
}

TEST(DeployGolden, RunCodebook) {
  const core::DenseDeploymentScenario s = mixed_assignment(true);
  const codebook::Codebook book = book_for(s.config);
  expect_pinned(
      s.config,
      [&](DeploymentEngine& e) { return e.run_codebook(s.devices, book); },
      0xb8d22a2e3883f685ULL);
}

TEST(DeployGolden, RunCodebookFile) {
  const core::DenseDeploymentScenario s = mixed_assignment(true);
  const std::vector<std::uint8_t> bytes = book_for(s.config).serialize();
  const std::string path = ::testing::TempDir() + "llama_deploy_golden.cb";
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  expect_pinned(
      s.config,
      [&](DeploymentEngine& e) {
        return e.run_codebook_file(s.devices, path);
      },
      0xb8cec42e3881135cULL);
  // A missing artifact degrades to the Algorithm-1 round; the relative path
  // keeps the recorded reason independent of the temp directory.
  expect_pinned(
      s.config,
      [&](DeploymentEngine& e) {
        return e.run_codebook_file(s.devices,
                                   "no_such_dir/llama_deploy_golden.cb");
      },
      0x70f390524ce7539dULL);
}

TEST(DeployGolden, CityEvaluate) {
  const core::CityScaleScenario s = core::city_scale_scenario(16, 64, -58.0);
  CityFleetEngine engine{s.config};
  engine.assign(s.devices);
  for (const int threads : {1, 4}) {
    const std::uint64_t h =
        fnv1a(fingerprint(engine.evaluate(s.biases, threads)));
    EXPECT_EQ(h, 0x69d1f94a40e13439ULL)
        << "threads " << threads << ": got 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace llama::deploy
