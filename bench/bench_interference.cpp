// Cross-surface interference at deployment scale, through the
// PropagationScene: the same N devices x M surfaces dense deployment run
// twice — leakage model off (every device hears only its serving surface,
// the pre-scene world) and on (every non-serving surface deposits
// slot-weighted interference at the device, so per-link capacity is
// SINR-based) — plus the two-surface relay chain at a fixed geometry.
//
// CI pins, per the scene contract:
//   - leakage-on aggregate capacity <= leakage-off (interference can only
//     cost capacity), with a measurable per-link leakage aggregate, and
//   - the relay chain's capacity beats the single surface at the same
//     geometry (range extension beyond one surface's friis_range_extension).
//
// `--json` emits one line per run with `sum_capacity_bits_per_hz`,
// `total_leakage_mw` etc.; `--out` appends them to the CI trajectory.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_harness.h"
#include "src/channel/capacity.h"
#include "src/core/scenarios.h"

using namespace llama;

namespace {

struct TimedReport {
  bench::BenchResult timing;
  deploy::DeploymentReport report;
};

TimedReport run_deployment(const core::DenseDeploymentScenario& scenario,
                           const std::string& name) {
  using clock = std::chrono::steady_clock;
  deploy::DeploymentEngine engine{scenario.config};
  const clock::time_point start = clock::now();
  TimedReport out;
  out.report = engine.run(scenario.devices);
  const double elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();
  out.timing.name = name;
  out.timing.iterations = 1;
  out.timing.ns_per_op = elapsed_s * 1e9;
  out.timing.ops_per_s = elapsed_s > 0.0 ? 1.0 / elapsed_s : 0.0;
  return out;
}

/// Scientific notation: leakage sits around 1e-5 mW, which fixed-point
/// std::to_string would truncate toward (or exactly to) zero — and CI
/// asserts on this field being positive.
std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6e", v);
  return buf;
}

std::string deployment_json(const deploy::DeploymentReport& r) {
  return ",\"sum_capacity_bits_per_hz\":" +
         std::to_string(r.sum_capacity_bits_per_hz) +
         ",\"unassisted_capacity_bits_per_hz\":" +
         std::to_string(r.unassisted_capacity_bits_per_hz) +
         ",\"mean_ber\":" + sci(r.mean_ber) +
         ",\"total_leakage_mw\":" + sci(r.total_leakage.value()) +
         ",\"max_leakage_mw\":" + sci(r.max_leakage.value());
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::parse_args(argc, argv);

  const std::size_t n_devices = 8;
  const std::size_t m_surfaces = 2;
  const std::string tag =
      "_n" + std::to_string(n_devices) + "_m" + std::to_string(m_surfaces);

  core::DenseDeploymentScenario off =
      core::dense_deployment_scenario(n_devices, m_surfaces);
  core::DenseDeploymentScenario on =
      core::dense_deployment_scenario(n_devices, m_surfaces);
  on.config.interference.enable_leakage = true;

  const TimedReport leakage_off =
      run_deployment(off, "interference_leakage_off" + tag);
  const TimedReport leakage_on =
      run_deployment(on, "interference_leakage_on" + tag);
  bench::print_result(leakage_off.timing, json,
                      deployment_json(leakage_off.report));
  bench::print_result(leakage_on.timing, json,
                      deployment_json(leakage_on.report));

  // Relay chain vs a single surface at the same Tx -> Rx geometry. The
  // capacity comparison uses the deployment's rate-noise reference.
  const core::RelayExtensionScenario relay_scenario =
      core::relay_extension_scenario();
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  const core::SceneSweepResult single =
      core::sweep_scene_biases(relay_scenario.single);
  const core::SceneSweepResult relay =
      core::sweep_scene_biases(relay_scenario.relay);
  const double elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();
  const common::PowerDbm rate_noise = off.config.rate_noise;
  const double capacity_single =
      channel::capacity_bits_per_hz(single.best_power, rate_noise);
  const double capacity_relay =
      channel::capacity_bits_per_hz(relay.best_power, rate_noise);
  bench::BenchResult relay_timing;
  relay_timing.name = "interference_relay_extension";
  relay_timing.iterations = 1;
  relay_timing.ns_per_op = elapsed_s * 1e9;
  relay_timing.ops_per_s = elapsed_s > 0.0 ? 1.0 / elapsed_s : 0.0;
  bench::print_result(
      relay_timing, json,
      ",\"capacity_single_bits_per_hz\":" + std::to_string(capacity_single) +
          ",\"capacity_relay_bits_per_hz\":" + std::to_string(capacity_relay) +
          ",\"gain_single_db\":" + std::to_string(single.gain.value()) +
          ",\"gain_relay_db\":" + std::to_string(relay.gain.value()) +
          ",\"range_extension_single\":" +
          std::to_string(single.range_extension) +
          ",\"range_extension_relay\":" +
          std::to_string(relay.range_extension));

  if (!json) {
    std::printf(
        "  -> leakage on vs off: capacity %.2f vs %.2f bit/s/Hz, total "
        "leakage %.3e mW across %zu devices\n",
        leakage_on.report.sum_capacity_bits_per_hz,
        leakage_off.report.sum_capacity_bits_per_hz,
        leakage_on.report.total_leakage.value(), n_devices);
    std::printf(
        "  -> relay vs single surface: gain %.1f dB vs %.1f dB, range "
        "extension %.2fx vs %.2fx\n",
        relay.gain.value(), single.gain.value(), relay.range_extension,
        single.range_extension);
  }
  return 0;
}
