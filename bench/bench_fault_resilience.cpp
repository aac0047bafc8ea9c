// Fault-resilience gate: the fault-injection drill (5% measurement
// dropout, one stuck bias cell on surface 0, the other surface crashing
// offline at the episode midpoint) run twice over the same fleet — once
// with the plain PeriodicCodebook baseline, once with the
// ResilientPolicy + HealthMonitor degraded-mode stack. CI pins:
//
//   - resilient fleet outage_fraction <= 0.10 (devices on the crashed
//     surface get quarantined away and keep tracking),
//   - baseline outage_fraction >= 3x the resilient one (without the
//     health machinery half the fleet dark-tracks a dead surface),
//   - the resilient fleet report is byte-identical for any thread count
//     with faults enabled ("deterministic":true).
//
// A third line reruns the resilient fleet with cross-surface leakage on
// (faults + leakage: the fleet tick loop's health pass and leakage
// snapshot both live), with its own 1-vs-4-worker determinism flag; CI
// pins it deterministic with outage_fraction <= 0.10.
//
// `--json` emits one line per run with `outage_fraction`,
// `retune_airtime_s`, `delivered_mbps`, `reassignments`,
// `dropped_measurements` and (resilient runs) `deterministic`.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/fault/resilient_policy.h"

using namespace llama;

namespace {

struct PolicyOutcome {
  bench::BenchResult timing;
  track::FleetReport report;
};

PolicyOutcome run_policy(track::FleetTracker& tracker,
                         const std::vector<track::FleetDeviceSpec>& devices,
                         const track::PolicyFactory& factory,
                         const std::string& name, long ticks) {
  using clock = std::chrono::steady_clock;
  const clock::time_point start = clock::now();
  PolicyOutcome out;
  out.report = tracker.run(devices, factory, ticks);
  const double elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();
  out.timing.name = name;
  out.timing.iterations = 1;
  out.timing.ns_per_op = elapsed_s * 1e9;
  out.timing.ops_per_s = elapsed_s > 0.0 ? 1.0 / elapsed_s : 0.0;
  return out;
}

/// Full-precision fingerprint of everything a fleet run decides — the
/// determinism contract is checked on this, not on rounded aggregates.
std::string fingerprint(const track::FleetReport& r) {
  std::string s;
  char buf[64];
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    s += buf;
  };
  for (const track::DeviceTrackResult& d : r.devices) {
    s += d.name + ":" + std::to_string(d.surface) + ":" +
         std::to_string(d.home_surface) + ":";
    add(d.report.outage_fraction);
    add(d.report.mean_power_dbm);
    add(d.report.min_power_dbm);
    add(d.report.mean_delivered_mbps);
    add(d.report.retune_airtime_s);
    s += std::to_string(d.report.retune_count) + "," +
         std::to_string(d.report.dropped_measurements) + ";";
  }
  add(r.mean_outage_fraction);
  add(r.retune_airtime_s);
  add(r.sum_delivered_mbps);
  s += std::to_string(r.reassignments) + "," +
       std::to_string(r.health_transitions) + ",";
  for (const fault::SurfaceHealth h : r.surface_health)
    s += fault::to_string(h) + std::string{","};
  return s;
}

std::string extra_json(const track::FleetReport& r) {
  return ",\"outage_fraction\":" + std::to_string(r.mean_outage_fraction) +
         ",\"retune_count\":" + std::to_string(r.retune_count) +
         ",\"retune_airtime_s\":" + std::to_string(r.retune_airtime_s) +
         ",\"delivered_mbps\":" + std::to_string(r.sum_delivered_mbps) +
         ",\"reassignments\":" + std::to_string(r.reassignments) +
         ",\"dropped_measurements\":" +
         std::to_string(r.dropped_measurements);
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::parse_args(argc, argv);

  const std::size_t n_devices = 8;
  const std::size_t m_surfaces = 2;
  const core::FaultDrillScenario scenario =
      core::fault_drill_scenario(n_devices, m_surfaces);
  const std::string tag =
      "_n" + std::to_string(n_devices) + "_m" + std::to_string(m_surfaces);

  const auto compile_for = [](const track::FleetConfig& config) {
    return codebook::CodebookCompiler{
        core::device_system_config(config.deployment,
                                   common::Angle::degrees(0.0))}
        .compile();
  };
  const codebook::Codebook book = compile_for(scenario.config);

  track::FleetTracker tracker{scenario.config};

  // Baseline: the healthy-world codebook policy, no fault awareness. Pure
  // O(1) lookups (no fine sweep), so its outage under the drill is the
  // faults' doing, not airtime blackouts.
  track::PeriodicCodebook::Options periodic_opts;
  periodic_opts.period_s = 0.5;
  periodic_opts.lookup.enable_fine_sweep = false;
  periodic_opts.lookup.threads = 1;  // fleet shards already parallelize
  const PolicyOutcome baseline = run_policy(
      tracker, scenario.devices,
      [&] {
        return std::make_unique<track::PeriodicCodebook>(book, periodic_opts);
      },
      "fault_drill_baseline" + tag, scenario.ticks);

  fault::ResilientPolicy::Options resilient_opts;
  resilient_opts.lookup.threads = 1;
  const track::PolicyFactory make_resilient = [&] {
    return std::make_unique<fault::ResilientPolicy>(book, resilient_opts);
  };
  const PolicyOutcome resilient =
      run_policy(tracker, scenario.devices, make_resilient,
                 "fault_drill_resilient" + tag, scenario.ticks);

  // Thread-count determinism with the fault layer live: 1 worker vs 4 must
  // produce a byte-identical fleet report.
  const auto deterministic_for = [&](const track::FleetConfig& config,
                                     const track::PolicyFactory& factory) {
    track::FleetConfig cfg1 = config;
    cfg1.deployment.threads = 1;
    track::FleetConfig cfg4 = config;
    cfg4.deployment.threads = 4;
    return fingerprint(track::FleetTracker{cfg1}.run(
               scenario.devices, factory, scenario.ticks)) ==
           fingerprint(track::FleetTracker{cfg4}.run(
               scenario.devices, factory, scenario.ticks));
  };
  const bool deterministic =
      deterministic_for(scenario.config, make_resilient);

  // The same drill with cross-surface leakage on. The leakage scene is part
  // of the codebook's config hash, so it gets its own compile.
  track::FleetConfig leaky = scenario.config;
  leaky.deployment.interference.enable_leakage = true;
  const codebook::Codebook leaky_book = compile_for(leaky);
  const track::PolicyFactory make_leaky_resilient = [&] {
    return std::make_unique<fault::ResilientPolicy>(leaky_book,
                                                    resilient_opts);
  };
  track::FleetTracker leaky_tracker{leaky};
  const PolicyOutcome leaky_resilient =
      run_policy(leaky_tracker, scenario.devices, make_leaky_resilient,
                 "fault_drill_resilient_leakage" + tag, scenario.ticks);
  const bool leaky_deterministic =
      deterministic_for(leaky, make_leaky_resilient);

  const auto flag = [](bool identical) {
    return identical ? std::string{",\"deterministic\":true"}
                     : std::string{",\"deterministic\":false"};
  };
  bench::print_result(baseline.timing, json, extra_json(baseline.report));
  bench::print_result(resilient.timing, json,
                      extra_json(resilient.report) + flag(deterministic));
  bench::print_result(
      leaky_resilient.timing, json,
      extra_json(leaky_resilient.report) + flag(leaky_deterministic));

  if (!json) {
    const double ratio =
        resilient.report.mean_outage_fraction > 0.0
            ? baseline.report.mean_outage_fraction /
                  resilient.report.mean_outage_fraction
            : 0.0;
    std::printf(
        "  -> resilient vs baseline outage: %.3f vs %.3f (%.1fx), "
        "%ld reassignments, %ld dropped measurements, deterministic=%s\n",
        resilient.report.mean_outage_fraction,
        baseline.report.mean_outage_fraction, ratio,
        resilient.report.reassignments, resilient.report.dropped_measurements,
        deterministic ? "yes" : "no");
    for (std::size_t s = 0; s < resilient.report.surface_health.size(); ++s)
      std::printf("  -> surface %zu final health: %s\n", s,
                  fault::to_string(resilient.report.surface_health[s]));
    std::printf(
        "  -> with leakage: outage %.3f, %ld reassignments, "
        "deterministic=%s\n",
        leaky_resilient.report.mean_outage_fraction,
        leaky_resilient.report.reassignments,
        leaky_deterministic ? "yes" : "no");
  }
  return deterministic && leaky_deterministic ? 0 : 1;
}
