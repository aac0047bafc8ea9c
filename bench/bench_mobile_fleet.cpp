// Mobile-fleet tracking: N swinging wearables x M surfaces through the
// tracking runtime, one full fleet episode per retune policy. The
// comparison CI pins: PredictiveCodebook must deliver outage no worse than
// the paper's fade-triggered HysteresisResweep while spending >= 10x less
// supply airtime on retunes (a re-sweep costs N*T^2 switches ~ 1 s; a
// codebook retune costs one 20 ms switch). `--json` emits one line per
// policy with `outage_fraction`, `retune_count`, `retune_airtime_s`,
// `mean_retune_latency_s` and `delivered_mbps`.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_harness.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"

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

std::string extra_json(const track::FleetReport& r) {
  return ",\"outage_fraction\":" + std::to_string(r.mean_outage_fraction) +
         ",\"retune_count\":" + std::to_string(r.retune_count) +
         ",\"retune_airtime_s\":" + std::to_string(r.retune_airtime_s) +
         ",\"mean_retune_latency_s\":" +
         std::to_string(r.mean_retune_latency_s) +
         ",\"delivered_mbps\":" + std::to_string(r.sum_delivered_mbps);
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::parse_args(argc, argv);

  const std::size_t n_devices = 8;
  const std::size_t m_surfaces = 2;
  const long ticks = 120;  // 12 s fleet episode at the 100 ms tick
  const core::MobileFleetScenario scenario =
      core::mobile_fleet_scenario(n_devices, m_surfaces);
  const std::string tag =
      "_n" + std::to_string(n_devices) + "_m" + std::to_string(m_surfaces);

  // One immutable codebook shared by every device shard (the config hash
  // excludes the rx orientation, the query axis).
  const core::SystemConfig device_cfg = core::device_system_config(
      scenario.config.deployment, common::Angle::degrees(0.0));
  const codebook::Codebook book =
      codebook::CodebookCompiler{device_cfg}.compile();

  track::FleetTracker tracker{scenario.config};

  const PolicyOutcome hysteresis = run_policy(
      tracker, scenario.devices,
      [] { return std::make_unique<track::HysteresisResweep>(); },
      "mobile_fleet_hysteresis" + tag, ticks);
  track::PeriodicCodebook::Options periodic_opts;
  periodic_opts.period_s = 0.5;
  periodic_opts.lookup.threads = 1;  // fleet shards already parallelize
  const PolicyOutcome periodic = run_policy(
      tracker, scenario.devices,
      [&] { return std::make_unique<track::PeriodicCodebook>(book,
                                                             periodic_opts); },
      "mobile_fleet_periodic" + tag, ticks);
  const PolicyOutcome predictive = run_policy(
      tracker, scenario.devices,
      [&] { return std::make_unique<track::PredictiveCodebook>(book); },
      "mobile_fleet_predictive" + tag, ticks);

  for (const PolicyOutcome* out : {&hysteresis, &periodic, &predictive})
    bench::print_result(out->timing, json, extra_json(out->report));

  if (!json) {
    const double airtime_ratio =
        predictive.report.retune_airtime_s > 0.0
            ? hysteresis.report.retune_airtime_s /
                  predictive.report.retune_airtime_s
            : 0.0;
    std::printf(
        "  -> predictive vs hysteresis: outage %.3f vs %.3f, retune airtime "
        "%.2f s vs %.2f s (%.0fx less)\n",
        predictive.report.mean_outage_fraction,
        hysteresis.report.mean_outage_fraction,
        predictive.report.retune_airtime_s,
        hysteresis.report.retune_airtime_s, airtime_ratio);
  }
  return 0;
}
