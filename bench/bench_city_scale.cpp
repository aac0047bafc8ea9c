// City-scale fleet evaluation bench: M placed surfaces x N positioned
// devices through CityFleetEngine, against the dense (cutoff = -infinity)
// counterpart of the exact same city. Five phases, one JSON line each:
//
//   city_eval_dense_m256       full fleet evaluation with every leakage
//                              path kept (per-device cost O(M)) — the
//                              baseline the speedup gate divides by.
//   city_eval_pruned_m256      the pruned fleet at the same biases:
//                              `speedup_vs_dense` (the >= 8x CI floor),
//                              `max_abs_dp_db` (measured pruning error,
//                              <= 0.1 dB CI ceiling) and `bound_max_db`
//                              (the analytic worst case, which must
//                              dominate the measurement).
//   city_eval_pruned_m256_t2/4 the same evaluation at 2 and 4 workers:
//                              `parallel_efficiency` = t1 / (n * tn).
//                              CI gates efficiency only when hw_cores
//                              allows real parallelism.
//   city_determinism_m64       power vectors memcmp'd across 1, 2 and 8
//                              workers — `deterministic` must be true on
//                              any machine, 1-core containers included.
//   city_frozen_sweep_m4/m256  per-candidate retune cost on a frozen
//                              device scene at M=4 vs M=256: hierarchical
//                              frozen aggregation makes the ratio ~1
//                              (sweeps independent of fleet size).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "src/core/scenarios.h"
#include "src/deploy/city_fleet.h"

using namespace llama;

namespace {

// Operating cutoff for the city fleet. The -40 dB PruneConfig default is
// the conservative general-purpose setting; this city runs deeper because
// the CI accuracy gate is a fleet-wide max, not a typical case: the error
// is dominated by the first pruned ring (~8 surfaces just under the
// cutoff amplitude), so max |Delta P| ~ a few * sqrt(8) * 10^(cutoff/20)
// in field terms. -58 dB lands that comfortably under 0.1 dB while still
// keeping only the ~2-cell neighborhood of each device.
constexpr double kCityCutoffDb = -58.0;

double max_abs_dp_db(const deploy::CityEvalReport& a,
                     const deploy::CityEvalReport& b) {
  double max_dp = 0.0;
  for (std::size_t i = 0; i < a.power.size(); ++i)
    max_dp = std::max(max_dp,
                      std::abs(a.power[i].value() - b.power[i].value()));
  return max_dp;
}

bool same_powers(const deploy::CityEvalReport& a,
                 const deploy::CityEvalReport& b) {
  return a.power.size() == b.power.size() &&
         std::memcmp(a.power.data(), b.power.data(),
                     a.power.size() * sizeof(common::PowerDbm)) == 0;
}

std::string bool_json(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::parse_args(argc, argv);
  volatile double sink = 0.0;

  constexpr std::size_t kM = 256;
  constexpr std::size_t kN = 4096;

  // The pruned and dense scenarios share the seed (it ignores the cutoff),
  // so positions, serving assignments and biases are identical — the power
  // comparison below isolates pruning alone.
  const core::CityScaleScenario pruned_scenario =
      core::city_scale_scenario(kM, kN, kCityCutoffDb);
  const core::CityScaleScenario dense_scenario = core::city_scale_scenario(
      kM, kN, -std::numeric_limits<double>::infinity());

  deploy::CityFleetEngine pruned{pruned_scenario.config};
  pruned.assign(pruned_scenario.devices);
  deploy::CityFleetEngine dense{dense_scenario.config};
  dense.assign(dense_scenario.devices);

  const double n = static_cast<double>(kN);

  // Phase 1+2: dense vs pruned full-fleet evaluation, single worker.
  const bench::BenchResult dense_t1 = bench::run_bench(
      "city_eval_dense_m256",
      [&] { sink = sink + dense.evaluate(dense_scenario.biases, 1)
                              .power.back().value(); });
  const bench::BenchResult pruned_t1 = bench::run_bench(
      "city_eval_pruned_m256",
      [&] { sink = sink + pruned.evaluate(pruned_scenario.biases, 1)
                              .power.back().value(); });
  const double speedup = dense_t1.ns_per_op / pruned_t1.ns_per_op;

  const deploy::CityEvalReport pruned_report =
      pruned.evaluate(pruned_scenario.biases, 1);
  const deploy::CityEvalReport dense_report =
      dense.evaluate(dense_scenario.biases, 1);
  const double max_dp = max_abs_dp_db(pruned_report, dense_report);

  bench::print_result(dense_t1, json,
                      ",\"per_device_ns\":" +
                          std::to_string(dense_t1.ns_per_op / n) +
                          bench::threads_extra_json(1));
  bench::print_result(
      pruned_t1, json,
      ",\"per_device_ns\":" + std::to_string(pruned_t1.ns_per_op / n) +
          ",\"speedup_vs_dense\":" + std::to_string(speedup) +
          ",\"max_abs_dp_db\":" + std::to_string(max_dp) +
          ",\"bound_max_db\":" +
          std::to_string(pruned_report.max_error_bound_db) +
          ",\"mean_kept_leakage\":" +
          std::to_string(pruned.mean_kept_leakage()) +
          ",\"cutoff_db\":" + std::to_string(kCityCutoffDb) +
          ",\"shards\":" + std::to_string(pruned_report.shard_count) +
          bench::threads_extra_json(1));
  if (!json)
    std::printf("  -> pruned %.1fx vs dense; max |dP| %.4f dB"
                " (analytic bound %.4f dB); %.1f kept of %zu\n",
                speedup, max_dp, pruned_report.max_error_bound_db,
                pruned.mean_kept_leakage(), kM - 1);

  // Phase 3: thread scaling of the pruned fleet evaluation.
  for (int threads : {2, 4}) {
    const std::string name =
        "city_eval_pruned_m256_t" + std::to_string(threads);
    const bench::BenchResult tn = bench::run_bench(name, [&] {
      sink = sink + pruned.evaluate(pruned_scenario.biases, threads)
                        .power.back().value();
    });
    const double efficiency =
        pruned_t1.ns_per_op / (static_cast<double>(threads) * tn.ns_per_op);
    bench::print_result(
        tn, json,
        ",\"per_device_ns\":" + std::to_string(tn.ns_per_op / n) +
            ",\"parallel_efficiency\":" + std::to_string(efficiency) +
            bench::threads_extra_json(threads));
    if (!json)
      std::printf("  -> %d workers: efficiency %.2f\n", threads, efficiency);
  }

  // Phase 4: byte-identity across worker counts (M=64 x N=512, the test
  // suite's fixture scaled into bench territory).
  {
    const core::CityScaleScenario scenario =
        core::city_scale_scenario(64, 512, kCityCutoffDb);
    deploy::CityFleetEngine engine{scenario.config};
    engine.assign(scenario.devices);
    const deploy::CityEvalReport r1 = engine.evaluate(scenario.biases, 1);
    const deploy::CityEvalReport r2 = engine.evaluate(scenario.biases, 2);
    deploy::CityEvalReport r8;
    const bench::BenchResult t8 = bench::run_bench(
        "city_determinism_m64",
        [&] { r8 = engine.evaluate(scenario.biases, 8); });
    const bool deterministic = same_powers(r1, r2) && same_powers(r1, r8);
    bench::print_result(t8, json,
                        ",\"deterministic\":" + bool_json(deterministic) +
                            ",\"threads_checked\":3" +
                            bench::threads_extra_json(8));
    if (!json)
      std::printf("  -> power bytes across 1/2/8 workers: %s\n",
                  deterministic ? "identical" : "DIVERGED");
  }

  // Phase 5: frozen retune sweeps must not scale with M. Freeze one
  // device in a 4-surface town and one in the 256-surface city, then time
  // received_power_swept per candidate response.
  {
    double m4_ns = 0.0;
    for (const std::size_t m : {std::size_t{4}, kM}) {
      const core::CityScaleScenario scenario =
          core::city_scale_scenario(m, 8, kCityCutoffDb);
      deploy::CityFleetEngine engine{scenario.config};
      engine.assign(scenario.devices);
      const channel::PropagationScene::FrozenEval frozen =
          engine.freeze_device(0, scenario.biases);
      const channel::PropagationScene& scene = engine.scene(0);

      std::vector<em::JonesMatrix> candidates;
      for (int c = 0; c < 16; ++c)
        candidates.push_back(engine.response_engine().response(
            scenario.config.frequency, scenario.config.geometry.mode,
            common::Voltage{static_cast<double>(c) * 2.0},
            common::Voltage{30.0 - static_cast<double>(c) * 2.0}));

      std::size_t next = 0;
      const bench::BenchResult r = bench::run_bench(
          "city_frozen_sweep_m" + std::to_string(m), [&] {
            sink = sink +
                   scene.received_power_swept(
                            frozen, candidates[next++ % candidates.size()])
                       .value();
          });
      std::string extra = bench::threads_extra_json(1);
      if (m == 4)
        m4_ns = r.ns_per_op;
      else
        extra = ",\"ns_ratio_vs_m4\":" + std::to_string(r.ns_per_op / m4_ns) +
                extra;
      bench::print_result(r, json, extra);
    }
  }
  return 0;
}
