// Fig. 15's bias grid as a performance gate: times the full 1 V-step
// (Vx, Vy) grid of the transmissive mismatch setup through the unbatched
// (noisy IQ per cell), pointwise-analytic and batched
// (FullGridSweep::run + LlamaSystem::make_grid_probe) paths, and reports
// the batched line's speedups. `--json` prints the harness's JSON lines,
// which CI gates on; without it the same lines print human-readable. The
// figure itself (heatmaps and rotation table) is `fig15` in
// bench/paper_ledger.cpp, printed by bench_paper.
#include <cstdio>

#include "bench/bench_harness.h"
#include "src/core/scenarios.h"

using namespace llama;

namespace {

int run_speedup_comparison(bool json) {
  // One full 0-30 V plane at 1 V steps (31x31 = 961 probes), the grid the
  // paper's "~30 s exhaustive scan" walks.
  core::LlamaSystem sys{core::transmissive_mismatch_config()};
  const auto grid_probe = sys.make_grid_probe();
  control::PowerSupply supply;
  control::FullGridSweep sweep{supply, {}};

  // The unbatched baseline: a noisy windowed IQ capture per cell, lifted
  // cell by cell into the sweep's grid interface.
  const control::GridPowerProbe noisy_probe =
      control::grid_of(sys.make_probe(0.01));
  // Same measurement model as the batched engine (expected power, no IQ
  // synthesis) but one pointwise planned cascade per probe — isolates how
  // much of the speedup comes from the SoA batching versus the analytic
  // measurement.
  const control::GridPowerProbe analytic_probe =
      control::grid_of([&sys](common::Voltage vx, common::Voltage vy) {
        sys.surface().set_bias(vx, vy);
        return sys.expected_measure_with_surface();
      });

  volatile double sink = 0.0;
  const bench::BenchResult unbatched =
      bench::run_bench("fig15_grid_unbatched", [&] {
        sink = sink + sweep.run(noisy_probe).best_power.value();
      }, /*min_time_s=*/0.5);
  const bench::BenchResult pointwise =
      bench::run_bench("fig15_grid_pointwise_analytic", [&] {
        sink = sink + sweep.run(analytic_probe).best_power.value();
      }, /*min_time_s=*/0.5);
  const bench::BenchResult batched =
      bench::run_bench("fig15_grid_batched", [&] {
        sink = sink + sweep.run(grid_probe).best_power.value();
      }, /*min_time_s=*/0.5);

  const double probes = 31.0 * 31.0;
  auto per_probe = [probes](bench::BenchResult r) {
    r.ns_per_op /= probes;
    r.ops_per_s *= probes;
    return r;
  };
  bench::print_result(per_probe(unbatched), json);
  bench::print_result(per_probe(pointwise), json);
  char extra[128];
  std::snprintf(extra, sizeof(extra),
                ",\"speedup_vs_unbatched\":%.1f,\"speedup_vs_pointwise\":%.1f",
                unbatched.ns_per_op / batched.ns_per_op,
                pointwise.ns_per_op / batched.ns_per_op);
  bench::print_result(per_probe(batched), json, extra);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_speedup_comparison(bench::parse_args(argc, argv));
}
