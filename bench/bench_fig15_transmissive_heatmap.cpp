// Fig. 15 — Transmissive measurements in the mismatch setup.
// (a-g) Received power heatmaps over the (Vx, Vy) bias grid at Tx-Rx
// distances from 24 to 60 cm; (h) min/max polarization rotation degree per
// distance. Paper: strong bias dependence; rotation range ~3-45 degrees.
//
// The heatmaps run through the batched response engine
// (FullGridSweep::run + LlamaSystem::make_grid_probe), which
// precomputes the bias-independent cascade once per grid. `--json` skips
// the figures and instead times the full 1 V-step grid through the
// unbatched and batched paths, emitting the harness's JSON lines plus the
// measured speedup.
#include <iostream>

#include "bench/bench_harness.h"
#include "src/common/table.h"
#include "src/core/scenarios.h"

using namespace llama;

namespace {

int run_speedup_comparison() {
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
  bench::print_result(per_probe(unbatched), /*json=*/true);
  bench::print_result(per_probe(pointwise), /*json=*/true);
  char extra[128];
  std::snprintf(extra, sizeof(extra),
                ",\"speedup_vs_unbatched\":%.1f,\"speedup_vs_pointwise\":%.1f",
                unbatched.ns_per_op / batched.ns_per_op,
                pointwise.ns_per_op / batched.ns_per_op);
  bench::print_result(per_probe(batched), /*json=*/true, extra);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::parse_args(argc, argv)) return run_speedup_comparison();

  common::Table rotation{"Fig. 15(h): rotation degree vs Tx-Rx distance"};
  rotation.set_columns({"dist_cm", "min_rot_deg", "max_rot_deg"});

  for (double cm = 24.0; cm <= 60.0; cm += 6.0) {
    core::LlamaSystem sys{core::transmissive_mismatch_config(cm / 100.0)};
    control::PowerSupply supply;
    control::FullGridSweep::Options opt;
    opt.step = common::Voltage{3.0};
    control::FullGridSweep sweep{supply, opt};
    (void)sweep.run(sys.make_grid_probe());
    common::print_ascii_heatmap(
        std::cout,
        "Fig. 15: received power heatmap (dBm), Tx-Rx = " +
            std::to_string(static_cast<int>(cm)) + " cm (rows Vy, cols Vx)",
        sweep.vy_values(), sweep.vx_values(), sweep.grid_dbm());

    // Rotation estimation per distance (paper Section 3.4 procedure) on the
    // matched variant of the same geometry. The estimator's probes revisit
    // bias cells, so the response cache carries most of the load.
    core::LlamaSystem est_sys{core::transmissive_match_config(cm / 100.0)};
    est_sys.enable_fast_probes();
    control::RotationEstimator::Options ropt;
    ropt.orientation_step_deg = 3.0;
    ropt.v_step = common::Voltage{5.0};
    // Start at the datasheet-characterized junction region (2 V ideal bias
    // = 4 V on the derated prototype).
    ropt.v_min = common::Voltage{4.0};
    const auto est = est_sys.estimate_rotation(ropt);
    rotation.add_row({cm, est.min_rotation.deg(), est.max_rotation.deg()});
  }
  rotation.add_note("paper: rotation spans ~3-45 deg across distances");
  rotation.print(std::cout);
  return 0;
}
