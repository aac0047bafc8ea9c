// Codebook vs online sweep: the cost of compiling the (frequency x
// orientation) bias codebook once, against the per-round win of replacing
// every Algorithm-1 sweep with an O(1) lookup.
//
// Three measurements, `--json` lines for CI:
//   codebook_compile      — one full offline compile (ns per compile)
//   sweep_round           — optimize_link_batched per re-optimization
//   codebook_round        — optimize_link_codebook per re-optimization,
//                           with `speedup_vs_batched_sweep` (CI asserts
//                           >= 20x against the SoA-kernel sweep; ~30x
//                           typical) and `capacity_ratio_vs_sweep` (the
//                           codebook bias must deliver >= 97% of the full
//                           sweep's spectral efficiency on average).
// Rounds cycle a set of off-lattice device orientations, so the codebook
// path pays its full cost: hash check, fold, bilinear blend, bias program,
// measurement.
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/bench_harness.h"
#include "src/channel/capacity.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"

using namespace llama;

namespace {

/// Off-lattice orientations (the 5-deg default pitch never lands on .5).
const double kOrientationsDeg[] = {12.5, 33.5, 48.5, 61.5, 77.5,
                                   96.5, 118.5, 142.5, 171.5};

codebook::CompilerOptions compile_options() {
  codebook::CompilerOptions opts;
  opts.n_orientations = 37;  // 5 deg pitch over [0, 180]
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::parse_args(argc, argv);

  core::SystemConfig cfg = core::transmissive_mismatch_config(1.5);
  cfg.rx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(45.0));
  cfg.tx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(0.0));

  const codebook::CodebookCompiler compiler{cfg};
  const bench::BenchResult compile = bench::run_bench(
      "codebook_compile",
      [&] { (void)compiler.compile(compile_options()); },
      /*min_time_s=*/0.2, /*min_iterations=*/1);
  const codebook::Codebook book = compiler.compile(compile_options());

  core::LlamaSystem sweep_sys{cfg};
  core::LlamaSystem book_sys{cfg};
  // Both paths pair with the response cache (the repo's standard setup for
  // sequential point probes): the codebook round's two expected-power
  // measurements become memo hits instead of planned cascades, and the
  // sweep system's baseline probe benefits identically.
  sweep_sys.enable_fast_probes();
  book_sys.enable_fast_probes();
  const radio::Receiver probe_rx{cfg.receiver, common::Rng{0}};

  // One re-optimization round at the next orientation in the cycle.
  std::size_t sweep_i = 0;
  volatile double sink = 0.0;
  const bench::BenchResult sweep_round = bench::run_bench(
      "sweep_round", [&] {
        const common::Angle o = common::Angle::degrees(
            kOrientationsDeg[sweep_i++ % std::size(kOrientationsDeg)]);
        sweep_sys.link().set_rx_antenna(
            channel::Antenna::iot_dipole(o));
        sink = sink + sweep_sys.optimize_link_batched().sweep.best_power
                          .value();
      });
  std::size_t book_i = 0;
  const bench::BenchResult book_round = bench::run_bench(
      "codebook_round", [&] {
        const common::Angle o = common::Angle::degrees(
            kOrientationsDeg[book_i++ % std::size(kOrientationsDeg)]);
        book_sys.link().set_rx_antenna(channel::Antenna::iot_dipole(o));
        sink = sink + book_sys.optimize_link_codebook(book).sweep.best_power
                          .value();
      });

  // Link quality: capacity at the codebook bias vs at the full-sweep bias,
  // averaged over the orientation cycle (expected-power model: exact).
  const common::PowerDbm noise = probe_rx.noise_floor_dbm();
  double sweep_capacity = 0.0;
  double book_capacity = 0.0;
  for (const double deg : kOrientationsDeg) {
    const common::Angle o = common::Angle::degrees(deg);
    sweep_sys.link().set_rx_antenna(channel::Antenna::iot_dipole(o));
    book_sys.link().set_rx_antenna(channel::Antenna::iot_dipole(o));
    const auto sweep_report = sweep_sys.optimize_link_batched();
    const auto book_report = book_sys.optimize_link_codebook(book);
    sweep_capacity += channel::capacity_bits_per_hz(
        sweep_report.sweep.best_power, noise);
    book_capacity += channel::capacity_bits_per_hz(
        book_report.sweep.best_power, noise);
  }
  const double capacity_ratio = book_capacity / sweep_capacity;
  const double speedup = sweep_round.ns_per_op / book_round.ns_per_op;

  bench::print_result(compile, json);
  bench::print_result(sweep_round, json);
  bench::print_result(book_round, json,
                      ",\"speedup_vs_batched_sweep\":" +
                          std::to_string(speedup) +
                          ",\"capacity_ratio_vs_sweep\":" +
                          std::to_string(capacity_ratio));
  if (!json) {
    std::printf("\ncompile once: %.1f ms; lookup round %.1fx faster than the"
                " batched Algorithm-1 round\n",
                compile.ns_per_op / 1e6, speedup);
    std::printf("capacity at codebook bias: %.1f%% of the full sweep's\n",
                100.0 * capacity_ratio);
  }
  return 0;
}
