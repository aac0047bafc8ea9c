// Microbenchmarks of the simulation hot paths: the planned (per-frequency
// precomputed) scalar cascade, the memoized response cache, and the batched
// grid evaluators. Run with --json for machine-readable output (see
// bench_harness.h); CI tracks these lines as the perf trajectory.
#include <cstdio>
#include <vector>

#include "bench/bench_harness.h"
#include "src/core/scenarios.h"
#include "src/em/jones.h"
#include "src/metasurface/designs.h"
#include "src/metasurface/metasurface.h"

using namespace llama;

namespace {

/// Sink that keeps the optimizer from deleting benchmarked work.
volatile double g_sink = 0.0;

void consume(const em::JonesMatrix& j) {
  g_sink = g_sink + j.at(0, 0).real() + j.at(1, 1).imag();
}

/// Rescales a whole-grid timing to per-probe numbers.
bench::BenchResult per_probe(bench::BenchResult r, double probes) {
  r.ns_per_op /= probes;
  r.ops_per_s *= probes;
  return r;
}

std::vector<double> one_volt_axis() {
  std::vector<double> axis;
  for (double v = 0.0; v <= 30.0; v += 1.0) axis.push_back(v);
  return axis;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::parse_args(argc, argv);
  const auto f0 = common::Frequency::ghz(2.44);

  {
    bench::print_result(bench::run_bench("jones_rotator_compose", [] {
      consume(em::polarization_rotator(0.7, 0.1, -0.2));
    }), json);
  }

  const metasurface::RotatorStack stack = metasurface::optimized_fr4_design();
  {
    const auto plan = stack.plan_transmission(f0);
    double v = 0.0;
    bench::print_result(bench::run_bench("stack_transmission_planned", [&] {
      v += 0.1;
      if (v > 30.0) v = 0.0;
      consume(stack.transmission(plan, common::Voltage{v}, common::Voltage{v}));
    }), json);
  }
  {
    const auto plan = stack.plan_reflection(f0);
    double v = 0.0;
    bench::print_result(bench::run_bench("stack_reflection_planned", [&] {
      v += 0.1;
      if (v > 30.0) v = 0.0;
      consume(stack.reflection(plan, common::Voltage{v}, common::Voltage{v}));
    }), json);
  }

  {
    metasurface::Metasurface surface = metasurface::Metasurface::llama_prototype();
    surface.enable_response_cache();
    surface.set_bias(common::Voltage{12.0}, common::Voltage{7.0});
    bench::print_result(bench::run_bench("metasurface_response_cache_hit", [&] {
      consume(surface.response(f0, metasurface::SurfaceMode::kTransmissive));
    }), json);
  }

  const std::vector<double> axis = one_volt_axis();
  const double cells = static_cast<double>(axis.size() * axis.size());
  {
    const metasurface::Metasurface surface =
        metasurface::Metasurface::llama_prototype();
    bench::print_result(
        per_probe(bench::run_bench("response_grid_31x31_per_probe", [&] {
          const auto grid = surface.response_grid(
              f0, metasurface::SurfaceMode::kTransmissive, axis, axis);
          consume(grid.back().back());
        }), cells),
        json);
  }

  {
    // SoA kernel gate (ROADMAP item 5): scalar planned per-cell vs the SoA
    // grid path, BOTH single-threaded so the ratio isolates the kernel
    // layer's per-cell efficiency rather than core count. CI asserts
    // speedup_vs_scalar_planned >= 4.
    const metasurface::Metasurface surface =
        metasurface::Metasurface::llama_prototype();
    const metasurface::RotatorStack& pstack = surface.stack();
    const auto plan = pstack.plan_transmission(f0);
    const bench::BenchResult scalar =
        bench::run_bench("grid_scalar_planned_31x31", [&] {
          for (const double vy : axis)
            for (const double vx : axis)
              consume(pstack.transmission(plan, common::Voltage{vx},
                                          common::Voltage{vy}));
        });
    const double scalar_cell_ns = scalar.ns_per_op / cells;
    char extra[96];
    std::snprintf(extra, sizeof extra, ",\"per_cell_ns\":%.2f",
                  scalar_cell_ns);
    bench::print_result(scalar, json, extra);

    const bench::BenchResult soa = bench::run_bench("grid_soa_31x31", [&] {
      const auto grid = surface.response_grid(
          f0, metasurface::SurfaceMode::kTransmissive, axis, axis,
          /*threads=*/1);
      consume(grid.back().back());
    });
    const double soa_cell_ns = soa.ns_per_op / cells;
    std::snprintf(extra, sizeof extra,
                  ",\"per_cell_ns\":%.2f,\"speedup_vs_scalar_planned\":%.2f",
                  soa_cell_ns, scalar_cell_ns / soa_cell_ns);
    bench::print_result(soa, json, extra);
  }

  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    const auto probe = sys.make_probe(0.02);
    bench::print_result(bench::run_bench("probe_unbatched", [&] {
      g_sink = g_sink +
               probe(common::Voltage{9.0}, common::Voltage{21.0}).value();
    }), json, "");
  }
  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    const auto grid_probe = sys.make_grid_probe();
    bench::print_result(
        per_probe(bench::run_bench("grid_probe_31x31_per_probe", [&] {
          const auto grid = grid_probe(axis, axis);
          g_sink = g_sink + grid.back().back().value();
        }), cells),
        json);
  }

  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    bench::print_result(bench::run_bench("full_optimization_round", [&] {
      g_sink = g_sink + sys.optimize_link().improvement.value();
    }), json);
  }
  {
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    bench::print_result(bench::run_bench("full_optimization_round_batched",
                                         [&] {
      g_sink = g_sink + sys.optimize_link_batched().improvement.value();
    }), json);
  }

  if (!json) std::printf("(sink %.3f)\n", g_sink);
  return 0;
}
