// offline_round section: the offline path, Algorithm-1 sweep or codebook
// compile -> response engine -> SoA kernel, plus city-scale evaluation.
//
// Four ops, each timed on its own and cycled round-robin until the
// section's time is up; each metric is the median over its op's samples:
//
//  - DeploymentEngine::run (Algorithm 1) on dense_deployment_scenario at
//    N=48 x M=4 and at N=6 x M=1, each on a fresh engine, so a round pays
//    for its own response cache: N=48 reuses responses across devices,
//    N=6 hardly does;
//  - CodebookCompiler::compile for that deployment's device config (SoA
//    kernels, no cache);
//  - CityFleetEngine::evaluate on city_scale_scenario(256, 4096, -58); its
//    time is a per-layer metric of the traced run only, because it spread
//    too widely across runs to bound end to end.
//
// The timed ops run on one worker: when the shared host stalled vCPUs, the
// 2-worker round and compile slowed by up to 85% where the serial N=6 round
// slowed by at most 16%. The traced run times the 2-worker ops as well, for the
// parallel efficiencies, and the checks compare 1- and 2-worker outputs.
// End-to-end times are scaled to the reference host speed (see main.cpp).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/deploy/city_fleet.h"
#include "src/deploy/deployment_engine.h"
#include "src/kernel/jones_kernels.h"
#include "src/metasurface/designs.h"
#include "src/metasurface/metasurface.h"

namespace perfbench {
namespace {

using namespace llama;

/// Workers of the timed ops.
constexpr int kWorkers = 1;
/// Workers of the parallel runs the timed ops are checked and compared
/// against.
constexpr int kParallelWorkers = 2;
constexpr double kCityCutoffDb = -58.0;
/// Repetitions of each per-layer probe in the traced run.
constexpr int kProbeReps = 15;

enum Op { kRoundN48, kRoundN6, kCompile, kCityEval, kOps };
constexpr const char* kOpSpan[kOps] = {"deploy.round_n48", "deploy.round_n6",
                                       "codebook.compile", "deploy.city_eval"};

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

std::vector<common::PowerDbm> round_powers(
    const deploy::DeploymentReport& report) {
  std::vector<common::PowerDbm> out;
  for (const deploy::DeviceResult& d : report.devices) {
    out.push_back(d.optimized_power);
    out.push_back(d.unoptimized_power);
  }
  return out;
}

std::vector<double> volt_axis(double lo, double hi, double step) {
  std::vector<double> axis;
  for (int i = 0; lo + step * i <= hi + 1e-9; ++i)
    axis.push_back(lo + step * i);
  return axis;
}

class OfflineSection final : public Section {
 public:
  void setup(std::uint64_t seed) override {
    (void)seed;  // every offline input is a fixed scenario
    n48_ = core::dense_deployment_scenario(48, 4);
    n48_.config.threads = kWorkers;
    n6_ = core::dense_deployment_scenario(6, 1);
    n6_.config.threads = kWorkers;
    compiler_ = std::make_unique<codebook::CodebookCompiler>(
        core::device_system_config(n48_.config, common::Angle::degrees(0.0)));
    compile_options_.threads = kWorkers;
    city_ = core::city_scale_scenario(256, 4096, kCityCutoffDb);
    city_.config.threads = kWorkers;
    city_engine_ = std::make_unique<deploy::CityFleetEngine>(city_.config);
    city_engine_->assign(city_.devices);
  }

  void begin(std::uint64_t seed) override {
    (void)seed;
    for (auto& samples : untraced_) samples.clear();
    for (auto& samples : traced_) samples.clear();
    n48_powers_.clear();
    n6_powers_.clear();
    book_bytes_.clear();
    city_power_.clear();
  }

  void step(double budget_s, bool traced, Tracer& tracer,
            Tally& tally) override {
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    do {
      for (int op = 0; op < kOps; ++op) {
        try {
          const bool same = run_op(static_cast<Op>(op));
          tally.check(same, std::string(kOpSpan[op]) +
                                " output equals the run's first output");
        } catch (const std::exception& e) {
          tally.check(false, std::string(kOpSpan[op]) + " threw: " + e.what());
          continue;
        }
        if (traced) tracer.record(kOpSpan[op], ++op_id_, t0_, t1_);
        (traced ? traced_ : untraced_)[op].push_back(
            static_cast<double>(t1_ - t0_) / 1e6);
      }
    } while (now_ns() < end);
  }

  void check(Tally& tally) override {
    deploy::DeploymentConfig cfg48 = n48_.config;
    cfg48.threads = kParallelWorkers;
    deploy::DeploymentEngine engine48{cfg48};
    tally.check(same_bytes(round_powers(engine48.run(n48_.devices)),
                           n48_powers_),
                "N=48 round powers identical at 1 and 2 workers");
    deploy::DeploymentConfig cfg6 = n6_.config;
    cfg6.threads = kParallelWorkers;
    deploy::DeploymentEngine engine6{cfg6};
    tally.check(same_bytes(round_powers(engine6.run(n6_.devices)),
                           n6_powers_),
                "N=6 round powers identical at 1 and 2 workers");
    codebook::CompilerOptions parallel = compile_options_;
    parallel.threads = kParallelWorkers;
    tally.check(compiler_->compile(parallel).serialize() == book_bytes_,
                "codebook bytes identical at 1 and 2 workers");
    tally.check(same_bytes(city_engine_->evaluate(city_.biases,
                                                  kParallelWorkers)
                               .power,
                           city_power_),
                "city powers identical at 1 and 2 workers");

    // Pruned against dense: measured |dP| within the analytic bound.
    core::CityScaleScenario dense = core::city_scale_scenario(
        256, 4096, -std::numeric_limits<double>::infinity());
    dense.config.threads = kParallelWorkers;
    deploy::CityFleetEngine dense_engine{dense.config};
    dense_engine.assign(dense.devices);
    const deploy::CityEvalReport dense_report =
        dense_engine.evaluate(dense.biases);
    double max_dp = 0.0;
    for (std::size_t i = 0; i < city_power_.size(); ++i)
      max_dp = std::max(max_dp, std::abs(city_power_[i].value() -
                                         dense_report.power[i].value()));
    tally.check(dense_report.power.size() == city_power_.size() &&
                    max_dp <= city_bound_db_,
                "city pruned-vs-dense |dP| within max_error_bound_db");
  }

  void report(bool trace, const Tracer& tracer, double speed_scale,
              Metrics& metrics) const override {
    if (!trace) {
      metrics.add("round_n48_ms", median(untraced_[kRoundN48]) * speed_scale,
                  "ms");
      metrics.add("round_n6_ms", median(untraced_[kRoundN6]) * speed_scale,
                  "ms");
      metrics.add("compile_ms", median(untraced_[kCompile]) * speed_scale,
                  "ms");
      metrics.add("gain_db", gain_db_, "dB");
      return;
    }
    const auto med = [&](const char* span) {
      return median(tracer.durations(span));
    };
    const double cells = static_cast<double>(kGridAxis * kGridAxis);
    metrics.add("metasurface.scalar_cell_ns",
                med("metasurface.scalar_grid") / cells, "ns");
    metrics.add("metasurface.grid_cell_ns",
                med("metasurface.response_grid") / cells, "ns");
    metrics.add("kernel.axis_us", med("kernel.axis_solve") / 1e3, "us");
    metrics.add("kernel.cascade_ns_per_cell", med("kernel.cascade") / cells,
                "ns");
    metrics.add("deploy.grid_cold_us", med("deploy.grid_cold") / 1e3, "us");
    metrics.add("deploy.grid_warm_us", med("deploy.grid_warm") / 1e3, "us");
    const double lookups =
        static_cast<double>(n48_cache_.hits + n48_cache_.misses);
    metrics.add("deploy.cache_hit_ratio",
                lookups > 0.0 ? static_cast<double>(n48_cache_.hits) / lookups
                              : 0.0,
                "ratio");
    metrics.add("deploy.cache_misses",
                static_cast<double>(n48_cache_.misses), "count");
    metrics.add("deploy.lock_contention",
                static_cast<double>(n48_cache_.lock_contention), "count");
    const double round_t1 = median(traced_[kRoundN48]);
    const double round_t2 = med("deploy.round_n48_t2") / 1e6;
    metrics.add("deploy.round_t1_ms", round_t1, "ms");
    metrics.add("deploy.round_t2_ms", round_t2, "ms");
    metrics.add("deploy.round_efficiency",
                round_t1 / (kParallelWorkers * round_t2), "ratio");
    const double city_t1 = median(traced_[kCityEval]);
    const double city_t2 = med("deploy.city_eval_t2") / 1e6;
    metrics.add("deploy.city_eval_ms", city_t2, "ms");
    metrics.add("deploy.city_eval_t1_ms", city_t1, "ms");
    metrics.add("deploy.city_efficiency",
                city_t1 / (kParallelWorkers * city_t2), "ratio");
    metrics.add("control.probes_per_device", probes_per_device_, "count");
    metrics.add("channel.kept_paths", kept_paths_, "count");
    metrics.add("channel.pruned_paths", pruned_paths_, "count");
  }

  [[nodiscard]] double trace_overhead() const override {
    return median(traced_[kRoundN48]) / median(untraced_[kRoundN48]) - 1.0;
  }

  /// Per-layer probes of the traced run, each a span around one public call.
  void probe(Tracer& tracer, Tally& tally) override {
    (void)tally;
    const common::Frequency f = n48_.config.frequency;
    const metasurface::SurfaceMode mode = n48_.config.geometry.mode;
    const metasurface::Metasurface surface =
        metasurface::Metasurface::llama_prototype();
    const metasurface::RotatorStack& stack = surface.stack();
    const auto plan = stack.plan_transmission(f);
    const std::vector<double> axis = volt_axis(0.0, 30.0, 1.0);
    // Algorithm 1's first window: T = 5 steps over the 0-30 V range.
    const std::vector<double> coarse = volt_axis(6.0, 30.0, 6.0);
    volatile double sink = 0.0;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      const auto id = static_cast<std::uint64_t>(rep);
      {
        const ScopedSpan s(tracer, "metasurface.scalar_grid", id);
        for (const double vy : axis)
          for (const double vx : axis)
            sink = sink + stack.transmission(plan, common::Voltage{vx},
                                             common::Voltage{vy})
                              .at(0, 0)
                              .real();
      }
      {
        const ScopedSpan s(tracer, "metasurface.response_grid", id);
        sink = sink + surface.response_grid(f, mode, axis, axis, 1)
                          .back()
                          .back()
                          .at(0, 0)
                          .real();
      }
      std::unique_ptr<kernel::TransmissionKernel> k;
      {
        const ScopedSpan s(tracer, "kernel.axis_solve", id);
        k = std::make_unique<kernel::TransmissionKernel>(stack, plan, axis,
                                                         axis);
      }
      {
        std::vector<em::JonesMatrix> row(axis.size());
        const ScopedSpan s(tracer, "kernel.cascade", id);
        for (std::size_t iy = 0; iy < axis.size(); ++iy) {
          k->eval_grid_row(iy, row.data());
          sink = sink + row.back().at(0, 0).real();
        }
      }
      {
        deploy::SharedResponseEngine engine{
            metasurface::prototype_fr4_design(), n48_.config.cache};
        {
          const ScopedSpan s(tracer, "deploy.grid_cold", id);
          sink = sink + engine.response_grid(f, mode, coarse, coarse)
                            .back()
                            .back()
                            .at(0, 0)
                            .real();
        }
        const ScopedSpan s(tracer, "deploy.grid_warm", id);
        sink = sink + engine.response_grid(f, mode, coarse, coarse)
                          .back()
                          .back()
                          .at(0, 0)
                          .real();
      }
    }
    // 2-worker runs for the parallel efficiencies.
    deploy::DeploymentConfig cfg2 = n48_.config;
    cfg2.threads = kParallelWorkers;
    for (int rep = 0; rep < 5; ++rep) {
      const auto id = static_cast<std::uint64_t>(rep);
      {
        deploy::DeploymentEngine engine{cfg2};
        const ScopedSpan s(tracer, "deploy.round_n48_t2", id);
        sink = sink + engine.run(n48_.devices).sum_capacity_bits_per_hz;
      }
      const ScopedSpan s(tracer, "deploy.city_eval_t2", id);
      sink = sink + city_engine_->evaluate(city_.biases, kParallelWorkers)
                        .power[0]
                        .value();
    }
  }

 private:
  static constexpr std::size_t kGridAxis = 31;

  /// Calls one library function, keeping its start and end in t0_/t1_:
  /// the op's timed region, without the benchmark's own checks.
  template <typename Call>
  auto timed(Call call) {
    t0_ = now_ns();
    auto output = call();
    t1_ = now_ns();
    return output;
  }

  /// Runs one op; true when its output equals the run's first output of
  /// that op.
  bool run_op(Op op) {
    switch (op) {
      case kRoundN48: {
        const deploy::DeploymentReport report = timed([&] {
          return deploy::DeploymentEngine{n48_.config}.run(n48_.devices);
        });
        n48_cache_ = report.cache_stats;
        return keep_or_compare(round_powers(report), n48_powers_, [&] {
          double gain = 0.0;
          double probes = 0.0;
          for (const deploy::DeviceResult& d : report.devices) {
            gain += d.optimized_power.value() - d.unoptimized_power.value();
            probes += d.sweep.probes;
          }
          const auto n = static_cast<double>(report.devices.size());
          gain_db_ = gain / n;
          probes_per_device_ = probes / n;
        });
      }
      case kRoundN6:
        return keep_or_compare(round_powers(timed([&] {
                                 return deploy::DeploymentEngine{n6_.config}
                                     .run(n6_.devices);
                               })),
                               n6_powers_, [] {});
      case kCompile:
        return keep_or_compare(
            timed([&] { return compiler_->compile(compile_options_); })
                .serialize(),
            book_bytes_, [] {});
      case kCityEval: {
        const deploy::CityEvalReport report =
            timed([&] { return city_engine_->evaluate(city_.biases); });
        return keep_or_compare(report.power, city_power_, [&] {
          city_bound_db_ = report.max_error_bound_db;
          kept_paths_ = city_engine_->mean_kept_leakage();
          pruned_paths_ = static_cast<double>(city_engine_->total_pruned());
        });
      }
      case kOps:
        break;
    }
    return false;
  }

  /// The run's first output of an op becomes its reference; later ones
  /// must match it byte for byte.
  template <typename T, typename OnFirst>
  static bool keep_or_compare(std::vector<T> output,
                              std::vector<T>& reference, OnFirst on_first) {
    if (reference.empty()) {
      reference = std::move(output);
      on_first();
      return true;
    }
    return same_bytes(output, reference);
  }

  core::DenseDeploymentScenario n48_;
  core::DenseDeploymentScenario n6_;
  std::unique_ptr<codebook::CodebookCompiler> compiler_;
  codebook::CompilerOptions compile_options_;
  core::CityScaleScenario city_;
  std::unique_ptr<deploy::CityFleetEngine> city_engine_;

  std::vector<double> untraced_[kOps];
  std::vector<double> traced_[kOps];
  std::uint64_t op_id_ = 0;
  std::uint64_t t0_ = 0;  ///< start of the last op's library call [ns]
  std::uint64_t t1_ = 0;  ///< its end [ns]
  std::vector<common::PowerDbm> n48_powers_;
  std::vector<common::PowerDbm> n6_powers_;
  std::vector<std::uint8_t> book_bytes_;
  std::vector<common::PowerDbm> city_power_;
  double city_bound_db_ = 0.0;
  metasurface::ResponseCacheStats n48_cache_;
  double gain_db_ = 0.0;
  double probes_per_device_ = 0.0;
  double kept_paths_ = 0.0;
  double pruned_paths_ = 0.0;
};

}  // namespace

std::unique_ptr<Section> make_offline_section() {
  return std::make_unique<OfflineSection>();
}

}  // namespace perfbench
