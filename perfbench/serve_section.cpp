// serve_retune section: the online retune path, ServeRuntime::submit ->
// ring -> WorkerShard -> codebook / scene / receiver.
//
// Fleet: core::serving_scenario(64, 4) behind a 2-shard ServeRuntime with
// admission disabled, so every request is served and the payload
// fingerprint is a pure function of the schedule. The benchmark's own
// thread is the single submitter; with the two shards that is three busy
// threads on a 4-vCPU box. Two phases:
//
//  - paced: open-loop Poisson retune-heavy mix at kPacedRateHz, well under
//    saturation, in windows of kWindowS, each on a fresh runtime; p90_us is
//    the lower quartile over windows of each window's ServeReport::latency
//    p90. A window in which the shared host descheduled the submitter or a
//    shard for milliseconds reads tens to hundreds of times higher, and
//    such windows came in clusters of up to half a run; the lower quartile
//    reads the windows that ran. p90 rather than p99 because on a shared VM
//    the p99 belongs to stalls; p50 only as a traced diagnostic because the
//    histogram's log2 buckets put an edge (8192 ns) right under this mix's
//    median, which magnifies small speed changes several-fold.
//  - unpaced: a fixed request count pushed through back-pressure per rep;
//    ops_per_s is the median served rate over reps.
//
// Windows and reps alternate, so both phases sample the whole run.
//
// Every runtime gets a freshly built fleet whose lazy response plans were
// touched once beforehand (cold plans put multi-ms stalls into a window).
#include <pthread.h>
#include <sched.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/codebook/codebook.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/radio/transceiver.h"
#include "src/serve/load_generator.h"
#include "src/serve/serve_runtime.h"

namespace perfbench {
namespace {

using namespace llama;

constexpr std::size_t kDevices = 64;
constexpr std::size_t kSurfaces = 4;
constexpr std::size_t kShards = 2;
constexpr double kPacedRateHz = 20'000.0;
constexpr double kWindowS = 0.25;
/// Requests per unpaced rep (~0.25 s at saturation on two shards).
constexpr double kUnpacedRequests = 75'000.0;
/// Traced unpaced reps record one submit span in this many requests
/// (traced paced windows record each submit's lateness instead).
constexpr std::uint64_t kSubmitSample = 16;

/// Pins the calling thread to one CPU its affinity mask allows that no
/// shard is pinned to (shard i pins itself to CPU i), for the object's
/// lifetime, so the submitter never shares a CPU with a shard. Leaves the
/// thread alone when no such CPU exists.
class SubmitterPin {
 public:
  SubmitterPin() {
    if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0)
      return;
    for (int cpu = static_cast<int>(kShards); cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
      return;
    }
  }
  ~SubmitterPin() {
    if (pinned_) (void)pthread_setaffinity_np(pthread_self(), sizeof saved_,
                                              &saved_);
  }
  SubmitterPin(const SubmitterPin&) = delete;
  SubmitterPin& operator=(const SubmitterPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct WindowResult {
  double ops_per_s = 0.0;
  double p90_us = 0.0;  ///< paced windows only
  std::uint64_t fingerprint = 0;
  bool traced = false;
};

class ServeSection final : public Section {
 public:
  void setup(std::uint64_t seed) override {
    (void)seed;  // the fleet is fixed; the seed drives the schedules
    scenario_ = core::serving_scenario(kDevices, kSurfaces);
    topology_ = scenario_.topology;
    topology_.n_shards = kShards;
    topology_.admission = serve::AdmissionConfig::unlimited();
    // The default overload's compile options, on one worker (like every
    // set-up compile) in place of one worker per hardware thread.
    codebook::CompilerOptions compile;
    compile.f_min = scenario_.config.frequency;
    compile.f_max = scenario_.config.frequency;
    compile.n_frequencies = 1;
    compile.threads = 1;
    serve::ServingFleet first = serve::build_serving_fleet(
        scenario_.config, scenario_.devices, compile);
    book_ = first.book;
    warm(first);
    spare_.push_back(std::move(first));
    spare_.push_back(make_fleet());
  }

  void begin(std::uint64_t seed) override {
    paced_.clear();
    unpaced_.clear();
    late_ns_.clear();
    latency_traced_ = {};
    counters_ = {};
    paced_s_ = 0.0;
    unpaced_s_ = 0.0;

    serve::LoadGeneratorConfig paced_load = scenario_.retune_heavy;
    paced_load.seed = derive_seed(seed, 1);
    paced_load.rate_hz = kPacedRateHz;
    paced_load.duration_s = kWindowS;
    paced_load.n_devices = kDevices;
    paced_schedule_ = serve::generate_schedule(paced_load);

    serve::LoadGeneratorConfig unpaced_load = paced_load;
    unpaced_load.seed = derive_seed(seed, 2);
    unpaced_load.rate_hz = kUnpacedRequests;
    unpaced_load.duration_s = 1.0;
    unpaced_schedule_ = serve::generate_schedule(unpaced_load);
  }

  void step(double budget_s, bool traced, Tracer& tracer,
            Tally& tally) override {
    const SubmitterPin pin;
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    do {
      // Paced windows and unpaced reps share the section's time evenly.
      const bool paced = paced_s_ <= unpaced_s_;
      const std::uint64_t t0 = now_ns();
      WindowResult result =
          run_window(paced ? paced_schedule_ : unpaced_schedule_, paced,
                     traced, tracer, tally);
      (paced ? paced_ : unpaced_).push_back(result);
      (paced ? paced_s_ : unpaced_s_) +=
          static_cast<double>(now_ns() - t0) / 1e9;
    } while (now_ns() < end);
  }

  void probe(Tracer& tracer, Tally& tally) override { mirror(tracer, tally); }

  void check(Tally& tally) override {
    // 1-shard replays: the payload fingerprint is shard-count invariant.
    serve::ServeTopology one = topology_;
    one.n_shards = 1;
    one.keep_responses = true;
    const serve::ServeReport paced_ref = replay(one, paced_schedule_);
    tally.check(paced_ref.conserved() && paced_ref.shed == 0,
                "serve 1-shard paced replay conserved");
    for (const WindowResult& w : paced_)
      tally.check(w.fingerprint == paced_ref.payload_fingerprint,
                  "serve paced fingerprint equals 1-shard replay");
    double sum_dbm = 0.0;
    std::size_t retunes = 0;
    for (const serve::Response& r : paced_ref.responses)
      if (r.kind == serve::RequestKind::kRetune &&
          r.status == serve::ResponseStatus::kOk) {
        sum_dbm += r.power.value();
        ++retunes;
      }
    tally.check(retunes > 0, "serve paced schedule carries retunes");
    link_power_dbm_ = retunes > 0 ? sum_dbm / static_cast<double>(retunes)
                                  : 0.0;

    one.keep_responses = false;
    const serve::ServeReport unpaced_ref = replay(one, unpaced_schedule_);
    tally.check(unpaced_ref.conserved() && unpaced_ref.shed == 0,
                "serve 1-shard unpaced replay conserved");
    for (const WindowResult& w : unpaced_)
      tally.check(w.fingerprint == unpaced_ref.payload_fingerprint,
                  "serve unpaced fingerprint equals 1-shard replay");
  }

  void report(bool trace, const Tracer& tracer, double speed_scale,
              Metrics& metrics) const override {
    (void)speed_scale;  // serving metrics are reported as measured
    if (!trace) {
      metrics.add("p90_us", window_p90_us(false), "us");
      std::vector<double> ops;
      for (const WindowResult& r : unpaced_)
        if (!r.traced) ops.push_back(r.ops_per_s);
      metrics.add("ops_per_s", median(ops), "1/s");
      metrics.add("link_power_dbm", link_power_dbm_, "dBm");
      return;
    }
    const double p50_traced = latency_traced_.p50_ns() / 1e3;
    const double service_us =
        median(tracer.durations("serve.service")) / 1e3;
    metrics.add("serve.submit_ns", median(tracer.durations("serve.submit")),
                "ns");
    metrics.add("serve.queue_us", p50_traced - service_us, "us");
    metrics.add("serve.gen_late_us", quantile(late_ns_, 0.99) / 1e3, "us");
    metrics.add("serve.p50_us", p50_traced, "us");
    metrics.add("serve.p99_us", latency_traced_.p99_ns() / 1e3, "us");
    metrics.add("serve.shed", static_cast<double>(counters_.shed), "count");
    metrics.add("serve.degraded", static_cast<double>(counters_.degraded),
                "count");
    metrics.add("serve.forwarded", static_cast<double>(counters_.forwarded),
                "count");
    metrics.add("serve.errors", static_cast<double>(counters_.errors),
                "count");
    metrics.add("codebook.lookup_ns",
                median(tracer.durations("codebook.lookup")), "ns");
    metrics.add("core.retune_ns", median(tracer.durations("core.retune")),
                "ns");
    metrics.add("metasurface.response_ns",
                median(tracer.durations("metasurface.response")), "ns");
    metrics.add("channel.scene_power_ns",
                median(tracer.durations("channel.scene_power")), "ns");
    metrics.add("radio.expected_measure_ns",
                median(tracer.durations("radio.expected_measure")), "ns");
  }

  [[nodiscard]] double trace_overhead() const override {
    return window_p90_us(true) / window_p90_us(false) - 1.0;
  }

 private:
  struct Counters {
    std::uint64_t shed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t errors = 0;
  };

  /// Lower quartile over the traced or untraced paced windows of each
  /// one's p90.
  [[nodiscard]] double window_p90_us(bool traced) const {
    std::vector<double> p90;
    for (const WindowResult& w : paced_)
      if (w.traced == traced) p90.push_back(w.p90_us);
    return quantile(p90, 0.25);
  }

  static void warm(serve::ServingFleet& fleet) {
    for (auto& system : fleet.systems)
      (void)system->expected_measure_with_surface();
  }

  /// A fleet like serve::build_serving_fleet's, sharing the compiled book.
  [[nodiscard]] serve::ServingFleet make_fleet() const {
    serve::ServingFleet fleet;
    fleet.book = book_;
    fleet.frequency = scenario_.config.frequency;
    fleet.rx_template = scenario_.config.rx_antenna;
    for (const deploy::DeviceSpec& device : scenario_.devices) {
      fleet.systems.push_back(std::make_unique<core::LlamaSystem>(
          core::device_system_config(scenario_.config, device.orientation)));
      fleet.orientations.push_back(device.orientation);
    }
    warm(fleet);
    return fleet;
  }

  [[nodiscard]] serve::ServingFleet take_fleet() {
    if (spare_.empty()) return make_fleet();
    serve::ServingFleet fleet = std::move(spare_.back());
    spare_.pop_back();
    return fleet;
  }

  WindowResult run_window(const std::vector<serve::TimedRequest>& schedule,
                          bool paced, bool traced, Tracer& tracer,
                          Tally& tally) {
    serve::ServeRuntime runtime(topology_, take_fleet());
    runtime.start();
    const std::uint64_t t0 = now_ns();
    for (const serve::TimedRequest& timed : schedule) {
      std::uint64_t due = 0;
      if (paced) {
        due = t0 + static_cast<std::uint64_t>(timed.t_s * 1e9);
        while (now_ns() + 50'000 < due) std::this_thread::yield();
        while (now_ns() < due) {
        }
      }
      if (traced && paced) {
        late_ns_.push_back(static_cast<double>(now_ns() - due));
        (void)runtime.submit(timed.request);
      } else if (traced && timed.request.id % kSubmitSample == 0) {
        const std::uint64_t start = now_ns();
        (void)runtime.submit(timed.request);
        tracer.record("serve.submit", timed.request.id, start, now_ns());
      } else {
        (void)runtime.submit(timed.request);
      }
    }
    const serve::ServeReport report = runtime.stop();
    tally.attempted += report.submitted;
    tally.failed += report.shed + report.errors;
    tally.check(report.conserved(), "serve window conserved");
    counters_.shed += report.shed;
    counters_.degraded += report.degraded;
    counters_.forwarded += report.forwarded;
    counters_.errors += report.errors;

    if (paced && traced) latency_traced_.merge(report.latency);
    WindowResult result;
    result.traced = traced;
    result.ops_per_s = report.achieved_rps;
    result.p90_us = report.latency.percentile_ns(0.90) / 1e3;
    result.fingerprint = report.payload_fingerprint;
    // Build the next runtime's fleet now, outside every timed region.
    spare_.push_back(make_fleet());
    return result;
  }

  [[nodiscard]] serve::ServeReport replay(
      const serve::ServeTopology& topology,
      const std::vector<serve::TimedRequest>& schedule) {
    serve::ServeRuntime runtime(topology, take_fleet());
    runtime.start();
    for (const serve::TimedRequest& timed : schedule)
      (void)runtime.submit(timed.request);
    serve::ServeReport report = runtime.stop();
    spare_.push_back(make_fleet());
    return report;
  }

  /// Single-thread mirror of WorkerShard::serve over the paced schedule,
  /// through public calls in its order, with a span per layer call. Gives
  /// the service time the queue wait is measured against and the
  /// per-layer split of a retune.
  void mirror(Tracer& tracer, Tally& tally) {
    serve::ServingFleet fleet = take_fleet();
    const codebook::Codebook& book = *fleet.book;
    const radio::Receiver receiver(scenario_.config.receiver,
                                   common::Rng{});
    const common::PowerDbm tx_power = scenario_.config.tx_power;
    const metasurface::SurfaceMode mode = scenario_.config.geometry.mode;
    bool checked = false;
    for (const serve::TimedRequest& timed : paced_schedule_) {
      const serve::Request& req = timed.request;
      core::LlamaSystem& system = *fleet.systems[req.device];
      const ScopedSpan service(tracer, "serve.service", req.id);
      switch (req.kind) {
        case serve::RequestKind::kCodebookLookup: {
          const ScopedSpan s(tracer, "codebook.lookup", req.id,
                             service.handle());
          (void)book.lookup(req.frequency, req.orientation);
          break;
        }
        case serve::RequestKind::kRetune: {
          const ScopedSpan retune(tracer, "core.retune", req.id,
                                  service.handle());
          system.link().set_rx_antenna(
              fleet.rx_template.oriented(req.orientation));
          codebook::BiasPoint hit;
          {
            const ScopedSpan s(tracer, "codebook.lookup", req.id,
                               retune.handle());
            hit = book.lookup(req.frequency, req.orientation);
          }
          control::PowerSupply& supply = system.supply();
          supply.set_outputs(hit.vx, hit.vy);
          system.surface().set_bias(supply.output_x(), supply.output_y());
          const common::PowerDbm power =
              evaluate(system, receiver, tx_power, mode, req, tracer,
                       retune.handle());
          if (!checked) {
            checked = true;
            tally.check(power.value() ==
                            system.expected_measure_with_surface().value(),
                        "serve mirror retune equals expected_measure");
          }
          break;
        }
        case serve::RequestKind::kMeasure:
          (void)evaluate(system, receiver, tx_power, mode, req, tracer,
                         service.handle());
          break;
        case serve::RequestKind::kFleetQuery:
          break;
      }
    }
  }

  /// LlamaSystem::expected_measure_with_surface split at its layer calls
  /// (the serving fleet's scenes carry the home surface only).
  static common::PowerDbm evaluate(core::LlamaSystem& system,
                                   const radio::Receiver& receiver,
                                   common::PowerDbm tx_power,
                                   metasurface::SurfaceMode mode,
                                   const serve::Request& req, Tracer& tracer,
                                   std::uint32_t parent) {
    em::JonesMatrix response;
    {
      const ScopedSpan s(tracer, "metasurface.response", req.id, parent);
      response = system.surface().response(system.config().frequency, mode);
    }
    common::PowerDbm channel{-120.0};
    {
      const ScopedSpan s(tracer, "channel.scene_power", req.id, parent);
      channel = system.link().received_power_with_response(
          tx_power, system.config().frequency, response);
    }
    const ScopedSpan s(tracer, "radio.expected_measure", req.id, parent);
    return receiver.expected_measure(channel);
  }

  core::ServingScenario scenario_;
  serve::ServeTopology topology_;
  std::shared_ptr<const codebook::Codebook> book_;
  std::vector<serve::ServingFleet> spare_;
  std::vector<serve::TimedRequest> paced_schedule_;
  std::vector<serve::TimedRequest> unpaced_schedule_;
  std::vector<WindowResult> paced_;
  std::vector<WindowResult> unpaced_;
  std::vector<double> late_ns_;
  /// Paced-phase latency merged over the run's traced windows.
  serve::LatencyHistogram latency_traced_;
  Counters counters_;
  /// Wall time spent in paced windows and unpaced reps so far [s].
  double paced_s_ = 0.0;
  double unpaced_s_ = 0.0;
  double link_power_dbm_ = 0.0;
};

}  // namespace

std::unique_ptr<Section> make_serve_section() {
  return std::make_unique<ServeSection>();
}

}  // namespace perfbench
