// fault_track section: the sim-time tick loop. FleetTracker::run on
// core::fault_drill_scenario(32, 4, 300) under fault::ResilientPolicy, with
// the codebook compiled in set-up and the fault plan's seed taken from the
// workload seed. Runs repeat until the section's time is up. Its end-to-end
// metric is the deterministic outage fraction; the wall time per tick is a
// per-layer metric of the traced run (track.tick_us), because it moved with
// the shared host three to five times as much as the offline ops did. Every
// run must reproduce the first run's fleet report exactly, and a 1-worker
// run must match the 2-worker runs.
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/fault/resilient_policy.h"
#include "src/track/fleet_tracker.h"

namespace perfbench {
namespace {

using namespace llama;

constexpr int kWorkers = 2;
constexpr std::size_t kDevices = 32;
constexpr std::size_t kSurfaces = 4;
constexpr long kTicks = 300;
/// Traced runs log on_tick spans for one run in this many: a run has
/// kDevices * kTicks of them, and every run's would make the trace file
/// hundreds of MB.
constexpr std::uint64_t kTickLogStride = 16;

/// Full-precision fingerprint of everything a fleet run decides.
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

/// Start and end [ns] of every on_tick one policy instance served.
using TickLog = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Times on_tick of the wrapped policy; installed through the factory.
class TimedPolicy final : public track::RetunePolicy {
 public:
  TimedPolicy(std::unique_ptr<track::RetunePolicy> inner, TickLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void bind(core::LlamaSystem& system) override { inner_->bind(system); }
  track::PolicyAction on_tick(core::LlamaSystem& system,
                              const track::TickObservation& obs) override {
    const std::uint64_t start = now_ns();
    const track::PolicyAction action = inner_->on_tick(system, obs);
    log_.emplace_back(start, now_ns());
    return action;
  }

 private:
  std::unique_ptr<track::RetunePolicy> inner_;
  TickLog& log_;
};

class FaultSection final : public Section {
 public:
  void setup(std::uint64_t seed) override {
    scenario_ = core::fault_drill_scenario(kDevices, kSurfaces, kTicks);
    auto plan = std::make_shared<fault::FaultPlan>(*scenario_.plan);
    plan->seed = derive_seed(seed, 3);
    scenario_.config.faults = plan;
    scenario_.config.deployment.threads = kWorkers;
    codebook::CompilerOptions options;
    options.threads = 1;  // set-up compiles run on one worker
    book_ = std::make_unique<codebook::Codebook>(
        codebook::CodebookCompiler{
            core::device_system_config(scenario_.config.deployment,
                                       common::Angle::degrees(0.0))}
            .compile(options));
    policy_options_ = {};
    policy_options_.lookup.threads = 1;  // fleet shards already parallelize
    tracker_ = std::make_unique<track::FleetTracker>(scenario_.config);
  }

  void begin(std::uint64_t seed) override {
    (void)seed;
    untraced_ms_.clear();
    traced_ms_.clear();
    reference_.clear();
  }

  void step(double budget_s, bool traced, Tracer& tracer,
            Tally& tally) override {
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    do {
      const bool log_ticks = traced && traced_runs_++ % kTickLogStride == 0;
      std::mutex logs_mutex;
      std::vector<std::unique_ptr<TickLog>> logs;
      const track::PolicyFactory factory =
          [&]() -> std::unique_ptr<track::RetunePolicy> {
        auto policy = std::make_unique<fault::ResilientPolicy>(
            *book_, policy_options_);
        if (!log_ticks) return policy;
        // The fleet may build policies from its worker threads.
        const std::lock_guard<std::mutex> lock(logs_mutex);
        logs.push_back(std::make_unique<TickLog>());
        return std::make_unique<TimedPolicy>(std::move(policy),
                                             *logs.back());
      };
      const std::uint64_t t0 = now_ns();
      try {
        report_ = tracker_->run(scenario_.devices, factory, kTicks);
        const std::uint64_t t1 = now_ns();
        (traced ? traced_ms_ : untraced_ms_)
            .push_back(static_cast<double>(t1 - t0) / 1e6);
        const std::uint64_t run_id = ++run_id_;
        if (traced) tracer.record("track.run", run_id, t0, t1);
        const std::string fp = fingerprint(report_);
        if (reference_.empty()) reference_ = fp;
        tally.check(fp == reference_,
                    "fault_track report equals the run's first report");
        for (std::size_t d = 0; d < logs.size(); ++d)
          for (const auto& [start, stop] : *logs[d])
            tracer.record("track.on_tick", run_id * 1000 + d, start, stop);
      } catch (const std::exception& e) {
        tally.check(false, std::string("fault_track run threw: ") + e.what());
      }
    } while (now_ns() < end);
  }

  void probe(Tracer& tracer, Tally& tally) override {
    (void)tally;
    // Single-worker reference for the parallel efficiency.
    track::FleetConfig one = scenario_.config;
    one.deployment.threads = 1;
    track::FleetTracker tracker1{one};
    for (int rep = 0; rep < 5; ++rep) {
      const ScopedSpan s(tracer, "track.run_t1",
                         static_cast<std::uint64_t>(rep));
      (void)tracker1.run(scenario_.devices, make_policy(), kTicks);
    }
  }

  void check(Tally& tally) override {
    track::FleetConfig one = scenario_.config;
    one.deployment.threads = 1;
    track::FleetTracker tracker1{one};
    tally.check(fingerprint(tracker1.run(scenario_.devices, make_policy(),
                                         kTicks)) == reference_,
                "fault_track report identical at 1 and 2 workers");
  }

  void report(bool trace, const Tracer& tracer, double speed_scale,
              Metrics& metrics) const override {
    (void)speed_scale;  // the only end-to-end metric is not a time
    if (!trace) {
      metrics.add("outage_frac", report_.mean_outage_fraction, "ratio");
      return;
    }
    metrics.add("track.tick_us",
                median(traced_ms_) * 1e3 / static_cast<double>(kTicks), "us");
    const double t1_ms = median(tracer.durations("track.run_t1")) / 1e6;
    metrics.add("track.run_t1_ms", t1_ms, "ms");
    metrics.add("track.efficiency", t1_ms / (kWorkers * median(traced_ms_)),
                "ratio");
    metrics.add("track.on_tick_us",
                median(tracer.durations("track.on_tick")) / 1e3, "us");
    metrics.add("track.retunes", static_cast<double>(report_.retune_count),
                "count");
    metrics.add("track.retune_airtime_s", report_.retune_airtime_s, "s");
    metrics.add("fault.dropped_measurements",
                static_cast<double>(report_.dropped_measurements), "count");
    metrics.add("fault.reassignments",
                static_cast<double>(report_.reassignments), "count");
    metrics.add("fault.health_transitions",
                static_cast<double>(report_.health_transitions), "count");
  }

  [[nodiscard]] double trace_overhead() const override {
    return median(traced_ms_) / median(untraced_ms_) - 1.0;
  }

 private:
  [[nodiscard]] track::PolicyFactory make_policy() const {
    return [this] {
      return std::make_unique<fault::ResilientPolicy>(*book_, policy_options_);
    };
  }

  core::FaultDrillScenario scenario_;
  std::unique_ptr<codebook::Codebook> book_;
  fault::ResilientPolicy::Options policy_options_;
  std::unique_ptr<track::FleetTracker> tracker_;
  std::vector<double> untraced_ms_;
  std::vector<double> traced_ms_;
  std::string reference_;
  std::uint64_t run_id_ = 0;
  std::uint64_t traced_runs_ = 0;
  track::FleetReport report_;
};

}  // namespace

std::unique_ptr<Section> make_fault_section() {
  return std::make_unique<FaultSection>();
}

}  // namespace perfbench
