// Shared plumbing of the repository benchmark: the wall clock, the
// in-memory span recorder of the traced run, sample statistics and the
// metric sink every section reports into.
//
// The benchmark measures the library from outside: sections call public
// functions and time those calls. Spans are recorded only by benchmark
// code, around calls into a layer, and only when the run is traced.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Independent input seed for one stream of a run (splitmix64 of the
/// workload seed and a per-stream constant).
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One named measurement with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric sink; a section appends, main prints.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Span recorder of the traced run: name, start, end, parent and op or
/// request id, kept in memory and written out once at the end. A disabled
/// recorder (the untraced run) records nothing and costs one branch.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its handle (kNoParent when disabled or full).
  std::uint32_t begin(const char* name, std::uint64_t id,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t handle);
  /// Records an already-timed span.
  void record(const char* name, std::uint64_t id, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint32_t parent = kNoParent);

  /// Durations [ns] of every closed span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes every span as one JSON object per line, with its self time
  /// (duration minus the part its child spans cover); false on I/O
  /// failure.
  bool write_jsonl(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 4'000'000;

  [[nodiscard]] std::uint32_t intern(const char* name);

  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id,
             std::uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer), handle_(tracer.begin(name, id, parent)) {}
  ~ScopedSpan() { tracer_.end(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t handle() const { return handle_; }

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

/// Outcome accounting shared by every section.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// One part of the system under test. A run builds every section, then
/// interleaves short measuring steps of all sections until its time is up
/// (so every metric samples the whole run), then checks outputs and
/// reports metrics.
class Section {
 public:
  virtual ~Section() = default;
  Section() = default;
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

  /// Builds the section's fixtures (timed as set-up).
  virtual void setup(std::uint64_t seed) = 0;
  /// Derives the run's inputs from the workload seed and clears the
  /// previous run's samples.
  virtual void begin(std::uint64_t seed) = 0;
  /// Measures for about budget_s seconds (at least one unit of work).
  virtual void step(double budget_s, bool traced, Tracer& tracer,
                    Tally& tally) = 0;
  /// Traced run only: per-layer probes after the measuring window.
  virtual void probe(Tracer& tracer, Tally& tally) = 0;
  /// Untimed correctness checks against reference runs.
  virtual void check(Tally& tally) = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  /// speed_scale converts a time measured in this run to the reference host
  /// speed; end-to-end compute times are multiplied by it.
  virtual void report(bool trace, const Tracer& tracer, double speed_scale,
                      Metrics& metrics) const = 0;
  /// Traced run only: traced over untraced value of the section's headline
  /// time metric, minus one.
  [[nodiscard]] virtual double trace_overhead() const = 0;
};

std::unique_ptr<Section> make_serve_section();
std::unique_ptr<Section> make_offline_section();
std::unique_ptr<Section> make_fault_section();

}  // namespace perfbench
