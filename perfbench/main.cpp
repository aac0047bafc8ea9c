// Repository benchmark driver.
//
//   perfbench --workload <serve_retune|offline_round>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// The result line carries every end-to-end metric, so every run builds and
// measures all three sections (serving runtime, offline round, fault-tracked
// fleet). Each round gives the workload's own section 60% of its time, the
// other path 30% and the fault-tracked fleet, whose only end-to-end metric
// is deterministic, 10%. Set-up is timed once for the measured sections and
// once more per round on a fresh, discarded set, and reported as its median.
// Before every step a fixed reference kernel is timed; set-up and the
// offline ops are reported scaled to the reference host speed.
// After the measuring window each section checks its outputs against
// reference runs (1-shard replay, 1-worker runs, dense city). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::uint32_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t id,
                            std::uint32_t parent) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return kNoParent;
  Span span;
  span.name = intern(name);
  span.parent = parent;
  span.id = id;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t handle) {
  if (handle == kNoParent) return;
  spans_[handle].end_ns = now_ns();
}

void Tracer::record(const char* name, std::uint64_t id,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t parent) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return;
  spans_.push_back({intern(name), parent, id, start_ns, end_ns});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (names_[s.name] == name && s.end_ns >= s.start_ns && s.end_ns != 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  // Self time: duration minus the union of the children's intervals.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    out << "{\"span\":" << i << ",\"name\":\"" << names_[s.name]
        << "\",\"id\":" << s.id << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << (s.end_ns - s.start_ns - covered)
        << ",\"parent\":";
    if (s.parent == kNoParent)
      out << "null";
    else
      out << s.parent;
    out << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

/// Shares of each round's measuring time: the workload's own section, the
/// other path's section, and the fault-tracked fleet.
constexpr double kOwnShare = 0.6;
constexpr double kOtherShare = 0.3;
constexpr double kFaultShare = 0.1;
constexpr const char* kFaultSection = "fault_track";
/// One round gives every section one step; rounds repeat until the run's
/// time is up, so each metric samples the whole run rather than one slice
/// of it (neighbours on a shared VM come and go on a scale of seconds).
constexpr double kRoundS = 2.0;
constexpr double kWarmupS = 2.0;
/// Reference kernel timings taken before every section step.
constexpr int kReferenceReps = 4;
/// Reference kernel time at the reference host speed [ns]: a round value
/// inside the 140-250 us it took between runs on the 4-vCPU Xeon VM the
/// benchmark was tuned on.
constexpr double kReferenceNs = 200'000.0;

/// Wall time [ns] of a fixed, cache-resident double-precision kernel owned
/// by the benchmark: complex rotations plus a sine per lane, the kind of
/// arithmetic the library's response and sweep code does. The shared host's
/// speed drifts by up to 40% over minutes, on all vCPUs together; over 24
/// runs the library's offline ops spread 0.36-0.44 (IQR over median) while
/// their ratios to each other spread 0.01-0.06. Over ten runs the offline
/// ops and set-up spread 0.12-0.15 as measured and 0.04-0.06 divided by
/// this kernel's time. The serving metrics did not move with it and are
/// not scaled.
double reference_ns() {
  constexpr int kLanes = 256;
  constexpr int kSteps = 64;
  std::complex<double> lanes[kLanes];
  for (int i = 0; i < kLanes; ++i) lanes[i] = {1.0 + 1e-3 * i, 0.5};
  const std::complex<double> turn = std::polar(1.0, 1e-3);
  const std::uint64_t t0 = now_ns();
  for (int step = 0; step < kSteps; ++step)
    for (std::complex<double>& z : lanes)
      z = z * turn + std::complex<double>(1e-3 * std::sin(z.real()), 0.0);
  const std::uint64_t t1 = now_ns();
  volatile double sink = lanes[kLanes - 1].real();
  (void)sink;
  return static_cast<double>(t1 - t0);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_retune|offline_round> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0)
        usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "serve_retune" && args.workload != "offline_round")
    usage("unknown or missing --workload");
  if (!have_seed || !have_seconds) usage("--seed and --seconds are required");
  return args;
}

/// Peak resident set of this process [MB].
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::string line = "{\"correct\":";
  line += tally.failed == 0 ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(tally.attempted);
  line += ",\"failed\":" + std::to_string(tally.failed);
  line += ",\"metrics\":{";
  bool first = true;
  char value[64];
  for (const Metric& m : metrics.items()) {
    // %.17g keeps every digit; non-finite values are not JSON numbers.
    if (std::isfinite(m.value))
      std::snprintf(value, sizeof value, "%.17g", m.value);
    else
      std::snprintf(value, sizeof value, "null");
    if (!first) line += ",";
    first = false;
    line += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  using Sections =
      std::vector<std::pair<std::string, std::unique_ptr<Section>>>;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    Sections fresh;
    fresh.emplace_back("serve_retune", make_serve_section());
    fresh.emplace_back("offline_round", make_offline_section());
    fresh.emplace_back(kFaultSection, make_fault_section());
    const std::uint64_t t0 = now_ns();
    for (auto& [name, section] : fresh) section->setup(args.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return fresh;
  };
  Sections sections = set_up();

  Tally tally;
  Tracer tracer(args.trace);
  const auto begin_all = [&] {
    for (auto& [name, section] : sections) section->begin(args.seed);
  };
  // One step of a section; a throw counts as a failed op.
  const auto step = [&](const std::string& name, Section& section,
                        double budget_s, bool traced, Tracer& into) {
    try {
      section.step(budget_s, traced, into, tally);
    } catch (const std::exception& e) {
      tally.check(false, name + " step threw: " + e.what());
    }
  };
  // Warm-up round, discarded: the first second of a process measured
  // markedly slower (compile and city evaluation ~1.6x), which would
  // otherwise land in the first samples.
  {
    Tracer off(false);
    begin_all();
    for (auto& [name, section] : sections)
      step(name, *section, kWarmupS / static_cast<double>(sections.size()),
           false, off);
  }
  begin_all();
  std::vector<double> reference;
  const double round_s = std::min(kRoundS, args.seconds);
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  int round = 0;
  do {
    // One more set-up sample per round: a set-up takes ~0.1 s, and samples
    // spread over the run see the same host as the other metrics, where
    // back-to-back ones would see one moment of it.
    (void)set_up();
    // The traced run alternates traced and untraced rounds: their ratio
    // is the tracing overhead.
    const bool traced = args.trace && round % 2 == 1;
    for (auto& [name, section] : sections) {
      const double share = name == args.workload   ? kOwnShare
                           : name == kFaultSection ? kFaultShare
                                                   : kOtherShare;
      for (int rep = 0; rep < kReferenceReps; ++rep)
        reference.push_back(reference_ns());
      step(name, *section, round_s * share, traced, tracer);
    }
    ++round;
  } while (round < 2 || now_ns() < end);
  if (args.trace)
    for (auto& [name, section] : sections) section->probe(tracer, tally);
  const double rss_mb = peak_rss_mb();

  for (auto& [name, section] : sections) {
    try {
      section->check(tally);
    } catch (const std::exception& e) {
      tally.check(false, name + " check threw: " + e.what());
    }
  }
  for (const std::string& failure : tally.failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());

  // Converts a time measured in this run to the reference host speed.
  const double speed_scale = kReferenceNs / median(reference);
  Metrics metrics;
  if (args.trace) {
    metrics.add("host.reference_us", median(reference) / 1e3, "us");
    for (auto& [name, section] : sections)
      section->report(true, tracer, speed_scale, metrics);
    for (auto& [name, section] : sections)
      if (name == args.workload)
        metrics.add("trace.overhead_frac", section->trace_overhead(),
                    "ratio");
    if (!args.trace_out.empty() && !tracer.write_jsonl(args.trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
  } else {
    metrics.add("setup_s", median(setup_s) * speed_scale, "s");
    metrics.add("peak_rss_mb", rss_mb, "MB");
    for (auto& [name, section] : sections)
      section->report(false, tracer, speed_scale, metrics);
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
