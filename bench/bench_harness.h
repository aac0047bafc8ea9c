// Tiny self-contained timing harness for the bench executables.
//
// Every bench that reports performance supports a `--json` flag: instead of
// human-readable tables it emits one machine-readable line per measurement,
//
//   {"name":"stack_transmission","ns_per_op":1234.5,"probes_per_s":810000.0}
//
// which CI collects as the repo's performance trajectory. Keys are stable;
// benches may append extra keys (e.g. "speedup_vs_unbatched").
//
// `--out <file>` additionally APPENDS the JSON lines to <file>, regardless
// of the console mode — so one CI job can run several benches with a shared
// `--out trajectory.jsonl` and archive the concatenated trajectory as a
// single artifact while keeping human-readable console output. Every bench
// calls parse_args(argc, argv) once at startup.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "src/serve/latency_histogram.h"

namespace llama::bench {

struct BenchResult {
  std::string name;
  double ns_per_op = 0.0;
  double ops_per_s = 0.0;
  long iterations = 0;
};

/// The shared JSON side-channel opened by parse_args(); nullptr when no
/// `--out` flag was given.
inline std::FILE*& out_stream() {
  static std::FILE* stream = nullptr;
  return stream;
}

/// Parses the only flags a bench accepts, `--json` and `--out <file>`, and
/// returns whether `--json` was given. `--out` opens the file in append
/// mode so consecutive bench runs accumulate one trajectory; print_result
/// then mirrors every JSON line there. Any other argument, or `--out`
/// without a path or given twice, exits 2 naming it, so a typo'd flag
/// cannot fall back to the human-readable table; an unopenable file exits 1.
inline bool parse_args(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc &&
               out_stream() == nullptr) {
      out_stream() = std::fopen(argv[++i], "a");
      if (out_stream() == nullptr) {
        std::fprintf(stderr, "%s: cannot open --out file '%s'\n", argv[0],
                     argv[i]);
        std::exit(1);
      }
    } else {
      std::fprintf(stderr, "%s: unexpected argument '%s' (usage: [--json] "
                   "[--out <file>])\n", argv[0], argv[i]);
      std::exit(2);
    }
  }
  return json;
}

/// Times `op` (one logical operation, e.g. one probe) until at least
/// `min_time_s` of wall clock has accumulated, after one untimed warmup.
template <typename Fn>
BenchResult run_bench(std::string name, Fn&& op, double min_time_s = 0.2,
                      long min_iterations = 3) {
  using clock = std::chrono::steady_clock;
  op();  // warmup: touch caches, build lazy plans
  long iterations = 0;
  const clock::time_point start = clock::now();
  double elapsed_s = 0.0;
  do {
    op();
    ++iterations;
    elapsed_s = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed_s < min_time_s || iterations < min_iterations);
  BenchResult result;
  result.name = std::move(name);
  result.iterations = iterations;
  result.ns_per_op = elapsed_s * 1e9 / static_cast<double>(iterations);
  result.ops_per_s = static_cast<double>(iterations) / elapsed_s;
  return result;
}

/// Stable latency keys as an extra_json fragment (starts with a comma):
/// ,"p50_us":...,"p99_us":...,"p999_us":... — shared by every bench that
/// reports a latency distribution (the serving runtime's merged request
/// histograms), so CI gates can parse one spelling everywhere.
inline std::string latency_extra_json(const serve::LatencyHistogram& h) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"p50_us\":%.2f,\"p99_us\":%.2f,\"p999_us\":%.2f",
                h.p50_ns() / 1e3, h.p99_ns() / 1e3, h.p999_ns() / 1e3);
  return buf;
}

/// Scaling keys as an extra_json fragment (starts with a comma):
/// ,"threads":N,"hw_cores":H — `threads` is the effective worker count the
/// measured section ran with and `hw_cores` the machine's hardware
/// concurrency. Scaling gates over bench_trajectory.jsonl need both: a
/// 1-core container's oversubscribed timings must not be judged against a
/// parallel-efficiency floor meant for real cores.
inline std::string threads_extra_json(int threads) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"threads\":%d,\"hw_cores\":%u", threads,
                std::thread::hardware_concurrency());
  return buf;
}

/// An extra_json fragment as text: ,"a":1.5,"b":true -> a=1.5 b=true.
/// Extras carry numbers and booleans only, so no value holds a quote,
/// comma or colon.
inline std::string extra_as_text(const std::string& extra_json) {
  std::string text;
  for (const char c : extra_json) {
    if (c == '"') continue;
    if (c == ',') {
      if (!text.empty()) text += ' ';
      continue;
    }
    text += c == ':' ? '=' : c;
  }
  return text;
}

/// Prints one result: a JSON line in json mode, aligned text otherwise.
/// `extra_json` (optional) is appended inside the JSON object and must
/// start with a comma, e.g. ",\"speedup_vs_unbatched\":12.5"; text mode
/// prints the same keys as key=value on an indented line below. When an
/// `--out` file is open (see parse_args) the JSON line is also appended
/// there, whatever the console mode.
inline void print_result(const BenchResult& r, bool json,
                         const std::string& extra_json = "") {
  if (json) {
    std::printf("{\"name\":\"%s\",\"ns_per_op\":%.1f,\"probes_per_s\":%.1f%s}\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_s, extra_json.c_str());
  } else {
    std::printf("%-36s %14.1f ns/op %14.1f ops/s   (%ld iters)\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_s, r.iterations);
    if (!extra_json.empty())
      std::printf("%-36s %s\n", "", extra_as_text(extra_json).c_str());
  }
  if (out_stream() != nullptr) {
    std::fprintf(out_stream(),
                 "{\"name\":\"%s\",\"ns_per_op\":%.1f,\"probes_per_s\":%.1f%s}\n",
                 r.name.c_str(), r.ns_per_op, r.ops_per_s, extra_json.c_str());
    std::fflush(out_stream());
  }
}

}  // namespace llama::bench
