// Serving-runtime bench: seeded Poisson open-loop load through the
// thread-per-core shard runtime. Four phases, one JSON line each:
//
//   serving_determinism       the same retune-heavy schedule through 1, 2
//                             and 4 shards with admission disabled;
//                             `deterministic` says the payload fingerprints
//                             were identical for every shard count.
//   serving_read_heavy        unpaced (max-throughput) YCSB-style
//                             read-heavy mix through 4 shards: achieved vs
//                             offered rps — the CI throughput floor.
//   serving_read_heavy_paced  the same mix paced at a modest open-loop
//                             rate, so latency is service time rather than
//                             saturation queueing: p50/p99/p999 — the CI
//                             p99 ceiling.
//   serving_overload          a retune-heavy flood into shallow rings with
//                             a tight admission ladder: shed and degraded
//                             must both engage, with every submitted
//                             request conserved (answered exactly once).
#include <cstdio>
#include <string>

#include "bench/bench_harness.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/serve/load_generator.h"
#include "src/serve/serve_runtime.h"

using namespace llama;

namespace {

/// Coarse-but-representative compile (3 V bias pitch, full 5 deg
/// orientation lattice) so fleet builds don't dominate the bench.
codebook::CompilerOptions bench_compile() {
  codebook::CompilerOptions options;
  options.n_frequencies = 1;
  options.v_step = common::Voltage{3.0};
  options.top_k = 1;
  return options;
}

serve::ServingFleet make_fleet(const core::ServingScenario& scenario) {
  return serve::build_serving_fleet(scenario.config, scenario.devices,
                                    bench_compile());
}

struct RunOutcome {
  serve::OfferedLoad offered;
  serve::ServeReport report;
};

RunOutcome run_serving(const core::ServingScenario& scenario,
                       const serve::ServeTopology& topology,
                       const serve::LoadGeneratorConfig& load, bool paced) {
  const std::vector<serve::TimedRequest> schedule =
      serve::generate_schedule(load);
  serve::ServeRuntime runtime(topology, make_fleet(scenario));
  runtime.start();
  RunOutcome out;
  out.offered = serve::drive(runtime, schedule, paced);
  out.report = runtime.stop();
  return out;
}

/// One serving window as a BenchResult: ns_per_op is per SERVED request,
/// probes_per_s the achieved serving rate.
bench::BenchResult as_result(std::string name,
                             const serve::ServeReport& report) {
  bench::BenchResult result;
  result.name = std::move(name);
  result.iterations = static_cast<long>(report.ok + report.degraded);
  result.ops_per_s = report.achieved_rps;
  result.ns_per_op =
      report.achieved_rps > 0.0 ? 1e9 / report.achieved_rps : 0.0;
  return result;
}

std::string bool_json(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::parse_args(argc, argv);

  const core::ServingScenario scenario = core::serving_scenario();

  // Phase 1: payload determinism across shard counts (admission disabled,
  // unpaced — every request served, fingerprint a pure schedule function).
  serve::LoadGeneratorConfig determinism_load = scenario.retune_heavy;
  determinism_load.duration_s = 0.05;
  bool deterministic = true;
  std::uint64_t reference_fingerprint = 0;
  serve::ServeReport four_shard_report;
  for (std::size_t n_shards : {1u, 2u, 4u}) {
    serve::ServeTopology topology = scenario.topology;
    topology.n_shards = n_shards;
    topology.admission = serve::AdmissionConfig::unlimited();
    RunOutcome out =
        run_serving(scenario, topology, determinism_load, /*paced=*/false);
    if (n_shards == 1u)
      reference_fingerprint = out.report.payload_fingerprint;
    else if (out.report.payload_fingerprint != reference_fingerprint)
      deterministic = false;
    if (out.report.shed != 0 || !out.report.conserved() ||
        !out.report.first_error.empty())
      deterministic = false;
    if (n_shards == 4u) four_shard_report = out.report;
  }
  bench::print_result(
      as_result("serving_determinism", four_shard_report), json,
      ",\"deterministic\":" + bool_json(deterministic) +
          ",\"shards_checked\":3,\"requests\":" +
          std::to_string(four_shard_report.submitted) +
          bench::threads_extra_json(4));
  if (!json)
    std::printf("  -> fingerprints across 1/2/4 shards: %s\n",
                deterministic ? "identical" : "DIVERGED");

  // Phase 2: read-heavy max throughput, 4 shards, deep queues.
  {
    serve::ServeTopology topology = scenario.topology;
    topology.admission = serve::AdmissionConfig::unlimited();
    const RunOutcome out =
        run_serving(scenario, topology, scenario.read_heavy, /*paced=*/false);
    bench::print_result(
        as_result("serving_read_heavy", out.report), json,
        bench::latency_extra_json(out.report.latency) +
            ",\"offered_rps\":" + std::to_string(out.offered.offered_rps) +
            ",\"achieved_rps\":" + std::to_string(out.report.achieved_rps) +
            ",\"shards\":4,\"ok\":" + std::to_string(out.report.ok) +
            ",\"conserved\":" + bool_json(out.report.conserved()) +
            bench::threads_extra_json(4));
  }

  // Phase 3: the same mix paced open-loop well below saturation, so the
  // percentiles measure service latency, not queue-full waiting.
  {
    serve::ServeTopology topology = scenario.topology;
    serve::LoadGeneratorConfig load = scenario.read_heavy;
    load.rate_hz = 2'000.0;
    const RunOutcome out =
        run_serving(scenario, topology, load, /*paced=*/true);
    bench::print_result(
        as_result("serving_read_heavy_paced", out.report), json,
        bench::latency_extra_json(out.report.latency) +
            ",\"offered_rps\":" + std::to_string(out.offered.offered_rps) +
            ",\"achieved_rps\":" + std::to_string(out.report.achieved_rps) +
            ",\"shed\":" + std::to_string(out.report.shed) +
            ",\"conserved\":" + bool_json(out.report.conserved()) +
            bench::threads_extra_json(4));
  }

  // Phase 4: overload — shallow rings, tight admission, retune-heavy
  // flood. Both admission tiers must engage; nothing may be lost.
  {
    serve::LoadGeneratorConfig load = scenario.overload;
    load.duration_s = 0.1;
    const RunOutcome out = run_serving(scenario, scenario.overload_topology,
                                       load, /*paced=*/false);
    bench::print_result(
        as_result("serving_overload", out.report), json,
        ",\"offered_rps\":" + std::to_string(out.offered.offered_rps) +
            ",\"ok\":" + std::to_string(out.report.ok) +
            ",\"degraded\":" + std::to_string(out.report.degraded) +
            ",\"shed\":" + std::to_string(out.report.shed) +
            ",\"forwarded\":" + std::to_string(out.report.forwarded) +
            ",\"conserved\":" + bool_json(out.report.conserved()) +
            bench::threads_extra_json(static_cast<int>(
                scenario.overload_topology.n_shards)));
    if (!json)
      std::printf("  -> overload: ok %llu, degraded %llu, shed %llu (%s)\n",
                  static_cast<unsigned long long>(out.report.ok),
                  static_cast<unsigned long long>(out.report.degraded),
                  static_cast<unsigned long long>(out.report.shed),
                  out.report.conserved() ? "conserved" : "LOST REQUESTS");
  }
  return 0;
}
