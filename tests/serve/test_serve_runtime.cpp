// ServeRuntime end-to-end contracts: payload determinism across shard
// counts, lock-free forwarding of misrouted requests, admission engagement
// under overload with request conservation, and the lifecycle error
// surface.
#include "src/serve/serve_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/serve/load_generator.h"

namespace llama::serve {
namespace {

// Coarse-lattice compile so each test's fleet build stays in milliseconds;
// determinism only needs SOME codebook, not the full-resolution one.
codebook::CompilerOptions quick_compile() {
  codebook::CompilerOptions options;
  options.n_frequencies = 1;
  options.n_orientations = 13;
  options.v_step = common::Voltage{6.0};
  options.top_k = 1;
  return options;
}

core::ServingScenario small_scenario() {
  return core::serving_scenario(/*n_devices=*/8, /*m_surfaces=*/2);
}

ServingFleet make_fleet(const core::ServingScenario& scenario) {
  return build_serving_fleet(scenario.config, scenario.devices,
                             quick_compile());
}

std::vector<Response> sorted_by_id(std::vector<Response> responses) {
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  return responses;
}

std::optional<Response> find_by_id(const std::vector<Response>& responses,
                                   std::uint64_t id) {
  for (const Response& r : responses)
    if (r.id == id) return r;
  return std::nullopt;
}

TEST(ServeRuntime, PayloadsAreByteIdenticalForAnyShardCount) {
  const core::ServingScenario scenario = small_scenario();
  LoadGeneratorConfig load;
  load.seed = 7;
  load.rate_hz = 20'000.0;
  load.duration_s = 0.05;  // ~1000 requests
  load.n_devices = scenario.devices.size();
  load.frequency = scenario.config.frequency;
  load.mix = LoadMix::retune_heavy();  // mutate state, not just lookups
  const std::vector<TimedRequest> schedule = generate_schedule(load);
  ASSERT_GT(schedule.size(), 100u);

  std::optional<std::uint64_t> reference_fingerprint;
  std::vector<Response> reference;
  for (std::size_t n_shards : {1u, 2u, 4u}) {
    ServeTopology topology = scenario.topology;
    topology.n_shards = n_shards;
    // The determinism gate runs with admission DISABLED and unpaced
    // submission: every request is served, so the payload stream is a pure
    // function of the schedule.
    topology.admission = AdmissionConfig::unlimited();
    topology.keep_responses = true;
    topology.pin_threads = false;
    ServeRuntime runtime(topology, make_fleet(scenario));
    runtime.start();
    const OfferedLoad offered = drive(runtime, schedule, /*paced=*/false);
    const ServeReport report = runtime.stop();

    EXPECT_EQ(offered.submitted, schedule.size());
    EXPECT_EQ(report.submitted, schedule.size());
    EXPECT_TRUE(report.conserved());
    EXPECT_EQ(report.shed, 0u) << "unlimited admission must never shed";
    EXPECT_EQ(report.degraded, 0u);
    EXPECT_EQ(report.errors, 0u) << report.first_error;
    EXPECT_EQ(report.latency.count(), schedule.size());
    ASSERT_EQ(report.responses.size(), schedule.size());

    const std::vector<Response> responses = sorted_by_id(report.responses);
    if (!reference_fingerprint) {
      reference_fingerprint = report.payload_fingerprint;
      reference = responses;
      continue;
    }
    EXPECT_EQ(report.payload_fingerprint, *reference_fingerprint)
        << "payload fingerprint diverged at " << n_shards << " shards";
    ASSERT_EQ(responses.size(), reference.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].id, reference[i].id);
      EXPECT_EQ(responses[i].kind, reference[i].kind);
      EXPECT_EQ(responses[i].status, reference[i].status);
      // Byte-identical payloads, not merely close: the shard owning the
      // device runs the same deterministic pipeline in the same per-device
      // order whatever the shard count.
      EXPECT_EQ(responses[i].vx.value(), reference[i].vx.value());
      EXPECT_EQ(responses[i].vy.value(), reference[i].vy.value());
      EXPECT_EQ(responses[i].power.value(), reference[i].power.value());
      EXPECT_EQ(responses[i].counter, reference[i].counter);
    }
  }
}

TEST(ServeRuntime, MisroutedRequestIsForwardedToItsOwnerNotLost) {
  const core::ServingScenario scenario = small_scenario();
  ServeTopology topology = scenario.topology;
  topology.n_shards = 2;
  topology.admission = AdmissionConfig::unlimited();
  topology.keep_responses = true;
  topology.pin_threads = false;
  ServeRuntime runtime(topology, make_fleet(scenario));
  runtime.start();

  // Device 0 is owned by shard 0; inject its retune onto shard 1's queue.
  Request request;
  request.id = 77;
  request.kind = RequestKind::kRetune;
  request.device = 0;
  request.frequency = scenario.config.frequency;
  request.orientation = common::Angle::degrees(60.0);
  ASSERT_TRUE(runtime.inject_misrouted(1, request));
  const ServeReport report = runtime.stop();

  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.forwarded, 1u) << "wrong shard must forward, not serve";
  EXPECT_EQ(report.ok, 1u);
  EXPECT_TRUE(report.conserved());
  const std::optional<Response> response = find_by_id(report.responses, 77);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, ResponseStatus::kOk);
  EXPECT_EQ(response->counter, 1u);  // the owner really executed the retune
}

TEST(ServeRuntime, OverloadEngagesAdmissionWithoutLosingRequests) {
  const core::ServingScenario scenario = small_scenario();
  LoadGeneratorConfig load = scenario.overload;
  load.duration_s = 0.05;  // ~2500 requests, plenty to flood 64-deep rings
  const std::vector<TimedRequest> schedule = generate_schedule(load);
  ASSERT_GT(schedule.size(), 500u);

  ServeTopology topology = scenario.overload_topology;
  topology.pin_threads = false;
  ServeRuntime runtime(topology, make_fleet(scenario));
  runtime.start();
  const OfferedLoad offered = drive(runtime, schedule, /*paced=*/false);
  const ServeReport report = runtime.stop();  // must drain, not deadlock

  EXPECT_EQ(report.submitted, schedule.size());
  EXPECT_TRUE(report.conserved())
      << "submitted=" << report.submitted << " ok=" << report.ok
      << " degraded=" << report.degraded << " shed=" << report.shed;
  EXPECT_GT(report.shed, 0u) << "flooding shallow rings must shed";
  EXPECT_GT(report.degraded, 0u)
      << "retune-heavy flood must pass through the degrade tier";
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.errors, 0u) << report.first_error;
  EXPECT_LE(offered.shed, report.shed)
      << "submit-side sheds are a subset of all sheds";
  EXPECT_GT(offered.shed, 0u);
  EXPECT_GT(report.achieved_rps, 0.0);
}

TEST(ServeRuntime, RetuneMeasureAndFleetQueryAgreeOnOwnedState) {
  const core::ServingScenario scenario = small_scenario();
  ServeTopology topology = scenario.topology;
  topology.n_shards = 1;
  topology.admission = AdmissionConfig::unlimited();
  topology.keep_responses = true;
  topology.pin_threads = false;
  ServeRuntime runtime(topology, make_fleet(scenario));
  runtime.start();

  Request request;
  request.device = 3;
  request.frequency = scenario.config.frequency;
  request.orientation = common::Angle::degrees(70.0);
  request.id = 1;
  request.kind = RequestKind::kRetune;
  ASSERT_NE(runtime.submit(request), ServeRuntime::Admit::kShed);
  request.id = 2;
  request.kind = RequestKind::kMeasure;
  ASSERT_NE(runtime.submit(request), ServeRuntime::Admit::kShed);
  request.id = 3;
  request.kind = RequestKind::kFleetQuery;
  ASSERT_NE(runtime.submit(request), ServeRuntime::Admit::kShed);
  request.id = 4;
  request.kind = RequestKind::kCodebookLookup;
  ASSERT_NE(runtime.submit(request), ServeRuntime::Admit::kShed);
  const ServeReport report = runtime.stop();

  ASSERT_EQ(report.responses.size(), 4u);
  const std::optional<Response> retune = find_by_id(report.responses, 1);
  const std::optional<Response> measure = find_by_id(report.responses, 2);
  const std::optional<Response> fleet = find_by_id(report.responses, 3);
  const std::optional<Response> lookup = find_by_id(report.responses, 4);
  ASSERT_TRUE(retune && measure && fleet && lookup);
  // Per-device FIFO: the retune happened first, so every later read sees
  // the programmed state.
  EXPECT_EQ(retune->counter, 1u);
  EXPECT_EQ(measure->counter, 1u);
  EXPECT_EQ(fleet->counter, 1u);
  EXPECT_EQ(measure->vx.value(), retune->vx.value());
  EXPECT_EQ(measure->vy.value(), retune->vy.value());
  // Same state, same deterministic measurement model: exactly equal.
  EXPECT_EQ(measure->power.value(), retune->power.value());
  EXPECT_EQ(fleet->power.value(), retune->power.value());
  // The retune programmed what the codebook holds for (f, 70 deg): the
  // supply echoes the commanded pair, so the lookup agrees bit-for-bit.
  EXPECT_EQ(lookup->vx.value(), retune->vx.value());
  EXPECT_EQ(lookup->vy.value(), retune->vy.value());
}

TEST(ServeRuntime, LifecycleAndValidationContracts) {
  const core::ServingScenario scenario = small_scenario();
  {
    ServeTopology bad = scenario.topology;
    bad.queue_depth = 100;  // not a power of two
    EXPECT_THROW(ServeRuntime(bad, make_fleet(scenario)),
                 std::invalid_argument);
  }
  ServeTopology topology = scenario.topology;
  topology.pin_threads = false;
  ServeRuntime runtime(topology, make_fleet(scenario));
  Request request;
  request.device = 0;
  EXPECT_THROW((void)runtime.submit(request), std::logic_error);
  EXPECT_THROW((void)runtime.stop(), std::logic_error);
  runtime.start();
  EXPECT_THROW(runtime.start(), std::logic_error);
  request.device = scenario.devices.size();  // one past the fleet
  EXPECT_THROW((void)runtime.submit(request), std::out_of_range);
  // A non-finite query is rejected before admission instead of being
  // answered kOk with a NaN payload.
  request.device = 0;
  for (const RequestKind kind :
       {RequestKind::kCodebookLookup, RequestKind::kRetune}) {
    request.kind = kind;
    request.frequency =
        common::Frequency{std::numeric_limits<double>::quiet_NaN()};
    EXPECT_THROW((void)runtime.submit(request), std::invalid_argument);
    request.frequency = common::Frequency::ghz(2.44);
    request.orientation =
        common::Angle::radians(std::numeric_limits<double>::infinity());
    EXPECT_THROW((void)runtime.submit(request), std::invalid_argument);
    request.orientation = common::Angle::degrees(0.0);
  }
  const ServeReport report = runtime.stop();
  EXPECT_EQ(report.submitted, 0u);
  EXPECT_THROW(runtime.start(), std::logic_error);  // one-shot
  EXPECT_THROW((void)runtime.submit(request), std::logic_error);
}

// The serving fleet compiles a ring-model codebook and builds ring-model
// plants, so a city layout it would silently ignore is rejected, naming
// the field.
TEST(ServeRuntime, BuildServingFleetRejectsALayout) {
  core::ServingScenario scenario = small_scenario();
  scenario.config.layout = core::city_scale_scenario(2, 1).config.layout;
  ASSERT_EQ(scenario.config.layout.positions.size(),
            scenario.config.n_surfaces);
  try {
    (void)make_fleet(scenario);
    ADD_FAILURE() << "a non-empty layout was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("layout"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace llama::serve
