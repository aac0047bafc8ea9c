// ServeRuntime — the thread-per-core serving layer: N worker shards, each
// pinned and exclusively owning a partition of device state, fed by
// bounded MPMC queues, fronted by admission control.
//
// Life cycle:  build fleet -> ServeRuntime(topology, fleet) -> start() ->
// submit() stream (one submitter thread) -> stop() -> ServeReport.
//
// submit() routes a request to its owner shard's queue and applies the
// topology's admission ladder against that queue's occupancy: shed
// (rejected outright, answered with the shed sentinel) above shed_depth,
// retunes downgraded to codebook lookups above degrade_depth, and a
// physically full queue sheds unconditionally (with admission disabled via
// AdmissionConfig::unlimited() it back-pressures the submitter instead —
// nothing is ever shed in that mode). Every submitted request
// gets exactly one response — ok, degraded, or shed — which stop()
// verifies by waiting for the in-flight counter to drain before closing
// the queues; no request is lost or answered twice, even at overload.
//
// Determinism contract: a device's requests reach its owner shard in
// submission order (per-producer FIFO queues, single submitter) and are
// served against state only that shard touches, so with admission
// disabled (AdmissionConfig::unlimited()) the multiset of response
// payloads — summarized by the report's payload fingerprint — is
// byte-identical for any shard count and any interleaving under a fixed
// generator seed. Latencies are real wall-clock measurements and are, of
// course, not deterministic; they are reported separately and never fold
// into the fingerprint.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/channel/antenna.h"
#include "src/codebook/codebook.h"
#include "src/common/units.h"
#include "src/core/llama_system.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/request.h"
#include "src/serve/serve_topology.h"
#include "src/serve/worker_shard.h"

namespace llama::deploy {
struct DeploymentConfig;
struct DeviceSpec;
}  // namespace llama::deploy
namespace llama::codebook {
struct CompilerOptions;
}  // namespace llama::codebook

namespace llama::serve {

/// The serving runtime's state bundle: one LlamaSystem per device (indexed
/// by device id), the shared immutable codebook every shard looks up, and
/// the antenna template retunes re-orient.
struct ServingFleet {
  std::vector<std::unique_ptr<core::LlamaSystem>> systems;
  std::shared_ptr<const codebook::Codebook> book;
  channel::Antenna rx_template =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  common::Frequency frequency = common::Frequency::ghz(2.44);
  /// Initial per-device orientations (same index as systems).
  std::vector<common::Angle> orientations;
};

/// Builds the fleet for a deployment roster: per-device systems via
/// core::device_system_config and one codebook compiled for the shared
/// link configuration (rx orientation is the codebook's query axis, so a
/// single compile serves every device). The second overload takes explicit
/// compiler options; the first compiles a single-frequency axis at the
/// deployment frequency with default lattice pitch. Both throw
/// std::invalid_argument on an empty roster or a non-empty
/// deployment.layout (the codebook hash and the plants cover the ring
/// model only).
[[nodiscard]] ServingFleet build_serving_fleet(
    const deploy::DeploymentConfig& deployment,
    const std::vector<deploy::DeviceSpec>& devices);
[[nodiscard]] ServingFleet build_serving_fleet(
    const deploy::DeploymentConfig& deployment,
    const std::vector<deploy::DeviceSpec>& devices,
    const codebook::CompilerOptions& compile);

/// Merged outcome of one serving window.
struct ServeReport {
  std::uint64_t submitted = 0;  ///< submit() calls (+ test injections)
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;   ///< retunes served as lookups
  std::uint64_t shed = 0;       ///< submit-side + forward + error sheds
  std::uint64_t forwarded = 0;  ///< misrouted requests passed to owners
  std::uint64_t errors = 0;
  /// start() to drained [s]; the serving window the rates refer to.
  double elapsed_s = 0.0;
  /// Successfully served (ok + degraded) per second of the window.
  double achieved_rps = 0.0;
  /// Served-request latency (submit to response), merged over shards.
  LatencyHistogram latency;
  /// Order-independent sum of every response's payload_hash() — the
  /// determinism gate's fingerprint.
  std::uint64_t payload_fingerprint = 0;
  /// Every response, when ServeTopology::keep_responses; empty otherwise.
  std::vector<Response> responses;
  /// First worker-side per-request error (empty on a clean run).
  std::string first_error;

  /// submitted == ok + degraded + shed: every request answered once.
  [[nodiscard]] bool conserved() const {
    return submitted == ok + degraded + shed;
  }
};

class ServeRuntime {
 public:
  /// Validates the topology and partitions the fleet across shards
  /// (device d owned by shard d % n_shards). Throws std::invalid_argument
  /// on a degenerate topology or an empty fleet.
  ServeRuntime(ServeTopology topology, ServingFleet fleet);
  /// Joins any still-running shard threads (draining is stop()'s job; a
  /// destructor without stop() abandons queued requests).
  ~ServeRuntime();

  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  /// Spawns the shard threads. Throws std::logic_error when already
  /// started.
  void start();

  /// Admission outcome of one submission.
  enum class Admit { kEnqueued, kDegraded, kShed };

  /// Routes, admits and enqueues one request; stamps submit_ns. Call from
  /// ONE submitter thread at a time (the open-loop generator) between
  /// start() and stop(). Throws std::logic_error outside that window,
  /// std::out_of_range for a device id beyond the fleet, and
  /// std::invalid_argument for a non-finite frequency or orientation (the
  /// request is neither counted nor admitted).
  Admit submit(Request request);

  /// Test hook: enqueue onto an explicit shard's queue, bypassing the
  /// router — how the forwarding path (wrong-shard request reaches its
  /// owner without locks) is exercised. Returns false when that queue is
  /// full. Same threading contract as submit().
  bool inject_misrouted(std::size_t shard, Request request);

  /// Drains in-flight requests, closes the queues, joins the shards and
  /// returns the merged report. Throws std::logic_error when not started.
  [[nodiscard]] ServeReport stop();

  [[nodiscard]] const ServeTopology& topology() const { return topology_; }
  [[nodiscard]] std::size_t device_count() const { return n_devices_; }
  /// Racy occupancy of one shard's queue (admission-control telemetry).
  [[nodiscard]] std::size_t queue_depth(std::size_t shard) const;

 private:
  void record_submit_shed(const Request& request);

  ServeTopology topology_;
  std::shared_ptr<const codebook::Codebook> book_;
  std::size_t n_devices_ = 0;
  std::vector<std::unique_ptr<WorkerShard>> shards_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> accepting_{false};
  bool started_ = false;
  bool finished_ = false;  // queues are one-shot; no restart after stop()
  std::uint64_t start_ns_ = 0;
  // Submitter-side tallies (single submitter thread; see submit()).
  std::uint64_t submitted_ = 0;
  std::uint64_t submit_shed_ = 0;
  std::uint64_t submit_degraded_ = 0;
  std::uint64_t submit_fingerprint_ = 0;
  std::vector<Response> submit_responses_;
};

}  // namespace llama::serve
