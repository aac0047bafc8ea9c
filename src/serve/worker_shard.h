// One pinned worker shard of the serving runtime: a bounded MPMC request
// queue plus EXCLUSIVE ownership of a partition of device state.
//
// The shard-ownership rule (the subsystem's correctness backbone, per the
// stateful-chained-NF argument in PAPERS.md): device d is owned by shard
// d % n_shards; the owner's thread is the only thread that ever reads or
// writes d's LlamaSystem, programmed bias, or counters. That is group
// ownership: a serving fleet runs the ring model, whose
// deploy::partition_fleet groups are singletons in roster order. Cross-shard
// requests are FORWARDED to the owner's queue, never served under a lock —
// there is no mutex to take, by design and by lint (rule
// `serve-hot-path-blocking` forbids blocking primitives anywhere in
// src/serve). With per-producer FIFO queues this makes every device's
// request stream arrive at its owner in submission order, so response
// payloads are a pure function of the generated schedule: byte-identical
// for any shard count and any thread interleaving.
//
// Everything the shard accumulates (latency histogram, counters, response
// log) is single-writer and read by the runtime only after the shard
// thread has joined.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/channel/antenna.h"
#include "src/common/units.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/mpmc_queue.h"
#include "src/serve/request.h"

namespace llama::codebook {
class Codebook;
}  // namespace llama::codebook
namespace llama::core {
class LlamaSystem;
}  // namespace llama::core

namespace llama::serve {

/// Best-effort affinity pin of the calling thread (no-op off Linux or on
/// failure — correctness never depends on placement, only tail latency).
void pin_current_thread(std::size_t core);

class WorkerShard {
 public:
  /// Single-writer tallies of one shard's run.
  struct Counters {
    std::uint64_t served = 0;     ///< responses recorded (ok + degraded + shed)
    std::uint64_t ok = 0;
    std::uint64_t degraded = 0;   ///< retunes served as lookups
    std::uint64_t shed = 0;       ///< forward-shed (owner queue full/closed)
    std::uint64_t forwarded = 0;  ///< misrouted requests passed to the owner
    std::uint64_t errors = 0;
  };

  /// Everything a shard thread needs beyond its own state: the peer queues
  /// (forwarding targets), the runtime's in-flight counter, and whether to
  /// retain full responses. All pointers outlive the run.
  struct RunContext {
    std::vector<MpmcQueue<Request>*> queues;
    std::atomic<std::uint64_t>* in_flight = nullptr;
    bool keep_responses = false;
    bool pin = false;
  };

  /// The codebook is shared, immutable and lock-free; rx_template is the
  /// unoriented device antenna every retune re-orients.
  WorkerShard(std::size_t shard_id, std::size_t n_shards,
              std::size_t queue_depth, const codebook::Codebook& book,
              channel::Antenna rx_template);
  ~WorkerShard();

  WorkerShard(const WorkerShard&) = delete;
  WorkerShard& operator=(const WorkerShard&) = delete;

  /// Hands the shard a device it owns. Throws std::invalid_argument when
  /// the device id does not belong to this shard (id % n_shards) or
  /// devices are adopted out of order.
  void adopt_device(std::size_t device_id,
                    std::unique_ptr<core::LlamaSystem> system,
                    common::Angle orientation);

  [[nodiscard]] std::size_t shard_id() const { return shard_id_; }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] bool owns(std::size_t device_id) const;
  [[nodiscard]] MpmcQueue<Request>& queue() { return queue_; }
  [[nodiscard]] const MpmcQueue<Request>& queue() const { return queue_; }

  /// The shard thread's body: drains the queue until it is closed and
  /// empty, serving owned requests and forwarding misrouted ones. Must run
  /// on exactly one thread at a time.
  void run(const RunContext& context);

  /// Post-join accessors (single-writer data; call only after the shard's
  /// thread finished).
  [[nodiscard]] const LatencyHistogram& latency() const { return latency_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<Response>& responses() const {
    return responses_;
  }
  /// Order-independent sum of payload hashes of every recorded response.
  [[nodiscard]] std::uint64_t payload_fingerprint() const {
    return fingerprint_;
  }
  /// First per-request error, empty when the run was clean.
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  /// Per-device state this shard exclusively owns.
  struct DeviceState {
    std::size_t device_id = 0;
    std::unique_ptr<core::LlamaSystem> system;
    common::Angle orientation = common::Angle::degrees(0.0);
    common::Voltage vx{0.0};
    common::Voltage vy{0.0};
    common::PowerDbm last_power{-120.0};
    std::uint64_t retunes = 0;
  };

  [[nodiscard]] DeviceState& owned_state(std::size_t device_id);
  [[nodiscard]] Response serve(const Request& request);
  void record(const Response& response, std::uint64_t submit_ns,
              bool keep_responses);

  const std::size_t shard_id_;
  const std::size_t n_shards_;
  const codebook::Codebook& book_;
  const channel::Antenna rx_template_;
  MpmcQueue<Request> queue_;
  std::vector<DeviceState> devices_;
  LatencyHistogram latency_;
  Counters counters_;
  std::vector<Response> responses_;
  std::uint64_t fingerprint_ = 0;
  std::string error_;
};

}  // namespace llama::serve
