// Declarative serving topology — shard count, queue shape, admission
// thresholds and the request mix, validated up front and printable as one
// block (in the spirit of firedancer's fd_config/fd_topo dumps: the whole
// runtime layout is data, inspected before a single thread starts).
//
// The structural rule the topology encodes is OWNERSHIP PARTITIONING:
// device d is owned by shard d % n_shards, the owner is the only thread
// that ever touches d's state, and a request that lands on the wrong shard
// is forwarded to the owner — never served under a lock. A serving fleet
// runs the ring model, whose deploy::partition_fleet groups are singletons
// in roster order, so this is group ownership. That is what
// keeps the worker hot path lock-free (lint rule `serve-hot-path-blocking`)
// and response payloads byte-identical for any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/serve/request.h"

namespace llama::serve {

/// Relative weights of the four request kinds in generated load (need not
/// sum to 1; the generator normalizes). The presets mirror the YCSB
/// read-heavy / update-heavy split for a retune workload.
struct LoadMix {
  double lookup = 1.0;
  double retune = 0.0;
  double measure = 0.0;
  double fleet_query = 0.0;

  /// YCSB-B-flavored serving mix: dominated by codebook lookups and
  /// telemetry reads, a trickle of retunes.
  [[nodiscard]] static LoadMix read_heavy() {
    return LoadMix{0.60, 0.05, 0.25, 0.10};
  }
  /// Churn mix: half the fleet is moving and retuning.
  [[nodiscard]] static LoadMix retune_heavy() {
    return LoadMix{0.25, 0.50, 0.20, 0.05};
  }

  [[nodiscard]] double total() const {
    return lookup + retune + measure + fleet_query;
  }
  [[nodiscard]] double weight(RequestKind kind) const;
};

/// Queue-occupancy thresholds the submit path applies per owner shard.
/// Occupancy is the bounded queue's racy size estimate — admission is a
/// load-shedding heuristic, not a guarantee; the hard bound is the queue
/// capacity itself (a full queue sheds unconditionally).
struct AdmissionConfig {
  /// Occupancy at or above this downgrades kRetune to a codebook lookup
  /// (the degraded-but-served tier of the ladder).
  std::size_t degrade_depth = 512;
  /// Occupancy at or above this sheds the request outright.
  std::size_t shed_depth = 896;

  /// Admission disabled: nothing is shed — a physically full ring
  /// back-pressures the submitter (spin/yield) instead of rejecting. The
  /// determinism gate runs in this mode so every generated request is
  /// served and the payload fingerprint is shard-count-invariant.
  [[nodiscard]] static AdmissionConfig unlimited() {
    return AdmissionConfig{SIZE_MAX, SIZE_MAX};
  }
};

struct ServeTopology {
  /// Worker shards; devices are owned round-robin (device % n_shards).
  std::size_t n_shards = 4;
  /// Per-shard bounded MPMC capacity; power of two (ring constraint).
  std::size_t queue_depth = 1024;
  /// Best-effort thread pinning (shard i -> core i mod hardware cores);
  /// silently skipped where unsupported.
  bool pin_threads = true;
  /// Keep every Response in the report (tests); benches keep only the
  /// aggregate fingerprint/histogram.
  bool keep_responses = false;
  AdmissionConfig admission{};
  LoadMix mix = LoadMix::read_heavy();

  /// Owner shard of a device under this topology.
  [[nodiscard]] std::size_t owner_shard(std::size_t device) const {
    return device % n_shards;
  }

  /// Throws std::invalid_argument on a degenerate topology: zero shards,
  /// non-power-of-two queue depth, shed threshold below degrade threshold,
  /// or a mix with no positive weight.
  void validate() const;

  /// One human-readable block describing the whole layout (fd_topo-style).
  [[nodiscard]] std::string describe() const;
};

}  // namespace llama::serve
