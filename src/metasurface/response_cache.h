// Memoization of Metasurface::response(): an LRU map from
// (frequency, quantized Vx, quantized Vy, mode) to the Jones matrix.
//
// Quantization contract: bias voltages are snapped to the nearest multiple
// of `voltage_quantum_v` BEFORE the response is evaluated, so a cache entry
// is a pure function of its key — the cached value never depends on which
// un-quantized bias happened to populate it first. Pick the quantum at or
// below the bias supply's programming resolution (1 mV for the paper's
// Tektronix 2230G) and the quantization is semantically lossless: no two
// distinguishable hardware states share a cache cell.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "src/common/units.h"
#include "src/em/jones.h"

namespace llama::metasurface {

struct ResponseCacheConfig {
  /// Bias quantization step [V]; responses are evaluated at multiples of it.
  double voltage_quantum_v = 1e-3;
  /// Maximum number of cached responses; least-recently-used entries are
  /// evicted beyond this. 2^16 entries ~= 5 MB, enough for a 255x255 grid.
  std::size_t capacity = 1 << 16;
};

/// Snapshot of the cache's counters. The live counters are relaxed atomics
/// (see stats()), so a snapshot is safe to take from any thread at any time
/// — including while other threads are inside the two-lock window path of
/// deploy::SharedResponseEngine — without tearing and without serializing
/// on the cache lock. Counters are monotone; a snapshot racing concurrent
/// lookups sees some valid intermediate state.
///
/// A key is counted once as a miss — when insert() first files it — and
/// every other lookup of it as a hit, including an insert() that finds the
/// key already filed by a racing owner. So once the lookups settle, misses
/// equal the distinct keys evaluated (absent evictions) and hits the
/// remaining lookups, however concurrent owners interleaved.
struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Contended acquisitions of the locks guarding the shared registry/memo
  /// (deploy::CountedMutex tallies; 0 for a privately owned cache). A
  /// rising rate under fan-out says the two-lock window pattern is getting
  /// crowded — the signal to shard the memo, batch wider, or both.
  std::uint64_t lock_contention = 0;
};

class ResponseCache {
 public:
  /// Cache key; `mode` is the SurfaceMode cast to int (this header stays
  /// below metasurface.h in the include order).
  struct Key {
    std::uint64_t frequency_bits = 0;
    std::int64_t vx_quanta = 0;
    std::int64_t vy_quanta = 0;
    int mode = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  explicit ResponseCache(ResponseCacheConfig config);

  [[nodiscard]] const ResponseCacheConfig& config() const { return config_; }

  /// Snaps a bias to the quantization lattice.
  [[nodiscard]] common::Voltage quantize(common::Voltage v) const;

  /// Builds the key for an already-quantized bias pair. -0.0 and 0.0
  /// frequencies map to one key (the raw bits differ but the values compare
  /// equal); a NaN frequency throws std::invalid_argument, as NaN bits would
  /// poison the map with an unmatchable key.
  [[nodiscard]] Key make_key(common::Frequency f, common::Voltage vx_q,
                             common::Voltage vy_q, int mode) const;

  /// Returns the cached response and refreshes its recency (counting a
  /// hit), or nullopt (counting nothing: the miss is counted by the insert
  /// that follows it).
  [[nodiscard]] std::optional<em::JonesMatrix> find(const Key& key);

  /// Files a value found missing: a new key counts one miss and evicts the
  /// LRU tail when full; a key already filed (a racing owner published it
  /// first) counts one hit and is refreshed.
  void insert(const Key& key, const em::JonesMatrix& value);

  /// Counter snapshot, safe without external locking (see
  /// ResponseCacheStats). The map/LRU accessors (find/insert) still require
  /// the owner's usual synchronization.
  [[nodiscard]] ResponseCacheStats stats() const {
    ResponseCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    Key key;
    em::JonesMatrix value;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  ResponseCacheConfig config_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
};

}  // namespace llama::metasurface
