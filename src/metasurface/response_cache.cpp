#include "src/metasurface/response_cache.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace llama::metasurface {

std::size_t ResponseCache::KeyHash::operator()(const Key& k) const {
  // splitmix64-style mixing of the four key fields.
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 31);
  };
  std::uint64_t h = k.frequency_bits;
  h = mix(h, static_cast<std::uint64_t>(k.vx_quanta));
  h = mix(h, static_cast<std::uint64_t>(k.vy_quanta));
  h = mix(h, static_cast<std::uint64_t>(k.mode));
  return static_cast<std::size_t>(h);
}

ResponseCache::ResponseCache(ResponseCacheConfig config) : config_(config) {
  if (config_.voltage_quantum_v <= 0.0)
    throw std::invalid_argument{"ResponseCache: quantum must be positive"};
  if (config_.capacity == 0)
    throw std::invalid_argument{"ResponseCache: capacity must be >= 1"};
}

common::Voltage ResponseCache::quantize(common::Voltage v) const {
  const double q = config_.voltage_quantum_v;
  return common::Voltage{std::round(v.value() / q) * q};
}

ResponseCache::Key ResponseCache::make_key(common::Frequency f,
                                           common::Voltage vx_q,
                                           common::Voltage vy_q,
                                           int mode) const {
  double hz = f.in_hz();
  if (std::isnan(hz))
    throw std::invalid_argument{"ResponseCache: NaN frequency"};
  // Normalize the signed zero: -0.0 and 0.0 compare equal but differ in bit
  // pattern, and the key is built from raw bits.
  if (hz == 0.0) hz = 0.0;
  const double q = config_.voltage_quantum_v;
  Key key;
  key.frequency_bits = std::bit_cast<std::uint64_t>(hz);
  key.vx_quanta = static_cast<std::int64_t>(std::llround(vx_q.value() / q));
  key.vy_quanta = static_cast<std::int64_t>(std::llround(vy_q.value() / q));
  key.mode = mode;
  return key;
}

std::optional<em::JonesMatrix> ResponseCache::find(const Key& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void ResponseCache::insert(const Key& key, const em::JonesMatrix& value) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    it->second->value = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  lru_.push_front(Entry{key, value});
  map_.emplace(key, lru_.begin());
  while (map_.size() > config_.capacity) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace llama::metasurface
