// Deterministic random number generation.
//
// Every stochastic component in LLAMA (noise, multipath, measurement jitter)
// draws from an Rng that is explicitly seeded, so experiments are
// reproducible bit-for-bit and tests can assert on exact statistics.
//
// Stateful streams (Rng) serve serial consumers; concurrent consumers that
// must agree on a draw regardless of scheduling use the stateless
// counter-based hash_unit_draw below.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

namespace llama::common {

/// Stateless uniform draw in [0, 1): a splitmix64-style avalanche of
/// (seed, k1, k2). Unlike an Rng stream, the value depends only on the key,
/// never on how many draws other consumers made first — this is what lets
/// the fault-injection layer hand byte-identical fault schedules to every
/// shard of a parallel fleet for any thread count.
[[nodiscard]] double hash_unit_draw(std::uint64_t seed, std::uint64_t k1,
                                    std::uint64_t k2);

/// Thin wrapper over a 64-bit Mersenne twister with convenience draws.
class Rng {
 public:
  /// Default seed keeps unrelated experiments decorrelated but reproducible.
  explicit Rng(std::uint64_t seed = 0x11A0'11A0'2021ULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Standard normal scaled: mean + stddev * N(0,1). Defined for
  /// stddev == 0 (returns mean, still consuming the draw); throws
  /// std::invalid_argument on a negative or non-finite stddev.
  [[nodiscard]] double gaussian(double mean, double stddev) {
    if (!(stddev >= 0.0) || !std::isfinite(stddev))
      throw std::invalid_argument{"Rng::gaussian: stddev must be finite, >= 0"};
    return std::normal_distribution<double>{}(engine_) * stddev + mean;
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>{lo, hi}(engine_);
  }

  /// Rayleigh-distributed magnitude with scale sigma (multipath amplitudes).
  [[nodiscard]] double rayleigh(double sigma) {
    const double u = uniform(1e-12, 1.0);
    return sigma * std::sqrt(-2.0 * std::log(u));
  }

  /// Bernoulli draw.
  [[nodiscard]] bool chance(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Direct access for std distributions not covered above.
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

  /// Derive an independent child stream (for per-component seeding).
  [[nodiscard]] Rng fork() { return Rng{engine_()}; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace llama::common
