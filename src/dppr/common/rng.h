#ifndef DPPR_COMMON_RNG_H_
#define DPPR_COMMON_RNG_H_

#include <cstdint>

#include "dppr/common/macros.h"

namespace dppr {

/// Deterministic 64-bit PRNG (splitmix64). Every stochastic component in the
/// library (generators, partition seeds, query sampling) takes an explicit
/// seed so all tests and benchmarks are reproducible across runs and machines.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). bound must be positive.
  uint64_t Uniform(uint64_t bound) {
    DPPR_DCHECK(bound > 0);
    // Lemire's multiply-shift rejection-free mapping is fine here: bias is
    // below 2^-32 for the bounds used in this library.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

}  // namespace dppr

#endif  // DPPR_COMMON_RNG_H_
