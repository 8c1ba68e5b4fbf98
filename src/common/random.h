// Deterministic, fast pseudo-random number generation.
//
// All randomized behaviour in the library (decay coin flips, workload
// generation, hash seeding) flows through these generators so that a single
// seed reproduces an entire experiment bit-for-bit.
#ifndef HK_COMMON_RANDOM_H_
#define HK_COMMON_RANDOM_H_

#include <array>
#include <cstdint>

namespace hk {

// SplitMix64: used to expand a single user seed into independent sub-seeds.
// Reference algorithm by Sebastiano Vigna (public domain).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro256++: the main stream generator. Small state, excellent statistical
// quality, and fast enough to sit on the per-packet decay path.
class Rng {
 public:
  // The four xoshiro words: the generator's whole position, so a saved
  // State resumes the exact stream (a HeavyKeeper checkpoint carries its
  // decay coins this way). All zero is the one State it never reaches.
  using State = std::array<uint64_t, 4>;

  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) {
      s = sm.Next();
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  const State& state() const { return s_; }
  void set_state(const State& state) { s_ = state; }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction;
  // the modulo bias is < 2^-64 * bound which is negligible for our bounds.
  uint64_t NextBounded(uint64_t bound) {
    return static_cast<uint64_t>((static_cast<__uint128_t>(NextU64()) * bound) >> 64);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  State s_;
};

}  // namespace hk

#endif  // HK_COMMON_RANDOM_H_
