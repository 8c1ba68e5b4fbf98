// Registry hookup for the HeavyKeeper pipelines: the three insertion
// disciplines are separate registry names so contender lists can sweep
// them, all funneling into HeavyKeeperTopK<>::Builder.
#include "core/hk_topk.h"

#include <cmath>
#include <stdexcept>

#include "sketch/registry.h"

namespace hk {
namespace {

std::unique_ptr<TopKAlgorithm> BuildHk(HkVersion version, const SketchArgs& args) {
  const uint64_t d = args.GetUint("d", 2);
  const uint64_t fp = args.GetUint("fp", 16);
  const uint64_t cb = args.GetUint("cb", 16);
  if (d < 1 || d > HeavyKeeper::kMaxPreparedArrays) {
    throw std::invalid_argument("sketch spec: d= must be 1.." +
                                std::to_string(HeavyKeeper::kMaxPreparedArrays));
  }
  if (fp < 1 || fp > 32) {
    throw std::invalid_argument("sketch spec: fp= must be 1..32");
  }
  if (cb < 1 || cb > 64) {
    throw std::invalid_argument("sketch spec: cb= must be 1..64");
  }
  // Decay probability b^-C needs b > 1, and Theorem 5's bound divides by b - 1.
  const double b = args.GetDouble("b", 1.08);
  if (!std::isfinite(b) || b <= 1.0) {
    throw std::invalid_argument("sketch spec: b= must be a finite number above 1");
  }
  typename HeavyKeeperTopK<>::Builder builder;
  builder.version(version)
      .memory_bytes(args.memory_bytes())
      .k(args.k())
      .key_kind(args.key_kind())
      .seed(args.seed())
      .d(d)
      .decay_base(b)
      .fingerprint_bits(static_cast<uint32_t>(fp))
      .counter_bits(static_cast<uint32_t>(cb))
      .expansion(args.GetUint("expand", 0));
  if (const auto it = args.params().find("decay"); it != args.params().end()) {
    DecayFunction f;
    if (!ParseDecayFunction(it->second, &f)) {
      throw std::invalid_argument("sketch spec: decay= must be exp, poly or sigmoid (got '" +
                                  it->second + "')");
    }
    builder.decay_function(f);
  }
  if (const auto it = args.params().find("simd"); it != args.params().end()) {
    SimdMode mode;
    if (!ParseSimdMode(it->second.c_str(), &mode)) {
      throw std::invalid_argument("sketch spec: simd= must be auto, scalar or avx2 (got '" +
                                  it->second + "')");
    }
    // An explicitly requested kernel the host cannot run throws
    // std::invalid_argument from the HeavyKeeper constructor (simd/simd.h
    // ResolveSimdKernel) - a spec that says avx2 never silently runs scalar.
    builder.simd(mode);
  }
  if (const auto it = args.params().find("wdecay"); it != args.params().end()) {
    if (it->second == "collapsed") {
      // The pipeline-level collapse is implemented for the Minimum
      // discipline only (the Basic/Parallel admission rules evaluate the
      // evolving estimate per unit); accepting it elsewhere would be a
      // silent no-op, so reject like any other unusable spec.
      if (version != HkVersion::kMinimum) {
        throw std::invalid_argument(
            "sketch spec: wdecay=collapsed requires HK-Minimum (the Basic/Parallel "
            "pipelines replay unmonitored weighted inserts per unit)");
      }
      builder.collapsed_weighted_decay(true);
    } else if (it->second != "replay") {
      throw std::invalid_argument("sketch spec: wdecay= must be replay or collapsed (got '" +
                                  it->second + "')");
    }
  }
  return builder.Build();
}

const std::vector<std::string> kHkParamKeys = {"d",      "b",      "fp",   "cb",
                                               "decay",  "wdecay", "expand", "simd"};

}  // namespace

HK_REGISTER_SKETCHES(HeavyKeeperTopK) {
  RegisterSketch({"HK-Parallel",
                  {"HK", "HeavyKeeper-Parallel"},
                  kHkParamKeys,
                  [](const SketchArgs& args) { return BuildHk(HkVersion::kParallel, args); }});
  RegisterSketch({"HK-Minimum",
                  {"HeavyKeeper-Minimum"},
                  kHkParamKeys,
                  [](const SketchArgs& args) { return BuildHk(HkVersion::kMinimum, args); }});
  RegisterSketch({"HK-Basic",
                  {"HeavyKeeper-Basic"},
                  kHkParamKeys,
                  [](const SketchArgs& args) { return BuildHk(HkVersion::kBasic, args); }});
}

}  // namespace hk
