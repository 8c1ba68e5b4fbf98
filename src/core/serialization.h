// HeavyKeeper state serialization.
//
// The paper's deployment model (Section VI-A, footnote 2) periodically ships
// each switch's sketch to a collector for network-wide analysis. These
// helpers snapshot a HeavyKeeper into a self-describing byte buffer and
// reconstruct it elsewhere. The decay RNG restarts from the config seed on
// load (its state is not part of the measurement result; the reconstructed
// sketch is statistically identical and answers queries bit-identically).
#ifndef HK_CORE_SERIALIZATION_H_
#define HK_CORE_SERIALIZATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/heavykeeper.h"

namespace hk {

// Snapshot the sketch (config + every bucket + expansion state).
std::vector<uint8_t> SerializeSketch(const HeavyKeeper& sketch);

// SerializeSketch appended to *out: the header, then the slab image in one
// copy. Checkpoints use this to write a sketch straight into their blob.
void AppendSerializedSketch(const HeavyKeeper& sketch, std::vector<uint8_t>* out);

// Rebuild a sketch from a v2 snapshot. Returns nullopt on a malformed
// buffer or any other format version.
std::optional<HeavyKeeper> DeserializeSketch(const uint8_t* data, size_t size);

inline std::optional<HeavyKeeper> DeserializeSketch(const std::vector<uint8_t>& buffer) {
  return DeserializeSketch(buffer.data(), buffer.size());
}

}  // namespace hk

#endif  // HK_CORE_SERIALIZATION_H_
