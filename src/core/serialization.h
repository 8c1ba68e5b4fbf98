// HeavyKeeper state serialization.
//
// The paper's deployment model (Section VI-A, footnote 2) periodically ships
// each switch's sketch to a collector for network-wide analysis. These
// helpers snapshot a HeavyKeeper into a self-describing byte buffer and
// reconstruct it elsewhere. A snapshot carries the decay RNG's position, so
// the reconstructed sketch answers queries bit-identically and, fed the
// rest of a stream, flips the same decay coins as the original would.
#ifndef HK_CORE_SERIALIZATION_H_
#define HK_CORE_SERIALIZATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/heavykeeper.h"

namespace hk {

// Snapshot the sketch (config + decay RNG + every occupied bucket +
// expansion state) in format v3.
std::vector<uint8_t> SerializeSketch(const HeavyKeeper& sketch);

// SerializeSketch appended to *out in one pass over the slab: the header,
// then each group of 64 slab words as an occupancy mask and the group's
// occupied words. Checkpoints use this to write a sketch straight into
// their blob.
void AppendSerializedSketch(const HeavyKeeper& sketch, std::vector<uint8_t>* out);

// The most bytes AppendSerializedSketch appends for a slab of `slab_bytes`:
// the header, a mask per 64 words (of at least 4 bytes) and every word,
// which is what a sketch with every bucket occupied takes.
size_t SerializedSketchBound(size_t slab_bytes);

// Rebuild a sketch from a v3 snapshot, or from a v2 one (the raw slab
// image, with no RNG: its decay coins restart from the seed). Returns
// nullopt on a malformed buffer or any other format version.
std::optional<HeavyKeeper> DeserializeSketch(const uint8_t* data, size_t size);

inline std::optional<HeavyKeeper> DeserializeSketch(const std::vector<uint8_t>& buffer) {
  return DeserializeSketch(buffer.data(), buffer.size());
}

}  // namespace hk

#endif  // HK_CORE_SERIALIZATION_H_
