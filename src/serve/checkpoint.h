// Checkpoint files for the hk_serve daemon: one self-contained manifest
// holding every hosted instance's identity (name, registry spec, context
// defaults), its source binding, the stream offset already applied, and
// the algorithm's opaque SaveState blob.
//
// Durability contract (tests/serve_recovery_test.cpp):
//
//   * Writes are atomic: the manifest is serialized to `<path>.tmp`,
//     fsync'd, then rename(2)'d over `path` (and the directory fsync'd),
//     so a crash at any instant leaves either the previous checkpoint or
//     the new one - never a torn file - plus at worst a stale `.tmp` that
//     the next writer simply overwrites. On Linux the writer starts
//     writeback of each 4 MiB as it goes (sync_file_range), so the fsync
//     waits only for the tail; that changes when bytes reach the disk,
//     not what makes them durable.
//   * Loads are paranoid: magic, version, payload length, and a CRC32
//     over the payload are all verified before a byte is interpreted,
//     and every per-instance field is bounds-checked while decoding. A
//     truncated, torn, bit-flipped, or foreign file yields false with a
//     diagnostic - never a partially loaded manifest.
//
// The format is host-endian, like the SaveState blobs it carries: this is
// crash-recovery state for the machine that wrote it, not interchange.
#ifndef HK_SERVE_CHECKPOINT_H_
#define HK_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flow_key.h"

namespace hk {

// One hosted instance's checkpointed identity + state.
struct CheckpointInstance {
  std::string name;  // instance key in the daemon's map
  std::string spec;  // registry spec (sketch/registry.h grammar)
  // The SketchDefaults context the spec was built under; spec keys
  // (mem=/k=/key=/seed=) override these at MakeSketch time exactly as
  // they did originally, so spec+defaults reconstructs the instance.
  uint64_t memory_bytes = 50 * 1024;
  uint64_t k = 100;
  uint8_t key_kind = 0;  // KeyKind, validated on load
  uint64_t seed = 1;
  // Source binding ("" = no source attached). `packets_applied` is the
  // number of parsed records already inserted when the checkpoint was
  // taken: on recovery a file-backed source skips that many records
  // (zero loss), a pipe/socket source resumes from its live position
  // (loss bounded by the checkpoint interval).
  std::string source;
  uint8_t source_key_policy = 0;  // PcapKeyPolicy, validated on load
  uint8_t byte_weighted = 0;
  uint64_t packets_applied = 0;
  std::vector<uint8_t> state;  // TopKAlgorithm::SaveState blob (a decode views it instead)
};

struct CheckpointManifest {
  std::vector<CheckpointInstance> instances;
};

// Serialize / parse the manifest payload (magic + version + CRC framing
// included). Parse returns false on any structural defect; `error` (when
// non-null) carries the diagnostic. Parse leaves every state blob in
// `data`: (*states)[i] views instance i's SaveState blob, and
// out->instances[i].state stays empty, so the views live as long as `data`.
std::vector<uint8_t> EncodeCheckpoint(const CheckpointManifest& manifest);
bool DecodeCheckpoint(const uint8_t* data, size_t size, CheckpointManifest* out,
                      std::vector<std::span<const uint8_t>>* states,
                      std::string* error = nullptr);

// What to reserve for the SaveState blob of an instance whose MemoryBytes()
// is `memory_bytes`: the HeavyKeeper encoding's bound for that many slab
// bytes (SerializedSketchBound, reached when every bucket is occupied) plus
// slack for headers, length slots and candidate entries. A state buffer
// reused across checkpoints so never reallocates.
size_t StateReserveBytes(size_t memory_bytes);

// Atomic write: <path>.tmp + fsync + rename + directory fsync. False on
// any I/O failure (the temp file is removed best-effort).
bool WriteCheckpointAtomic(const std::string& path, const CheckpointManifest& manifest,
                           std::string* error = nullptr);

// A checkpoint file as DecodeCheckpoint leaves it: `states` views the
// blobs in `file`, the buffer the file was read into. Moving the whole
// object keeps the views valid, and a copy's would point into the
// original, so there is none.
struct LoadedCheckpoint {
  LoadedCheckpoint() = default;
  LoadedCheckpoint(LoadedCheckpoint&&) = default;
  LoadedCheckpoint& operator=(LoadedCheckpoint&&) = default;
  LoadedCheckpoint(const LoadedCheckpoint&) = delete;
  LoadedCheckpoint& operator=(const LoadedCheckpoint&) = delete;

  CheckpointManifest manifest;
  std::vector<std::span<const uint8_t>> states;
  std::vector<uint8_t> file;
};

// Read + verify `path`. False when the file is missing, truncated, torn,
// or fails CRC - the caller starts fresh instead of trusting it.
bool LoadCheckpoint(const std::string& path, LoadedCheckpoint* out,
                    std::string* error = nullptr);

// Remove a stale `<path>.tmp` left by a crash mid-write. Returns true if
// one was present.
bool RemoveStaleCheckpointTemp(const std::string& path);

}  // namespace hk

#endif  // HK_SERVE_CHECKPOINT_H_
