#include "serve/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/byte_io.h"
#include "core/serialization.h"
#include "ingest/pcap_reader.h"
#include "telemetry/telemetry.h"

namespace hk {
namespace {

// "HKSERVE1" little-endian; bump the trailing digit on format changes.
constexpr uint64_t kMagic = 0x31455652'45534b48ULL;
constexpr uint32_t kVersion = 1;

// Framing: magic, version, payload length, CRC32(payload), payload.
constexpr size_t kHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) +
                                sizeof(uint32_t);

bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what;
  }
  return false;
}

// Payload bytes are checksummed and handed on in chunks this size, so a
// chunk the CRC just read is still in cache when the write copies it.
constexpr size_t kEmitChunk = 1 << 20;

// The atomic writer starts writeback of every this many bytes it has
// written, so the disk works while the rest is still being copied and the
// closing fsync waits only for the tail.
constexpr uint64_t kWritebackBytes = 4 << 20;

// The one checkpoint encoder behind EncodeCheckpoint and
// WriteCheckpointAtomic. The payload is the instance count, then each
// instance's fields and its length-prefixed state blob. The encoder owns
// only the framing (everything but the blobs) and borrows each blob from
// the manifest, so no state is copied to be framed.
class PayloadEncoder {
 public:
  explicit PayloadEncoder(const CheckpointManifest& manifest) : manifest_(manifest) {
    ByteAppend(framing_, static_cast<uint64_t>(manifest.instances.size()));
    for (const CheckpointInstance& inst : manifest.instances) {
      ByteAppendString(framing_, inst.name);
      ByteAppendString(framing_, inst.spec);
      ByteAppend(framing_, inst.memory_bytes);
      ByteAppend(framing_, inst.k);
      ByteAppend(framing_, inst.key_kind);
      ByteAppend(framing_, inst.seed);
      ByteAppendString(framing_, inst.source);
      ByteAppend(framing_, inst.source_key_policy);
      ByteAppend(framing_, inst.byte_weighted);
      ByteAppend(framing_, inst.packets_applied);
      ByteAppend(framing_, static_cast<uint64_t>(inst.state.size()));
      framing_ends_.push_back(framing_.size());
      state_bytes_ += inst.state.size();
    }
  }

  uint64_t size() const { return framing_.size() + state_bytes_; }

  // Hand every payload byte to `sink(data, n)` in file order and set *crc
  // to the CRC32 chained across them. False as soon as the sink fails.
  template <typename Sink>
  bool Emit(Sink&& sink, uint32_t* crc) const {
    uint32_t running = 0;
    const auto piece = [&](const uint8_t* data, size_t n) {
      for (size_t at = 0; at < n; at += kEmitChunk) {
        const size_t len = std::min(kEmitChunk, n - at);
        running = Crc32(data + at, len, running);
        if (!sink(data + at, len)) {
          return false;
        }
      }
      return true;
    };
    size_t begin = 0;
    for (size_t i = 0; i < framing_ends_.size(); ++i) {
      const std::vector<uint8_t>& state = manifest_.instances[i].state;
      if (!piece(framing_.data() + begin, framing_ends_[i] - begin) ||
          !piece(state.data(), state.size())) {
        return false;
      }
      begin = framing_ends_[i];
    }
    if (!piece(framing_.data() + begin, framing_.size() - begin)) {
      return false;
    }
    *crc = running;
    return true;
  }

 private:
  const CheckpointManifest& manifest_;
  std::vector<uint8_t> framing_;
  std::vector<size_t> framing_ends_;  // instance i's framing ends at framing_ends_[i]
  uint64_t state_bytes_ = 0;
};

std::vector<uint8_t> EncodeHeader(uint64_t payload_len, uint32_t crc) {
  std::vector<uint8_t> header;
  header.reserve(kHeaderBytes);
  ByteAppend(header, kMagic);
  ByteAppend(header, kVersion);
  ByteAppend(header, payload_len);
  ByteAppend(header, crc);
  return header;
}

bool WriteFd(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Each instance's state blob is left in `data`: (*states)[i] views
// instance i's, and its CheckpointInstance::state stays empty.
bool DecodePayload(const uint8_t* data, size_t size, CheckpointManifest* out,
                   std::vector<std::span<const uint8_t>>* states, std::string* error) {
  ByteReader reader(data, size);
  uint64_t count = 0;
  if (!reader.Read(&count)) {
    return Fail(error, "checkpoint payload truncated at the instance count");
  }
  // An instance encodes to > 60 bytes even empty; cheap flood guard before
  // reserving anything.
  if (count > size) {
    return Fail(error, "checkpoint instance count exceeds the payload size");
  }
  CheckpointManifest manifest;
  manifest.instances.reserve(static_cast<size_t>(count));
  std::vector<std::span<const uint8_t>> views;
  views.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    CheckpointInstance inst;
    std::span<const uint8_t> state;
    if (!reader.ReadString(&inst.name) || !reader.ReadString(&inst.spec) ||
        !reader.Read(&inst.memory_bytes) || !reader.Read(&inst.k) ||
        !reader.Read(&inst.key_kind) || !reader.Read(&inst.seed) ||
        !reader.ReadString(&inst.source) || !reader.Read(&inst.source_key_policy) ||
        !reader.Read(&inst.byte_weighted) || !reader.Read(&inst.packets_applied) ||
        !reader.BorrowBlob(&state)) {
      return Fail(error, "checkpoint payload truncated inside instance " + std::to_string(i));
    }
    if (inst.name.empty()) {
      return Fail(error, "checkpoint instance " + std::to_string(i) + " has an empty name");
    }
    if (inst.key_kind > static_cast<uint8_t>(KeyKind::kFiveTuple13B)) {
      return Fail(error, "checkpoint instance " + inst.name + " has an invalid key kind");
    }
    if (inst.source_key_policy > static_cast<uint8_t>(PcapKeyPolicy::kSrcOnly) ||
        inst.byte_weighted > 1) {
      return Fail(error, "checkpoint instance " + inst.name + " has an invalid source binding");
    }
    manifest.instances.push_back(std::move(inst));
    views.push_back(state);
  }
  if (!reader.Done()) {
    return Fail(error, "checkpoint payload has trailing bytes");
  }
  *out = std::move(manifest);
  *states = std::move(views);
  return true;
}

}  // namespace

size_t StateReserveBytes(size_t memory_bytes) {
  constexpr size_t kSlackBytes = 64 * 1024;
  return SerializedSketchBound(memory_bytes) + kSlackBytes;
}

std::vector<uint8_t> EncodeCheckpoint(const CheckpointManifest& manifest) {
  const PayloadEncoder payload(manifest);
  std::vector<uint8_t> file;
  file.reserve(kHeaderBytes + payload.size());
  file.resize(kHeaderBytes);  // the header goes in once the CRC is known
  uint32_t crc = 0;
  payload.Emit(
      [&file](const uint8_t* data, size_t n) {
        file.insert(file.end(), data, data + n);
        return true;
      },
      &crc);
  const std::vector<uint8_t> header = EncodeHeader(payload.size(), crc);
  std::copy(header.begin(), header.end(), file.begin());
  return file;
}

bool DecodeCheckpoint(const uint8_t* data, size_t size, CheckpointManifest* out,
                      std::vector<std::span<const uint8_t>>* states, std::string* error) {
  ByteReader reader(data, size);
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  if (!reader.Read(&magic) || magic != kMagic) {
    return Fail(error, "not a checkpoint file (bad magic)");
  }
  if (!reader.Read(&version) || version != kVersion) {
    return Fail(error, "unsupported checkpoint version");
  }
  if (!reader.Read(&payload_len) || !reader.Read(&crc)) {
    return Fail(error, "checkpoint header truncated");
  }
  // Exact-length check: a torn tail *and* appended garbage both fail here,
  // before the CRC gets a say.
  if (payload_len != reader.remaining()) {
    return Fail(error, "checkpoint payload length mismatch (torn or truncated write)");
  }
  const uint8_t* payload = reader.Borrow(static_cast<size_t>(payload_len));
  if (payload == nullptr) {
    return Fail(error, "checkpoint payload truncated");
  }
  if (Crc32(payload, static_cast<size_t>(payload_len)) != crc) {
    static telemetry::Counter* const crc_failures = telemetry::Registry::Get().GetCounter(
        "hk_serve_crc_failures_total", "Checkpoint payloads rejected by the CRC check");
    crc_failures->Add();
    return Fail(error, "checkpoint payload failed CRC (corrupt write)");
  }
  return DecodePayload(payload, static_cast<size_t>(payload_len), out, states, error);
}

bool WriteCheckpointAtomic(const std::string& path, const CheckpointManifest& manifest,
                           std::string* error) {
  static telemetry::Histogram* const checkpoint_us = telemetry::Registry::Get().GetHistogram(
      "hk_serve_checkpoint_us", "Encode-to-rename checkpoint commit latency (microseconds)");
  static telemetry::Gauge* const checkpoint_bytes = telemetry::Registry::Get().GetGauge(
      "hk_serve_checkpoint_bytes", "Encoded size of the most recent checkpoint file");
  const telemetry::ScopedTimer timer(checkpoint_us);
  const PayloadEncoder payload(manifest);
  checkpoint_bytes->Set(static_cast<int64_t>(kHeaderBytes + payload.size()));
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Fail(error, "open " + tmp + ": " + std::strerror(errno));
  }
  // Header placeholder, then the payload pieces with the CRC chained
  // across them, then the real header over the placeholder: the state is
  // read once and never staged in a second full-size buffer.
  uint64_t written = 0;
  uint64_t started = 0;  // bytes whose writeback has been started
  const auto write = [&](const uint8_t* data, size_t n) {
    if (!WriteFd(fd, data, n)) {
      return false;
    }
    written += n;
#ifdef __linux__
    // Only starts I/O: durability still comes from the fsync below. A
    // failure here shows up there.
    if (written - started >= kWritebackBytes) {
      ::sync_file_range(fd, static_cast<off_t>(started), static_cast<off_t>(written - started),
                        SYNC_FILE_RANGE_WRITE);
      started = written;
    }
#endif
    return true;
  };
  const std::vector<uint8_t> placeholder = EncodeHeader(payload.size(), 0);
  uint32_t crc = 0;
  bool ok = write(placeholder.data(), placeholder.size()) && payload.Emit(write, &crc);
  if (ok) {
    const std::vector<uint8_t> header = EncodeHeader(payload.size(), crc);
    ok = ::pwrite(fd, header.data(), header.size(), 0) == static_cast<ssize_t>(header.size());
  }
  if (!ok) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Fail(error, "write " + tmp + ": " + what);
  }
  // Durability order: file contents, then the rename, then the directory
  // entry - the sequence that makes the rename the commit point.
  if (::fsync(fd) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Fail(error, "fsync " + tmp + ": " + what);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string what = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Fail(error, "rename " + tmp + " -> " + path + ": " + what);
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best-effort: the rename itself already landed
    ::close(dir_fd);
  }
  return true;
}

bool LoadCheckpoint(const std::string& path, LoadedCheckpoint* out, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Fail(error, "open " + path + ": " + std::strerror(errno));
  }
  // One buffer sized from fstat (one byte over, so the read that meets EOF
  // needs no room), read into in place. The read goes on to EOF, growing
  // the buffer if it must, so a file whose size changed since the fstat is
  // still read whole.
  struct stat st = {};
  const bool sized = ::fstat(fd, &st) == 0 && st.st_size > 0;
  std::vector<uint8_t> bytes(sized ? static_cast<size_t>(st.st_size) + 1 : size_t{64 * 1024});
  size_t size = 0;
  for (;;) {
    if (size == bytes.size()) {
      bytes.resize(bytes.size() * 2);
    }
    const ssize_t n = ::read(fd, bytes.data() + size, bytes.size() - size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const std::string what = std::strerror(errno);
      ::close(fd);
      return Fail(error, "read " + path + ": " + what);
    }
    if (n == 0) {
      break;
    }
    size += static_cast<size_t>(n);
  }
  ::close(fd);
  LoadedCheckpoint loaded;
  if (!DecodeCheckpoint(bytes.data(), size, &loaded.manifest, &loaded.states, error)) {
    return false;
  }
  // A moved vector keeps its heap buffer, so the views stay valid.
  loaded.file = std::move(bytes);
  *out = std::move(loaded);
  return true;
}

bool RemoveStaleCheckpointTemp(const std::string& path) {
  return ::unlink((path + ".tmp").c_str()) == 0;
}

}  // namespace hk
