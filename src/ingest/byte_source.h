// ByteSource: the pull-based byte stream PcapReader reads every capture
// from, in hk_serve's ingest loop and everywhere else.
//
// Read() blocks until at least one byte is available and returns the
// number of bytes copied out, never waiting for more than that; 0 means
// end-of-stream or error, and ok() distinguishes the two. Two
// implementations: a file descriptor (a path opened for reading, stdin via
// "-", pipes, TCP sockets), and an in-memory buffer, which tests hand over
// whole or in tiny chunks to force refill boundaries at every offset.
#ifndef HK_INGEST_BYTE_SOURCE_H_
#define HK_INGEST_BYTE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hk {

class ByteSource {
 public:
  virtual ~ByteSource() = default;

  // Copy up to `max_bytes` into `out`. Returns the count actually copied;
  // 0 only at end-of-stream or on error (never "try again").
  virtual size_t Read(uint8_t* out, size_t max_bytes) = 0;

  // True when Read() would return without waiting: bytes are ready, or the
  // stream has ended. Buffers (and regular files) are always ready; a pipe
  // or socket whose writer has sent nothing more is not.
  virtual bool Ready() const { return true; }

  virtual bool ok() const { return true; }
  virtual std::string error() const { return std::string(); }
};

// Opens `path` for reading (a FIFO's open waits for a writer) as an fd
// source; "-" reads stdin, which is not closed on destruction. A path that
// does not open yields a source whose ok() is false with "cannot open
// <path>".
std::unique_ptr<ByteSource> MakeFileByteSource(const std::string& path);

// Raw-descriptor source (pipes, sockets). Retries EINTR; closes the
// descriptor on destruction when `own_fd`.
std::unique_ptr<ByteSource> MakeFdByteSource(int fd, bool own_fd);

// In-memory source serving at most `chunk_bytes` per Read (0 = all at
// once). Tests use chunk sizes of a few bytes to land refills inside
// every header field.
std::unique_ptr<ByteSource> MakeBufferByteSource(std::vector<uint8_t> data,
                                                 size_t chunk_bytes = 0);

}  // namespace hk

#endif  // HK_INGEST_BYTE_SOURCE_H_
