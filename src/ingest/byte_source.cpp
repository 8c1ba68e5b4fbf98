#include "ingest/byte_source.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace hk {
namespace {

class FdByteSource final : public ByteSource {
 public:
  // A negative `fd` reads nothing and reports `error`.
  FdByteSource(int fd, bool own_fd, std::string error = {})
      : fd_(fd), own_(own_fd), error_(std::move(error)) {}

  ~FdByteSource() override {
    if (own_ && fd_ >= 0) {
      ::close(fd_);
    }
  }

  size_t Read(uint8_t* out, size_t max_bytes) override {
    if (fd_ < 0 || max_bytes == 0) {
      return 0;
    }
    for (;;) {
      const ssize_t got = ::read(fd_, out, max_bytes);
      if (got >= 0) {
        return static_cast<size_t>(got);
      }
      if (errno == EINTR) {
        continue;
      }
      error_ = std::string("read: ") + std::strerror(errno);
      return 0;
    }
  }

  // A zero-timeout poll: readable, hung up or failed all mean Read() will
  // not wait (regular files always poll readable).
  bool Ready() const override {
    pollfd p{fd_, POLLIN, 0};
    return fd_ < 0 || ::poll(&p, 1, 0) != 0;
  }

  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

 private:
  int fd_;
  bool own_;
  std::string error_;
};

class BufferByteSource final : public ByteSource {
 public:
  BufferByteSource(std::vector<uint8_t> data, size_t chunk_bytes)
      : data_(std::move(data)), chunk_(chunk_bytes == 0 ? data_.size() + 1 : chunk_bytes) {}

  size_t Read(uint8_t* out, size_t max_bytes) override {
    const size_t n = std::min({max_bytes, chunk_, data_.size() - pos_});
    if (n > 0) {  // an empty buffer's data() may be null, which memcpy must not get
      std::memcpy(out, data_.data() + pos_, n);
      pos_ += n;
    }
    return n;
  }

 private:
  std::vector<uint8_t> data_;
  size_t chunk_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<ByteSource> MakeFileByteSource(const std::string& path) {
  if (path == "-") {
    return std::make_unique<FdByteSource>(STDIN_FILENO, /*own_fd=*/false);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  std::string error = fd < 0 ? "cannot open " + path : std::string();
  return std::make_unique<FdByteSource>(fd, /*own_fd=*/true, std::move(error));
}

std::unique_ptr<ByteSource> MakeFdByteSource(int fd, bool own_fd) {
  return std::make_unique<FdByteSource>(fd, own_fd);
}

std::unique_ptr<ByteSource> MakeBufferByteSource(std::vector<uint8_t> data,
                                                 size_t chunk_bytes) {
  return std::make_unique<BufferByteSource>(std::move(data), chunk_bytes);
}

}  // namespace hk
