#include "serve/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace hk {
namespace {

bool Fail(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what + ": " + std::strerror(errno);
  }
  return false;
}

}  // namespace

int ListenTcp(uint16_t port, uint16_t* bound_port, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    Fail(err, "socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    Fail(err, "bind/listen 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      *bound_port = ntohs(addr.sin_port);
    }
  }
  return fd;
}

int ConnectTcp(const std::string& host, uint16_t port, std::string* err) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = (host == "localhost" || host.empty()) ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) {
      *err = "unsupported host '" + host + "' (numeric IPv4 or localhost only)";
    }
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    Fail(err, "socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail(err, "connect " + numeric + ":" + std::to_string(port));
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool ParseTcpEndpoint(const std::string& text, std::string* host, uint16_t* port) {
  constexpr const char kPrefix[] = "tcp://";
  if (text.rfind(kPrefix, 0) != 0) {
    return false;
  }
  const std::string rest = text.substr(sizeof(kPrefix) - 1);
  const size_t colon = rest.find_last_of(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
    return false;
  }
  const std::string port_text = rest.substr(colon + 1);
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return false;
  }
  *host = rest.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return true;
}

bool WriteAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

ReadLineStatus ReadLineEx(int fd, LineCarry* carry, std::string* line) {
  std::string& bytes = carry->bytes;
  size_t scanned = carry->pos;  // bytes before this hold no newline
  for (;;) {
    const size_t nl = bytes.find('\n', scanned);
    if (nl != std::string::npos) {
      line->assign(bytes, carry->pos, nl - carry->pos);
      if (!line->empty() && line->back() == '\r') {
        line->pop_back();
      }
      carry->pos = nl + 1;
      return ReadLineStatus::kLine;
    }
    // Every complete line has been taken: drop them before reading more.
    bytes.erase(0, carry->pos);
    carry->pos = 0;
    scanned = bytes.size();
    if (scanned > kMaxRequestLineBytes) {
      return ReadLineStatus::kTooLong;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // interrupted mid-read, not a disconnect: keep going
      }
      return ReadLineStatus::kError;
    }
    if (n == 0) {
      // EOF. With bytes in the carry the client died mid-request - that is
      // a protocol error the caller may want to count, not a clean close.
      return bytes.empty() ? ReadLineStatus::kEof : ReadLineStatus::kTruncated;
    }
    bytes.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace hk
