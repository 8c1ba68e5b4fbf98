#include "serve/line_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "serve/net.h"

namespace hk {
namespace {

// Verbs that can block for milliseconds: CHECKPOINT writes and fsyncs a
// file, ATTACH opens and reads a source (a FIFO's open waits for a
// writer), CREATE allocates and zeroes a sketch, DROP joins an ingest
// thread. The replies held before one of these are sent first.
bool MayBlock(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";  // what ServeCore's tokenizer skips
  const size_t begin = line.find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    return false;
  }
  const std::string_view verb = line.substr(begin, line.find_first_of(kSpace, begin) - begin);
  return verb == "CHECKPOINT" || verb == "ATTACH" || verb == "CREATE" || verb == "DROP";
}

}  // namespace

LineServer::LineServer(ServeCore& core) : core_(core) {
  telemetry::Registry& registry = telemetry::Registry::Get();
  tm_connections_ = registry.GetCounter("hk_serve_connections_total",
                                        "Protocol connections accepted and served");
  tm_connections_refused_ = registry.GetCounter(
      "hk_serve_connections_refused_total",
      "Connections closed at accept: past the connection cap, or no thread available");
  tm_protocol_errors_ = registry.GetCounter(
      "hk_serve_protocol_errors_total",
      "Connections that ended mid-request (truncated or overlong line) or on a socket error");
}

bool LineServer::Start(uint16_t port, std::string* err) {
  if (listen_fd_.load(std::memory_order_acquire) >= 0) {
    if (err != nullptr) {
      *err = "already started";
    }
    return false;
  }
  const int fd = ListenTcp(port, &port_, err);
  if (fd < 0) {
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  listen_fd_.store(fd, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void LineServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd < 0) {
    return;
  }
  // shutdown() wakes the blocked accept(); the fd stays open until the
  // acceptor has joined so its number cannot be reused under the loop.
  ::shutdown(fd, SHUT_RDWR);
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  ::close(fd);
  std::list<Client> clients;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (const Client& client : clients_) {
      if (!client.done) {
        ::shutdown(client.fd, SHUT_RDWR);
      }
    }
    clients.swap(clients_);
  }
  for (Client& client : clients) {
    client.thread.join();
  }
}

void LineServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.load(std::memory_order_acquire), nullptr, nullptr,
                             SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // listener fd gone
    }
    // No TCP_NODELAY here, on purpose: with Nagle on, the replies to a
    // pipelined burst coalesce, which measured faster end to end (README,
    // "Running as a service").
    Admit(fd);
  }
}

void LineServer::Admit(int fd) {
  ReapFinished();
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    if (clients_.size() < kMaxConnections) {
      // The new thread marks its node done under clients_mu_, so it cannot
      // finish before its std::thread is stored.
      Client& client = clients_.emplace_back();
      client.fd = fd;
      try {
        client.thread = std::thread(&LineServer::ServeConnection, this, &client);
        tm_connections_->Add();
        return;
      } catch (const std::system_error&) {
        clients_.pop_back();  // out of threads: refuse like a full house
      }
    }
  }
  tm_connections_refused_->Add();
  const std::string reply =
      "ERR too many connections (limit " + std::to_string(kMaxConnections) + ")\n";
  WriteAll(fd, reply.data(), reply.size());
  ::close(fd);
}

void LineServer::ReapFinished() {
  std::list<Client> finished;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (auto it = clients_.begin(); it != clients_.end();) {
      const auto next = std::next(it);
      if (it->done) {
        finished.splice(finished.end(), clients_, it);
      }
      it = next;
    }
  }
  // Outside the lock: a finished thread may still be closing its fd.
  for (Client& client : finished) {
    client.thread.join();
  }
}

void LineServer::ServeConnection(Client* client) {
  const int fd = client->fd;
  LineCarry carry;
  std::string line;
  // Replies not yet sent, in request order.
  std::string replies;
  const auto send_replies = [&] {
    const bool sent = replies.empty() || WriteAll(fd, replies.data(), replies.size());
    replies.clear();
    return sent;
  };
  while (!stopping_.load(std::memory_order_acquire)) {
    const ReadLineStatus status = ReadLineEx(fd, &carry, &line);
    if (status == ReadLineStatus::kTooLong) {
      // A flood with no newline: say why, then drop the connection rather
      // than buffer it.
      const std::string reply =
          "ERR request line longer than " + std::to_string(kMaxRequestLineBytes) + " bytes\n";
      WriteAll(fd, reply.data(), reply.size());
    }
    if (status != ReadLineStatus::kLine) {
      // A clean EOF is just a client leaving; a truncated or overlong line
      // or a socket error ends a connection mid-request. Count those (the
      // daemon's own Stop() shutdown also surfaces as an error here -
      // stopping_ filters it out of the metric).
      if (status != ReadLineStatus::kEof && !stopping_.load(std::memory_order_acquire)) {
        tm_protocol_errors_->Add();
      }
      break;
    }
    if (line == "QUIT" || line == "quit") {
      replies += "OK bye\n";
      send_replies();
      break;
    }
    if (line == "SHUTDOWN" || line == "shutdown") {
      // The earlier replies go out before the daemon starts to exit.
      send_replies();
      shutdown_requested_.store(true, std::memory_order_release);
      WriteAll(fd, "OK shutting down\n", 17);
      break;
    }
    if (!replies.empty() && MayBlock(line) && !send_replies()) {
      break;
    }
    replies += core_.Execute(line);
    // Send before the next read could wait on the socket (no complete
    // request is left), or once the held replies pass the cap.
    if ((!carry.HasLine() || replies.size() > kMaxPendingReplyBytes) && !send_replies()) {
      break;
    }
  }
  {
    // Done before closing, so Stop() never shutdown()s a number the OS has
    // already handed to someone else.
    std::lock_guard<std::mutex> lock(clients_mu_);
    client->done = true;
  }
  ::close(fd);
}

}  // namespace hk
