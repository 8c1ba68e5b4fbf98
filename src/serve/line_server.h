// LineServer: the hk_serve wire transport. Listens on 127.0.0.1, serves up
// to kMaxConnections clients at once (one thread each - protocol
// connections are few and long-lived), reads newline-delimited request
// lines, and answers each with ServeCore::Execute()'s response. A client
// past the cap, or one no thread can be started for, reads "ERR too many
// connections (limit 256)" and is closed. A finished connection's thread
// is joined at the latest when the next client is accepted. Two
// connection-level verbs are handled here rather than in the core: QUIT
// closes the connection, and SHUTDOWN asks the whole daemon to exit (the
// binary polls shutdown_requested()).
//
// When replies are sent: a connection executes every complete request
// line it has already received, in order, and sends their replies with
// one write when no complete line is left, as soon as they pass
// kMaxPendingReplyBytes, before a request that can block for milliseconds
// (CHECKPOINT, ATTACH, CREATE, DROP), and before the reply to QUIT or
// SHUTDOWN. A client that writes one request at a time therefore gets one
// write per reply; a pipelined burst gets one write (per 64 KiB) for the
// whole burst. The trade-off: a held reply also waits for the queries
// after it in the burst, and an exact query on a threaded Sharded
// instance first waits for the packets already in its rings to be
// applied. Nagle stays on for accepted sockets.
#ifndef HK_SERVE_LINE_SERVER_H_
#define HK_SERVE_LINE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "serve/serve_core.h"
#include "telemetry/telemetry.h"

namespace hk {

// Open connections one LineServer serves at once.
inline constexpr size_t kMaxConnections = 256;

// Replies one connection holds before it sends them, while more complete
// requests wait in its read buffer.
inline constexpr size_t kMaxPendingReplyBytes = 64 * 1024;

class LineServer {
 public:
  explicit LineServer(ServeCore& core);
  ~LineServer() { Stop(); }

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  // Bind 127.0.0.1:<port> (0 = ephemeral; port() reports the choice) and
  // start the accept loop. False with *err on bind failure.
  bool Start(uint16_t port, std::string* err);
  void Stop();

  uint16_t port() const { return port_; }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

 private:
  struct Client {
    int fd = -1;
    // Set by the client's own thread, under clients_mu_, before it closes
    // fd: Stop() then leaves the fd alone and the acceptor joins the thread.
    bool done = false;
    std::thread thread;
  };

  void AcceptLoop();
  // Serve `fd` on a new thread, or refuse it with an ERR line.
  void Admit(int fd);
  // Join the threads of every client that has finished.
  void ReapFinished();
  void ServeConnection(Client* client);

  ServeCore& core_;
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex clients_mu_;
  std::list<Client> clients_;  // a list: each thread holds its node's address

  telemetry::Counter* tm_connections_;
  telemetry::Counter* tm_connections_refused_;
  // Connections that ended mid-request (EOF with a partial line buffered)
  // or on a socket error - never bumped for a clean QUIT/EOF.
  telemetry::Counter* tm_protocol_errors_;
};

}  // namespace hk

#endif  // HK_SERVE_LINE_SERVER_H_
