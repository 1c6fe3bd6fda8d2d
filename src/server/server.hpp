// mhhead — the long-lived encryption service daemon.
//
// Architecture: ONE epoll I/O thread owns every socket; crypto runs as tasks
// on the process-wide FIFO executor (src/exec/executor.hpp). The
// I/O thread never blocks on crypto and the executor threads never touch a
// file descriptor — completed responses travel back over a completion queue
// drained via an eventfd wakeup. Per connection the daemon keeps a pair of
// crypto::Sessions (outbound seals under the s2c context, inbound opens
// under c2s — both derived from the master secret plus the random
// per-connection salt carried by the hello frame, see protocol.hpp), and a
// `busy` flag serializes requests per connection so a Session is only ever
// driven by one executor task at a time — pipelined requests queue in
// arrival order.
//
// Overload policy is explicit, not emergent: at most `max_inflight` crypto
// requests run or wait in the executor at once; a request arriving beyond
// that is answered immediately with Status::kOverloaded (retriable) and
// costs no crypto work — the daemon sheds instead of queuing without bound.
// Connections beyond `max_connections` are accepted and closed on the spot.
// A connection that starts a frame and stalls (slow loris) is cut when the
// partial frame outlives `request_timeout_ms`; so is one that stops reading
// its responses — unflushed response bytes that make no progress for
// `request_timeout_ms` cut the connection too, releasing its slot and wbuf.
//
// The listener is TCP (loopback by default) or a UNIX domain socket;
// tools/mhhead.cpp is the CLI wrapper and bench/bench_server.cpp the
// open-loop load generator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/server/protocol.hpp"

namespace mhhea::server {

struct ServerConfig {
  /// Non-empty: listen on this UNIX domain socket path (unlinked on stop).
  std::string uds_path;
  /// TCP fallback when `uds_path` is empty: loopback port; 0 picks an
  /// ephemeral port (read it back with Server::port()).
  std::uint16_t tcp_port = 0;
  /// Session master secret shared with clients out of band. Must be
  /// non-empty (crypto::Session requires it).
  std::vector<std::uint8_t> master;
  /// Hiding-key pair count forwarded to Session::from_master.
  int n_pairs = 8;
  /// Crypto requests allowed in flight across all connections before the
  /// server sheds with kOverloaded. 0 sheds every request (a deterministic
  /// overload for tests).
  int max_inflight = 128;
  /// Live connections beyond this are closed straight after accept.
  int max_connections = 1024;
  /// A connection with a started-but-unfinished frame older than this is
  /// closed (slow-loris defense), as is one whose unflushed response bytes
  /// make no write progress for this long (a client that sends but never
  /// reads) — so a shed/error response never sits unflushed past this bound.
  int request_timeout_ms = 5000;
  /// Frame length cap; larger prefixes get kTooLarge and the connection is
  /// closed without buffering the body.
  std::size_t max_frame_bytes = kMaxFrameDefault;
  /// Compression method for the daemon's outbound (response) seals —
  /// compress-then-encrypt with automatic fallback, so `lzss`/`huffman`
  /// never produce a larger frame than `raw`. Opening is method-agnostic
  /// regardless: clients may use any method the hello mask advertises.
  compress::Method compression = compress::Method::raw;
};

/// Monotonic counters, readable while the server runs.
struct ServerStats {
  std::uint64_t accepted = 0;        // connections accepted and registered
  std::uint64_t rejected_conns = 0;  // closed at accept (connection cap)
  std::uint64_t requests_ok = 0;     // kOk responses
  std::uint64_t requests_error = 0;  // kBadRequest/kAuthFailed/kReplayed/kTooLarge/kInternal
  std::uint64_t shed = 0;            // kOverloaded responses
  std::uint64_t timeouts = 0;        // connections cut by the request timeout
  std::uint64_t accept_failures = 0; // accept4 errors other than EAGAIN (EMFILE, ...)
};

class Server {
 public:
  /// Binds and listens (throws std::runtime_error on socket failures,
  /// std::invalid_argument on bad configuration) but does not serve yet.
  explicit Server(ServerConfig cfg);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// stop()s if still running.
  ~Server();

  /// Spawn the I/O thread and begin serving.
  void start();
  /// Stop accepting, close every connection, join the I/O thread. Idempotent.
  void stop();

  /// The bound TCP port (0 when listening on a UNIX socket).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Conn;

  void io_loop();
  void handle_accept();
  void handle_readable(const std::shared_ptr<Conn>& conn);
  void handle_writable(const std::shared_ptr<Conn>& conn);
  /// Start the next queued request on `conn` if it is idle: ping answered
  /// inline, crypto dispatched to the executor or shed.
  void pump_requests(const std::shared_ptr<Conn>& conn);
  void queue_response(const std::shared_ptr<Conn>& conn, Status status,
                      std::span<const std::uint8_t> body);
  /// Append raw response bytes to the connection's write buffer (starting
  /// the write-stall clock if it was empty) and flush opportunistically.
  void append_wbuf(const std::shared_ptr<Conn>& conn,
                   std::span<const std::uint8_t> bytes);
  void drain_completions();
  void close_conn(const std::shared_ptr<Conn>& conn);
  void sweep_timeouts();
  void update_epoll(const std::shared_ptr<Conn>& conn);
  /// Arm or disarm EPOLLIN on the listener. Out of fds, a level-triggered
  /// listener would report the queued connection again at once, forever;
  /// accept is paused instead until a connection closes or a tick passes.
  void set_accepting(bool on);

  ServerConfig cfg_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completion-queue and stop wakeups
  std::uint16_t port_ = 0;
  std::thread io_thread_;
  // Serializes start()/stop() (and the destructor's stop()): concurrent
  // stop() calls would otherwise race on io_thread_.join(), which is UB.
  std::mutex lifecycle_mu_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  // Listener arming, I/O thread only (see set_accepting).
  bool accepting_ = true;
  std::chrono::steady_clock::time_point accept_paused_at_;

  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // I/O thread only
  // Admitted crypto tasks not yet fully finished. Incremented on the I/O
  // thread before submit; decremented by the task itself AFTER its eventfd
  // wake (its very last member access), so io_loop's shutdown drain gate
  // (`inflight_ == 0`) proves no task can still touch the Server.
  std::atomic<int> inflight_{0};

  // Executor tasks push {conn, response}; the I/O thread drains after an
  // eventfd wakeup.
  std::mutex completion_mu_;
  std::vector<std::pair<std::shared_ptr<Conn>, std::vector<std::uint8_t>>> completions_;

  // Stats counters (atomic: written on both the I/O thread and executor
  // threads, read from any).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_conns_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
};

}  // namespace mhhea::server
