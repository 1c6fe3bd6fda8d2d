// mhhead — the long-lived encryption service daemon.
//
// Architecture: N reactor threads, N being the CPUs in the process's
// affinity mask (sched_getaffinity, so `taskset` sets it). Each reactor owns
// an epoll set, its connections and their crypto::Session pairs, and runs a
// connection's seals and opens inline on that thread: a request is read,
// sealed or opened, and answered without crossing threads. Reactor 0 also
// accepts: it derives the connection's Session pair (outbound seals under
// the s2c context, inbound opens under c2s — both from the master secret
// plus the random per-connection salt the hello frame carries, see
// protocol.hpp), sends the hello itself and then hands the connection to
// the next reactor in round-robin order through that reactor's inbox and
// eventfd. A connection's requests run in arrival order by construction;
// a reactor runs at most one crypto request per connection per loop turn,
// so one connection's pipelined max-frame seals cannot starve the others
// on its reactor for more than a request at a time.
//
// Overload policy is explicit, not emergent: at most `max_inflight` crypto
// requests are admitted and not yet answered across the server, counted
// from the moment a request's frame is parsed, queued or running. A request
// parsed beyond that keeps no body and is answered with
// Status::kOverloaded (retriable) in its turn, at no crypto cost — the
// daemon sheds instead of queuing without bound. A connection whose
// unflushed responses exceed 256 KiB runs no further request until its
// client reads them.
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
  /// Crypto requests admitted and not yet answered (queued or running)
  /// across all connections before the server sheds with kOverloaded.
  /// 0 sheds every request (a deterministic overload for tests).
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

/// Frame-length cap for a client reading replies to requests of up to
/// `max_frame_bytes`: the status byte plus Session::max_sealed_size of the
/// request cap, under a key of Key::kMaxPairs pairs of span 0. Such a pair
/// embeds one bit per block, the least any pair can, so no connection's
/// session seals a larger container — a reply parser with this cap never
/// reports kTooLarge on a reply the server sent.
[[nodiscard]] std::size_t max_reply_frame(std::size_t max_frame_bytes);

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

  /// Spawn the reactor threads and begin serving.
  void start();
  /// Stop accepting, close every connection, join the reactors. Idempotent.
  void stop();

  /// The bound TCP port (0 when listening on a UNIX socket).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Conn;
  struct Reactor;

  void run(Reactor& r);
  void handle_accept();
  /// Register a connection handed over by reactor 0 with `r`'s epoll set.
  void adopt(Reactor& r, const std::shared_ptr<Conn>& conn);
  void handle_readable(const std::shared_ptr<Conn>& conn);
  void handle_writable(const std::shared_ptr<Conn>& conn);
  /// Answer `conn`'s queued requests in order up to and including one
  /// crypto request, run inline; a connection with more left goes back on
  /// its reactor's ready list for the next loop turn.
  void pump_requests(const std::shared_ptr<Conn>& conn);
  void mark_ready(const std::shared_ptr<Conn>& conn);
  /// Append a response frame to the connection's write buffer (starting the
  /// write-stall clock if it was empty) and flush opportunistically.
  void queue_response(const std::shared_ptr<Conn>& conn, Status status,
                      std::span<const std::uint8_t> body);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void sweep_timeouts(Reactor& r);
  void update_epoll(const std::shared_ptr<Conn>& conn);
  /// Arm or disarm EPOLLIN on the listener (reactor 0). Out of fds, a
  /// level-triggered listener would report the queued connection again at
  /// once, forever; accept is paused instead until a tick passes.
  void set_accepting(bool on);

  ServerConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  // Serializes start()/stop() (and the destructor's stop()): concurrent
  // stop() calls would otherwise race on joining the reactor threads, which
  // is UB.
  std::mutex lifecycle_mu_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  // Reactor 0 only: listener arming (see set_accepting) and the round-robin
  // cursor over reactors_ for accepted connections.
  bool accepting_ = true;
  std::chrono::steady_clock::time_point accept_paused_at_;
  std::size_t next_reactor_ = 0;

  // Live connections across reactors (the max_connections cap) and crypto
  // requests admitted but not yet answered (the max_inflight budget).
  std::atomic<int> live_conns_{0};
  std::atomic<int> inflight_{0};

  // Stats counters (atomic: written by every reactor, read from any thread).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_conns_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
};

}  // namespace mhhea::server
