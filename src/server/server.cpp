#include "src/server/server.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "src/crypto/session.hpp"
#include "src/exec/executor.hpp"

namespace mhhea::server {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("Server: ") + what + ": " +
                           std::strerror(errno));
}

/// Parsed-but-undispatched requests a connection may hold before the server
/// stops reading from it (TCP backpressure). Together with the global
/// in-flight budget this bounds every queue in the daemon: requests wait in
/// the client's socket, not in server memory.
constexpr std::size_t kMaxPendingPerConn = 32;

}  // namespace

/// Per-connection state. Owned by the I/O thread; executor tasks touch ONLY
/// the sessions (serialized by `busy`) and read `closed`.
struct Server::Conn {
  Conn(int fd_in, std::span<const std::uint8_t> master,
       std::span<const std::uint8_t> salt, int n_pairs, std::size_t max_frame,
       compress::Method compression)
      : fd(fd_in),
        parser(max_frame),
        // Outbound seals responses (s2c), inbound opens client containers
        // (c2s). Direction labels plus the random per-connection salt make
        // every (connection, direction) an independent cipher: both nonce
        // counters start at 0, so without the separation the request sealed
        // at nonce N, the response at nonce N, and nonce N on every other
        // connection would share one keystream (a two-time pad), and a
        // container could be replayed from one connection onto another.
        outbound(crypto::Session::from_master(master, s2c_context(salt), n_pairs,
                                              core::BlockParams::hardware())),
        inbound(crypto::Session::from_master(master, c2s_context(salt), n_pairs,
                                             core::BlockParams::hardware())),
        last_activity(Clock::now()),
        write_since(last_activity) {
    // Only the outbound direction compresses what we send; inbound opens are
    // method-agnostic (sealed-v2 containers self-describe).
    outbound.set_compression(compression);
  }

  int fd;
  FrameParser parser;
  std::deque<Frame> pending;          // parsed, not yet dispatched
  std::vector<std::uint8_t> wbuf;     // unflushed response bytes
  std::size_t woff = 0;
  bool busy = false;                  // one crypto task at a time
  bool close_after_flush = false;
  std::uint32_t epoll_mask = EPOLLIN;  // currently armed events
  std::atomic<bool> closed{false};
  crypto::Session outbound;
  crypto::Session inbound;
  Clock::time_point last_activity;
  Clock::time_point write_since;  // when the oldest unflushed byte last progressed
};

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.master.empty()) {
    throw std::invalid_argument("Server: master secret must be non-empty");
  }
  if (cfg_.max_inflight < 0 || cfg_.max_connections < 1 ||
      cfg_.request_timeout_ms < 1) {
    throw std::invalid_argument(
        "Server: max_inflight must be >= 0, max_connections and "
        "request_timeout_ms >= 1");
  }

  // A throwing constructor never runs the destructor, so every failure from
  // here on closes the fds opened so far and removes a socket file it bound
  // before reporting errno.
  bool bound_uds = false;
  const auto fail = [&](const char* what) {
    const int err = errno;
    for (const int fd : {listen_fd_, epoll_fd_, wake_fd_}) {
      if (fd >= 0) ::close(fd);
    }
    if (bound_uds) ::unlink(cfg_.uds_path.c_str());
    errno = err;
    throw_errno(what);
  };

  if (!cfg_.uds_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.uds_path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("Server: UNIX socket path too long");
    }
    std::memcpy(addr.sun_path, cfg_.uds_path.c_str(), cfg_.uds_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) fail("socket(AF_UNIX)");
    ::unlink(cfg_.uds_path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      fail("bind(AF_UNIX)");
    }
    bound_uds = true;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) fail("socket(AF_INET)");
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      fail("bind(AF_INET)");
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) < 0) {
      fail("getsockname");
    }
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 128) < 0) fail("listen");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) fail("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) fail("epoll_ctl(listen)");
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) fail("epoll_ctl(wake)");
}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (!cfg_.uds_path.empty()) ::unlink(cfg_.uds_path.c_str());
}

void Server::start() {
  std::lock_guard lock(lifecycle_mu_);
  if (running_.load()) return;
  stop_requested_.store(false);
  io_thread_ = std::thread([this] { io_loop(); });
  running_.store(true);
}

void Server::stop() {
  // The mutex makes concurrent stop() calls (or stop() racing the
  // destructor) single-winner: joining one std::thread from two threads is
  // undefined behavior.
  std::lock_guard lock(lifecycle_mu_);
  if (!running_.load()) return;
  stop_requested_.store(true);
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  if (io_thread_.joinable()) io_thread_.join();
  running_.store(false);
  // Close the listener too: a connection sitting in the accept backlog when
  // stop() fired was never registered, so nothing above closed it — the
  // kernel resets it with the listener, and the client sees EOF instead of
  // a silent hang.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load();
  s.rejected_conns = rejected_conns_.load();
  s.requests_ok = requests_ok_.load();
  s.requests_error = requests_error_.load();
  s.shed = shed_.load();
  s.timeouts = timeouts_.load();
  s.accept_failures = accept_failures_.load();
  return s;
}

void Server::update_epoll(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load()) return;
  const bool want_write = conn->woff < conn->wbuf.size();
  // Backpressure: a connection at its pending cap is simply not read until
  // dispatches drain the queue — its requests wait in the socket buffers.
  const bool want_read =
      conn->pending.size() < kMaxPendingPerConn && !conn->close_after_flush;
  const std::uint32_t mask =
      (want_read ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
      (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (mask == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn->fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->epoll_mask = mask;
}

void Server::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      accept_failures_.fetch_add(1);
      if (errno == EMFILE || errno == ENFILE) set_accepting(false);
      return;  // anything else is transient: the next wakeup retries
    }
    if (conns_.size() >= static_cast<std::size_t>(cfg_.max_connections)) {
      // Bounded accept: over the cap the daemon refuses outright rather
      // than keeping a connection it cannot serve.
      ::close(fd);
      rejected_conns_.fetch_add(1);
      continue;
    }
    std::array<std::uint8_t, kConnSaltBytes> salt;
    if (::getentropy(salt.data(), salt.size()) != 0) {
      // No entropy, no connection: serving without a fresh salt would put
      // this connection's keystream in every other connection's nonce space.
      ::close(fd);
      rejected_conns_.fetch_add(1);
      continue;
    }
    auto conn = std::make_shared<Conn>(fd, cfg_.master, salt, cfg_.n_pairs,
                                       cfg_.max_frame_bytes, cfg_.compression);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, conn);
    accepted_.fetch_add(1);
    // The hello MUST be the first frame out: the client cannot derive its
    // session pair (and so cannot seal a request) until it has the salt. The
    // trailing mask byte advertises every method this build opens.
    std::array<std::uint8_t, kHelloBodyBytes> hello;
    std::copy(salt.begin(), salt.end(), hello.begin());
    hello[kConnSaltBytes] = compress::kMethodMaskAll;
    queue_response(conn, Status::kHello, hello);
  }
}

void Server::set_accepting(bool on) {
  if (accepting_ == on) return;
  epoll_event ev{};
  ev.events = on ? EPOLLIN : 0u;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
  accepting_ = on;
  if (!on) accept_paused_at_ = Clock::now();
}

void Server::queue_response(const std::shared_ptr<Conn>& conn, Status status,
                            std::span<const std::uint8_t> body) {
  append_wbuf(conn, encode_response(status, body));
}

void Server::append_wbuf(const std::shared_ptr<Conn>& conn,
                         std::span<const std::uint8_t> bytes) {
  // wbuf is cleared whenever it flushes fully, so non-empty means bytes are
  // already waiting and their stall clock is running.
  if (conn->wbuf.empty()) conn->write_since = Clock::now();
  conn->wbuf.insert(conn->wbuf.end(), bytes.begin(), bytes.end());
  handle_writable(conn);  // opportunistic flush; arms EPOLLOUT on partial
}

void Server::handle_writable(const std::shared_ptr<Conn>& conn) {
  while (conn->woff < conn->wbuf.size()) {
    // MSG_NOSIGNAL: a peer that hung up makes this fail with EPIPE instead
    // of raising SIGPIPE, whose default action would kill the process.
    const ssize_t n = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                             conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<std::size_t>(n);
      conn->write_since = Clock::now();  // progress resets the stall clock
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(conn);  // peer gone mid-write
    return;
  }
  if (conn->woff == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woff = 0;
    if (conn->close_after_flush) {
      close_conn(conn);
      return;
    }
  }
  update_epoll(conn);
}

void Server::handle_readable(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->last_activity = Clock::now();
      conn->parser.feed(std::span(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // n == 0: orderly shutdown (possibly mid-frame — the disconnect case);
    // n < 0: hard error. Either way the connection is done.
    close_conn(conn);
    return;
  }
  while (auto f = conn->parser.next()) {
    conn->pending.push_back(std::move(*f));
  }
  switch (conn->parser.error()) {
    case FrameParser::Error::kNone:
      break;
    case FrameParser::Error::kZeroLength:
      requests_error_.fetch_add(1);
      conn->close_after_flush = true;
      queue_response(conn, Status::kBadRequest, {});
      return;
    case FrameParser::Error::kTooLarge:
      requests_error_.fetch_add(1);
      conn->close_after_flush = true;
      queue_response(conn, Status::kTooLarge, {});
      return;
  }
  pump_requests(conn);
}

void Server::pump_requests(const std::shared_ptr<Conn>& conn) {
  bool dispatched = false;
  while (!dispatched && !conn->busy && !conn->pending.empty()) {
    Frame req = std::move(conn->pending.front());
    conn->pending.pop_front();
    const auto op = static_cast<Op>(req.tag);
    if (op == Op::kPing) {
      requests_ok_.fetch_add(1);
      queue_response(conn, Status::kOk, {});
      if (conn->closed.load()) return;
      continue;
    }
    if (op != Op::kSeal && op != Op::kOpen) {
      requests_error_.fetch_add(1);
      queue_response(conn, Status::kBadRequest, {});
      if (conn->closed.load()) return;
      continue;
    }
    // Overload shedding: the budget is checked BEFORE any crypto work is
    // queued, and the reject is a complete retriable response — the client
    // backs off; the daemon's queues stay bounded.
    int cur = inflight_.load();
    bool admitted = false;
    while (cur < cfg_.max_inflight) {
      if (inflight_.compare_exchange_weak(cur, cur + 1)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      shed_.fetch_add(1);
      queue_response(conn, Status::kOverloaded, {});
      if (conn->closed.load()) return;
      continue;
    }
    conn->busy = true;
    try {
      // wake_fd_ is captured by value: after the completion is pushed the
      // Server may be torn down as soon as inflight_ hits 0, so the task
      // must not read members past its own decrement below.
      exec::Executor::shared().submit([this, conn, wake_fd = wake_fd_,
                                       body = std::move(req.body), op] {
        Status status = Status::kOk;
        std::vector<std::uint8_t> out;
        try {
          if (op == Op::kSeal) {
            out = conn->outbound.seal(body);
          } else {
            out = conn->inbound.open(body);
          }
        } catch (const crypto::ReplayError&) {
          status = Status::kReplayed;
          out.clear();
        } catch (const crypto::MacError&) {
          status = Status::kAuthFailed;
          out.clear();
        } catch (const std::invalid_argument&) {
          status = Status::kBadRequest;
          out.clear();
        } catch (const std::length_error&) {
          status = Status::kBadRequest;
          out.clear();
        } catch (...) {
          // Anything else (bad_alloc on a near-cap frame, a bug deep in the
          // cipher) must not escape a bare executor task — that terminates
          // the daemon. Fail the one request instead.
          status = Status::kInternal;
          out.clear();
        }
        if (status == Status::kOk) {
          requests_ok_.fetch_add(1);
        } else {
          requests_error_.fetch_add(1);
        }
        std::vector<std::uint8_t> resp = encode_response(status, out);
        {
          std::lock_guard lock(completion_mu_);
          completions_.emplace_back(conn, std::move(resp));
        }
        const std::uint64_t one = 1;
        (void)!::write(wake_fd, &one, sizeof(one));
        // LAST member access: io_loop's shutdown gate spins on inflight_, so
        // decrementing only after the wake write keeps the Server (and its
        // eventfd) alive through every earlier line of this task.
        inflight_.fetch_sub(1);
      });
    } catch (...) {
      // Executor rejected the submission (process-wide shutdown): fail the
      // request instead of leaking the in-flight slot and the busy flag.
      inflight_.fetch_sub(1);
      conn->busy = false;
      requests_error_.fetch_add(1);
      queue_response(conn, Status::kInternal, {});
      if (conn->closed.load()) return;
      continue;
    }
    dispatched = true;  // one crypto request in flight per connection
  }
  update_epoll(conn);  // pending drained below the cap re-arms EPOLLIN
}

void Server::drain_completions() {
  std::vector<std::pair<std::shared_ptr<Conn>, std::vector<std::uint8_t>>> done;
  {
    std::lock_guard lock(completion_mu_);
    done.swap(completions_);
  }
  for (auto& [conn, resp] : done) {
    // inflight_ is NOT decremented here — the task itself does that after
    // its eventfd wake, so the shutdown drain gate covers the whole task.
    conn->busy = false;
    if (conn->closed.load()) continue;  // client left before the answer
    append_wbuf(conn, resp);
    if (!conn->closed.load()) pump_requests(conn);
  }
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true)) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  set_accepting(true);  // a freed fd lets a paused listener accept again
}

void Server::sweep_timeouts() {
  const auto now = Clock::now();
  const auto limit = std::chrono::milliseconds(cfg_.request_timeout_ms);
  std::vector<std::shared_ptr<Conn>> victims;
  for (const auto& [fd, conn] : conns_) {
    // Cut (a) slow loris — a started frame that stalls mid-delivery — and
    // (b) the write-side twin: a client that sends requests but never reads
    // responses, pinning its wbuf and connection slot forever.
    const bool read_stalled =
        conn->parser.mid_frame() && now - conn->last_activity > limit;
    const bool write_stalled =
        conn->woff < conn->wbuf.size() && now - conn->write_since > limit;
    if (read_stalled || write_stalled) {
      victims.push_back(conn);
    }
  }
  for (const auto& conn : victims) {
    timeouts_.fetch_add(1);
    close_conn(conn);
  }
}

void Server::io_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // The tick bounds how late a slow-loris sweep can run; 100 ms is far
  // below any sane request timeout and costs nothing at idle.
  const int tick_ms = std::min(100, cfg_.request_timeout_ms);
  while (!stop_requested_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed — nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t v;
        (void)!::read(wake_fd_, &v, sizeof(v));
        drain_completions();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      const std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 && conn->wbuf.empty()) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(conn);
      if (!conn->closed.load() && (events[i].events & EPOLLOUT) != 0) {
        handle_writable(conn);
      }
    }
    drain_completions();
    sweep_timeouts();
    // A listener paused on fd exhaustion retries once per tick even when no
    // connection of ours closes: the fds may come free elsewhere.
    if (!accepting_ && Clock::now() - accept_paused_at_ >= std::chrono::milliseconds(tick_ms)) {
      set_accepting(true);
    }
  }
  // Graceful drain: stop reading, let in-flight crypto finish so executor
  // tasks never touch freed server or connection state, then close
  // everything. A task decrements inflight_ only after its eventfd wake, so
  // once this gate opens no task will read a member (or write the eventfd)
  // again.
  while (inflight_.load() > 0) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 10);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == wake_fd_) {
        std::uint64_t v;
        (void)!::read(wake_fd_, &v, sizeof(v));
      }
    }
    drain_completions();
  }
  // The last task may have completed between the drain above and the gate
  // check: its completion is already pushed (push precedes the decrement),
  // so one final drain flushes every remaining response.
  drain_completions();
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) all.push_back(conn);
  for (const auto& conn : all) close_conn(conn);
}

}  // namespace mhhea::server
