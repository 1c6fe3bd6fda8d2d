#include "src/server/server.hpp"

#include <netinet/in.h>
#include <sched.h>
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
#include <thread>
#include <unordered_map>

#include "src/crypto/session.hpp"

namespace mhhea::server {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("Server: ") + what + ": " +
                           std::strerror(errno));
}

/// Parsed-but-unanswered requests a connection may hold before the server
/// stops reading from it (TCP backpressure). Together with the global
/// in-flight budget this bounds every queue in the daemon: requests wait in
/// the client's socket, not in server memory.
constexpr std::size_t kMaxPendingPerConn = 32;

/// Unflushed response bytes above which a connection runs no further
/// request until its client reads: a client that pipelines seals and never
/// reads holds at most this plus one response before the write-stall
/// timeout cuts it.
constexpr std::size_t kMaxUnflushedBytes = std::size_t{256} << 10;

/// One reactor per CPU the process may run on.
std::size_t reactor_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

bool is_crypto(Op op) { return op == Op::kSeal || op == Op::kOpen; }

/// A parsed request waiting its turn. An admitted crypto request holds one
/// max_inflight slot from parse until it is answered; a shed one keeps no
/// body and is answered kOverloaded in its turn.
struct Request {
  Op op;
  bool shed = false;
  std::vector<std::uint8_t> body;
};

}  // namespace

std::size_t max_reply_frame(std::size_t max_frame_bytes) {
  const core::BlockParams params = core::BlockParams::hardware();
  const std::uint8_t master[] = {0};  // public: only the size bound is read
  const crypto::Session worst(
      master, core::Key(std::vector<core::KeyPair>(core::Key::kMaxPairs), params), params);
  return 1 + worst.max_sealed_size(max_frame_bytes);
}

/// Per-connection state, touched only by the thread that owns it: reactor 0
/// until the hello is sent and the connection is handed off, its home
/// reactor from then on.
struct Server::Conn {
  Conn(Reactor& home_in, int fd_in, std::span<const std::uint8_t> master,
       std::span<const std::uint8_t> salt, int n_pairs, std::size_t max_frame,
       compress::Method compression)
      : home(home_in),
        fd(fd_in),
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

  [[nodiscard]] std::size_t unflushed() const { return wbuf.size() - woff; }

  /// Send what `wbuf` holds until done or EAGAIN; false when the peer is
  /// gone. A full flush empties the buffer and gives back capacity above
  /// the retained size.
  bool flush() {
    while (woff < wbuf.size()) {
      // MSG_NOSIGNAL: a peer that hung up makes this fail with EPIPE instead
      // of raising SIGPIPE, whose default action would kill the process.
      const ssize_t n = ::send(fd, wbuf.data() + woff, wbuf.size() - woff, MSG_NOSIGNAL);
      if (n > 0) {
        woff += static_cast<std::size_t>(n);
        write_since = Clock::now();  // progress resets the stall clock
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    woff = 0;
    wbuf.clear();
    if (wbuf.capacity() > kRetainedBufferBytes) std::vector<std::uint8_t>().swap(wbuf);
    return true;
  }

  Reactor& home;
  int fd;
  FrameParser parser;
  std::deque<Request> pending;        // parsed, not yet answered
  std::vector<std::uint8_t> wbuf;     // unflushed response bytes
  std::size_t woff = 0;
  bool close_after_flush = false;
  bool closed = false;
  bool ready = false;                 // on home.ready
  std::uint32_t epoll_mask = EPOLLIN;  // currently armed events
  crypto::Session outbound;
  crypto::Session inbound;
  Clock::time_point last_activity;
  Clock::time_point write_since;  // when the oldest unflushed byte last progressed
};

/// One event loop: its epoll set, its connections, and the inbox through
/// which reactor 0 hands it accepted ones.
struct Server::Reactor {
  Reactor() = default;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;
  ~Reactor();

  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: inbox hand-offs and the stop wakeup
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  // Connections with requests left to run, revisited next loop turn.
  std::vector<std::shared_ptr<Conn>> ready;
  std::mutex inbox_mu;
  std::vector<std::shared_ptr<Conn>> inbox;  // guarded by inbox_mu
  std::thread thread;  // runs Server::run on the members above
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
  // here on closes the listener and removes a socket file it bound before
  // reporting errno.
  bool bound_uds = false;
  const auto fail = [&](const char* what) {
    const int err = errno;
    // reactors_ is a member: unwinding destroys it, closing its fds.
    if (listen_fd_ >= 0) ::close(listen_fd_);
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

  const std::size_t n_reactors = reactor_count();
  for (std::size_t i = 0; i < n_reactors; ++i) {
    auto& r = *reactors_.emplace_back(std::make_unique<Reactor>());
    r.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (r.epoll_fd < 0) fail("epoll_create1");
    r.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (r.wake_fd < 0) fail("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r.wake_fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, r.wake_fd, &ev) < 0) fail("epoll_ctl(wake)");
  }
  // Only reactor 0 accepts. A listener in every epoll set with
  // EPOLLEXCLUSIVE would wake the first idle set for every connection,
  // piling an idle daemon's connections onto one reactor.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    fail("epoll_ctl(listen)");
  }
}

Server::Reactor::~Reactor() {
  if (epoll_fd >= 0) ::close(epoll_fd);
  if (wake_fd >= 0) ::close(wake_fd);
}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!cfg_.uds_path.empty()) ::unlink(cfg_.uds_path.c_str());
}

void Server::start() {
  std::lock_guard lock(lifecycle_mu_);
  if (running_.load()) return;
  stop_requested_.store(false);
  // Set first: if a thread fails to start, stop() still joins the others.
  running_.store(true);
  for (auto& r : reactors_) {
    r->thread = std::thread([this, &rr = *r] { run(rr); });
  }
}

void Server::stop() {
  // The mutex makes concurrent stop() calls (or stop() racing the
  // destructor) single-winner: joining one std::thread from two threads is
  // undefined behavior.
  std::lock_guard lock(lifecycle_mu_);
  if (!running_.load()) return;
  stop_requested_.store(true);
  const std::uint64_t one = 1;
  for (auto& r : reactors_) (void)!::write(r->wake_fd, &one, sizeof(one));
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  // Every reactor closed its own connections on the way out; a connection
  // reactor 0 handed off after its target had stopped is still in an inbox.
  for (auto& r : reactors_) {
    for (const auto& conn : r->inbox) {
      ::close(conn->fd);
      live_conns_.fetch_sub(1);
    }
    r->inbox.clear();
  }
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
  if (conn->closed) return;
  const bool want_write = conn->unflushed() > 0;
  // Backpressure: a connection at its pending cap is simply not read until
  // answers drain the queue — its requests wait in the socket buffers.
  const bool want_read =
      conn->pending.size() < kMaxPendingPerConn && !conn->close_after_flush;
  const std::uint32_t mask =
      (want_read ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
      (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (mask == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn->fd;
  (void)::epoll_ctl(conn->home.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->epoll_mask = mask;
}

void Server::handle_accept() {
  Reactor& r0 = *reactors_[0];
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      accept_failures_.fetch_add(1);
      if (errno == EMFILE || errno == ENFILE) set_accepting(false);
      return;  // anything else is transient: the next wakeup retries
    }
    if (live_conns_.load() >= cfg_.max_connections) {
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
    Reactor& home = *reactors_[next_reactor_];
    next_reactor_ = (next_reactor_ + 1) % reactors_.size();
    auto conn = std::make_shared<Conn>(home, fd, cfg_.master, salt, cfg_.n_pairs,
                                       cfg_.max_frame_bytes, cfg_.compression);
    // The hello MUST be the first frame out: the client cannot derive its
    // session pair (and so cannot seal a request) until it has the salt. The
    // trailing mask byte advertises every method this build opens. It is
    // sent here, before the hand-off, so the handshake never waits on
    // another reactor; what the socket does not take goes along in wbuf.
    std::array<std::uint8_t, kHelloBodyBytes> hello;
    std::copy(salt.begin(), salt.end(), hello.begin());
    hello[kConnSaltBytes] = compress::kMethodMaskAll;
    conn->wbuf = encode_response(Status::kHello, hello);
    if (!conn->flush()) {
      ::close(fd);
      continue;
    }
    live_conns_.fetch_add(1);
    accepted_.fetch_add(1);
    if (&home == &r0) {
      adopt(home, conn);
      continue;
    }
    {
      std::lock_guard lock(home.inbox_mu);
      home.inbox.push_back(std::move(conn));
    }
    const std::uint64_t one = 1;
    (void)!::write(home.wake_fd, &one, sizeof(one));
  }
}

void Server::adopt(Reactor& r, const std::shared_ptr<Conn>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->unflushed() > 0 ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    ::close(conn->fd);
    live_conns_.fetch_sub(1);
    return;
  }
  conn->epoll_mask = ev.events;
  r.conns.emplace(conn->fd, conn);
}

void Server::set_accepting(bool on) {
  if (accepting_ == on) return;
  epoll_event ev{};
  ev.events = on ? EPOLLIN : 0u;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_MOD, listen_fd_, &ev);
  accepting_ = on;
  if (!on) accept_paused_at_ = Clock::now();
}

void Server::queue_response(const std::shared_ptr<Conn>& conn, Status status,
                            std::span<const std::uint8_t> body) {
  // wbuf is emptied whenever it flushes fully, so non-empty means bytes are
  // already waiting and their stall clock is running.
  auto& w = conn->wbuf;
  if (w.empty()) conn->write_since = Clock::now();
  put_u32le(static_cast<std::uint32_t>(1 + body.size()), w);
  w.push_back(static_cast<std::uint8_t>(status));
  w.insert(w.end(), body.begin(), body.end());
  handle_writable(conn);  // opportunistic flush; arms EPOLLOUT on partial
}

void Server::handle_writable(const std::shared_ptr<Conn>& conn) {
  if (!conn->flush()) {
    close_conn(conn);  // peer gone mid-write
    return;
  }
  if (conn->close_after_flush && conn->unflushed() == 0) {
    close_conn(conn);
    return;
  }
  update_epoll(conn);
}

void Server::handle_readable(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[16 * 1024];
  // Reading stops at the pending cap: the rest of a pipeline waits in the
  // socket, not in the parser buffer, however fast the client writes.
  while (conn->pending.size() < kMaxPendingPerConn) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      // n == 0: orderly shutdown (possibly mid-frame — the disconnect case);
      // n < 0: hard error. Either way the connection is done.
      close_conn(conn);
      return;
    }
    conn->last_activity = Clock::now();
    conn->parser.feed(std::span(buf, static_cast<std::size_t>(n)));
    while (auto f = conn->parser.next()) {
      Request req{static_cast<Op>(f->tag), false, std::move(f->body)};
      if (is_crypto(req.op)) {
        // Overload shedding: the budget is taken when the frame is parsed,
        // so a queued request counts as much as a running one. The reject
        // is a complete retriable response, answered in order at no crypto
        // cost.
        int cur = inflight_.load();
        while (cur < cfg_.max_inflight && !inflight_.compare_exchange_weak(cur, cur + 1)) {
        }
        if (cur >= cfg_.max_inflight) {
          req.shed = true;
          req.body = {};
        }
      }
      conn->pending.push_back(std::move(req));
    }
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
  if (!conn->pending.empty()) mark_ready(conn);
}

void Server::mark_ready(const std::shared_ptr<Conn>& conn) {
  if (conn->ready) return;
  conn->ready = true;
  conn->home.ready.push_back(conn);
}

void Server::pump_requests(const std::shared_ptr<Conn>& conn) {
  // Output backpressure: over the cap nothing more runs until the client
  // reads; the EPOLLOUT flush puts the connection back on the ready list.
  while (!conn->closed && !conn->pending.empty() &&
         conn->unflushed() <= kMaxUnflushedBytes) {
    Request req = std::move(conn->pending.front());
    conn->pending.pop_front();
    if (req.op == Op::kPing) {
      requests_ok_.fetch_add(1);
      queue_response(conn, Status::kOk, {});
      continue;
    }
    if (!is_crypto(req.op)) {
      requests_error_.fetch_add(1);
      queue_response(conn, Status::kBadRequest, {});
      continue;
    }
    if (req.shed) {
      shed_.fetch_add(1);
      queue_response(conn, Status::kOverloaded, {});
      continue;
    }
    Status status = Status::kOk;
    std::vector<std::uint8_t> out;
    try {
      out = req.op == Op::kSeal ? conn->outbound.seal(req.body) : conn->inbound.open(req.body);
    } catch (const crypto::ReplayError&) {
      status = Status::kReplayed;
    } catch (const crypto::MacError&) {
      status = Status::kAuthFailed;
    } catch (const std::invalid_argument&) {
      status = Status::kBadRequest;
    } catch (const std::length_error&) {
      status = Status::kBadRequest;
    } catch (...) {
      // Anything else (bad_alloc on a near-cap frame, a bug deep in the
      // cipher) must not escape the reactor thread — that terminates the
      // daemon. Fail the one request instead.
      status = Status::kInternal;
    }
    if (status == Status::kOk) {
      requests_ok_.fetch_add(1);
    } else {
      requests_error_.fetch_add(1);
    }
    queue_response(conn, status, out);
    inflight_.fetch_sub(1);
    // Fairness: one crypto request per connection per loop turn; the rest
    // wait for the next turn, after every other ready connection.
    if (!conn->closed && !conn->pending.empty() &&
        conn->unflushed() <= kMaxUnflushedBytes) {
      mark_ready(conn);
    }
    break;
  }
  update_epoll(conn);  // pending drained below the cap re-arms EPOLLIN
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  for (const Request& req : conn->pending) {
    if (is_crypto(req.op) && !req.shed) inflight_.fetch_sub(1);
  }
  conn->pending.clear();
  (void)::epoll_ctl(conn->home.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->home.conns.erase(conn->fd);
  live_conns_.fetch_sub(1);
}

void Server::sweep_timeouts(Reactor& r) {
  const auto now = Clock::now();
  const auto limit = std::chrono::milliseconds(cfg_.request_timeout_ms);
  std::vector<std::shared_ptr<Conn>> victims;
  for (const auto& [fd, conn] : r.conns) {
    // Cut (a) slow loris — a started frame that stalls mid-delivery — and
    // (b) the write-side twin: a client that sends requests but never reads
    // responses, pinning its wbuf and connection slot forever.
    const bool read_stalled =
        conn->parser.mid_frame() && now - conn->last_activity > limit;
    const bool write_stalled = conn->unflushed() > 0 && now - conn->write_since > limit;
    if (read_stalled || write_stalled) {
      victims.push_back(conn);
    }
  }
  for (const auto& conn : victims) {
    timeouts_.fetch_add(1);
    close_conn(conn);
  }
}

void Server::run(Reactor& r) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // The tick bounds how late a slow-loris sweep can run; 100 ms is far
  // below any sane request timeout and costs nothing at idle.
  const auto tick = std::chrono::milliseconds(std::min(100, cfg_.request_timeout_ms));
  const bool accepts = &r == reactors_[0].get();
  std::vector<std::shared_ptr<Conn>> running;  // the turn's swapped-out ready list
  auto last_sweep = Clock::now();
  while (!stop_requested_.load()) {
    // Connections with requests left are served again at once, after
    // whatever I/O is already waiting.
    const int timeout_ms = r.ready.empty() ? static_cast<int>(tick.count()) : 0;
    const int n = ::epoll_wait(r.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed — nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (accepts && fd == listen_fd_) {
        handle_accept();
        continue;
      }
      if (fd == r.wake_fd) {
        std::uint64_t v;
        (void)!::read(r.wake_fd, &v, sizeof(v));
        std::vector<std::shared_ptr<Conn>> handed;
        {
          std::lock_guard lock(r.inbox_mu);
          handed.swap(r.inbox);
        }
        for (const auto& conn : handed) adopt(r, conn);
        continue;
      }
      const auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;  // closed earlier this batch
      const std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 && conn->wbuf.empty()) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(conn);
      if (!conn->closed && (events[i].events & EPOLLOUT) != 0) {
        handle_writable(conn);
        if (!conn->closed && !conn->pending.empty()) mark_ready(conn);
      }
    }
    running.swap(r.ready);
    for (const auto& conn : running) {
      conn->ready = false;
      pump_requests(conn);
    }
    running.clear();
    const auto now = Clock::now();
    if (now - last_sweep >= tick) {
      last_sweep = now;
      sweep_timeouts(r);
    }
    // A listener paused on fd exhaustion retries once per tick: fds freed by
    // any reactor's closes, or elsewhere in the process, let it accept again.
    if (accepts && !accepting_ && now - accept_paused_at_ >= tick) set_accepting(true);
  }
  // Shutdown: a request still queued is dropped with its connection; the
  // one that ran last was answered and flushed as far as the socket took.
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(r.conns.size());
  for (const auto& [fd, conn] : r.conns) all.push_back(conn);
  for (const auto& conn : all) close_conn(conn);
  r.ready.clear();
}

}  // namespace mhhea::server
