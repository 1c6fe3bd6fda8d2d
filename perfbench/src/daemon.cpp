// daemon_small_mixed and daemon_bulk_text: an in-process mhhead Server on a
// UNIX socket, driven through the wire protocol by one single-threaded epoll
// client over a fixed number of connections.
//
// Load phases (all parameters come from perfbench/workloads.json):
//   open loop   — Poisson arrivals at a fixed absolute rate, round robin over
//                 the connections; latency runs from the scheduled send time.
//   closed loop — a fixed number of requests outstanding per connection, the
//                 next one sent as each reply arrives.
// Each phase has a measured window after a warm-up. Goodput counts only kOk
// replies that complete inside the window; every request scheduled inside
// the window is attempted, and fails when it is shed, errors, is lost, is
// answered later than `late_ms`, or its output does not verify.
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <array>
#include <deque>
#include <iostream>
#include <limits>

#include "common.hpp"
#include "src/compress/compress.hpp"
#include "src/server/server.hpp"
#include "src/util/rng.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

namespace srv = mhhea::server;
using srv::Op;
using srv::Status;

/// Distinct payloads per run; requests cycle through them.
constexpr std::size_t kPayloadPool = 64;

struct Pending {
  std::int64_t sched_ns = 0;
  Op op = Op::kSeal;
  std::uint32_t payload = 0;
  bool sample = false;  // keep the sealed reply for the after-run check
};

struct SealSample {
  Bytes container;
  std::uint32_t payload = 0;
  bool corrupted = false;  // the self-check's deliberately damaged copy
};

struct Conn {
  Conn(Hello h, std::uint32_t i) : fd(h.fd), index(i), c2s(std::move(h.c2s)), s2c(std::move(h.s2c)) {}
  ~Conn() { ::close(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd;
  std::uint32_t index;         // epoll tag
  mhhea::crypto::Session c2s;  // seals the kOpen request bodies
  mhhea::crypto::Session s2c;  // opens the sampled kSeal replies
  std::vector<Bytes> open_frames;  // pre-sealed kOpen requests, in nonce order
  std::vector<std::uint32_t> open_payload;
  std::size_t next_open = 0;
  std::uint64_t sent = 0;
  std::uint64_t send_cap = 0;  // closed loop: stop once `sent` reaches it
  std::uint64_t seals_sent = 0;
  std::deque<Pending> inflight;  // replies arrive in request order
  Bytes rbuf;
  std::size_t roff = 0;
  Bytes wbuf;
  std::size_t woff = 0;
  bool want_out = false;
  bool dead = false;
  std::vector<SealSample> samples;
};

/// Everything set-up builds: the payloads, the started server and the
/// connected clients with their pre-sealed kOpen bodies.
struct Rig {
  std::vector<Bytes> payloads;
  std::vector<Bytes> seal_frames;  // encoded kSeal request per payload
  std::string sock_path;
  std::unique_ptr<srv::Server> server;
  std::vector<std::unique_ptr<Conn>> conns;  // closed before the server stops
  std::vector<double> handshake_us;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    conns.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<Rig> make_rig(const Options& opt, const std::string& sock_path, const Bytes& master,
                              std::size_t opens_per_conn) {
  auto rig = std::make_unique<Rig>();
  for (std::size_t i = 0; i < kPayloadPool; ++i) {
    const std::uint64_t s = opt.seed * 0x9E3779B97F4A7C15ull + i;
    rig->payloads.push_back(opt.corpus == "text" ? text_bytes(s, opt.payload_bytes)
                                                 : random_bytes(s, opt.payload_bytes));
    rig->seal_frames.push_back(srv::encode_request(Op::kSeal, rig->payloads.back()));
  }
  rig->sock_path = sock_path;
  srv::ServerConfig cfg;
  cfg.uds_path = sock_path;
  cfg.master = master;
  cfg.compression = mhhea::compress::method_from_name(opt.compression);
  rig->server = std::make_unique<srv::Server>(cfg);
  rig->server->start();
  for (int c = 0; c < kConns; ++c) {
    const std::int64_t t0 = now_ns();
    auto conn = std::make_unique<Conn>(handshake(sock_path, master), static_cast<std::uint32_t>(c));
    rig->handshake_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK) < 0) {
      throw std::runtime_error("fcntl(O_NONBLOCK) failed");
    }
    for (std::size_t i = 0; i < opens_per_conn; ++i) {
      const auto p = static_cast<std::uint32_t>((i * 5 + static_cast<std::size_t>(c)) % kPayloadPool);
      conn->open_frames.push_back(srv::encode_request(Op::kOpen, conn->c2s.seal(rig->payloads[p])));
      conn->open_payload.push_back(p);
    }
    rig->conns.push_back(std::move(conn));
  }
  return rig;
}

bool same_bytes(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Opens a sampled kSeal reply with the client's s2c Session: MAC, replay
/// window and plaintext must all check out.
bool seal_reply_verifies(mhhea::crypto::Session& s2c, const Bytes& container, const Bytes& payload) {
  try {
    return same_bytes(s2c.open(container), payload);
  } catch (const std::exception&) {
    return false;
  }
}

struct WireSweep {
  double bytes_per_byte = 0.0;
  std::uint64_t seals = 0;
  std::uint64_t failed = 0;
};

/// Sealed bytes per plaintext byte over `n_conns` fresh connections, each
/// sealing `per_conn` payloads one at a time. Every connection draws a new
/// random salt and so a new hiding key, whose scramble widths set the
/// expansion; averaging over many keys keeps the figure a property of the
/// code rather than of the four keys the load happened to get. Every reply
/// is opened and compared with its payload.
WireSweep wire_sweep(const Rig& rig, const Bytes& master, int n_conns, int per_conn) {
  WireSweep w;
  double wire = 0.0;
  double plain = 0.0;
  Bytes carry;
  Bytes body;
  for (int c = 0; c < n_conns; ++c) {
    Hello h = handshake(rig.sock_path, master);
    for (int i = 0; i < per_conn; ++i) {
      const std::size_t p = static_cast<std::size_t>(c * per_conn + i) % kPayloadPool;
      write_all(h.fd, rig.seal_frames[p]);
      std::uint8_t tag = 0;
      read_frame(h.fd, carry, tag, body);
      ++w.seals;
      if (tag != static_cast<std::uint8_t>(Status::kOk) ||
          !seal_reply_verifies(h.s2c, body, rig.payloads[p])) {
        ++w.failed;
        continue;
      }
      wire += static_cast<double>(body.size());
      plain += static_cast<double>(rig.payloads[p].size());
    }
    ::close(h.fd);
  }
  w.bytes_per_byte = wire / plain;
  return w;
}

struct PhaseSpec {
  bool open_loop = false;
  double rate = 0.0;        // open loop: arrivals per second
  double duration_s = 0.0;  // warm-up included
  double warmup_s = 0.0;
  int depth = 1;            // closed loop: outstanding per connection
  std::uint64_t max_requests = 0;  // closed loop: 0 = time-bounded only
};

struct PhaseStats {
  std::int64_t w0 = 0;
  std::int64_t w1 = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t late = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatched = 0;  // anywhere in the phase, window or not
  // Self-check: replies damaged on arrival, and how many of the damaged
  // kOpen replies the byte-for-byte check counted as mismatched (damaged
  // kSeal replies are caught when the samples are opened).
  std::uint64_t corrupted = 0;
  std::uint64_t corrupted_caught = 0;
  std::vector<double> lat_ms;             // attempted, kOk, in time
  std::vector<std::int64_t> lat_sched;    // their scheduled send times
  std::vector<std::int64_t> done_ns;      // kOk completions inside the window
  std::vector<double> lag_ms;             // open loop: send time minus schedule
  std::uint64_t outstanding_max = 0;
  double server_cpu_s = 0.0;              // server threads' CPU over the window
  std::uint64_t plain_ok = 0;             // plaintext bytes of done_ns replies

  [[nodiscard]] double window_s() const { return secs_between(w0, w1); }
};

/// The single-threaded epoll load generator.
class LoadGen {
 public:
  LoadGen(Rig& rig, const Options& opt, Tracer* tracer)
      : rig_(rig), opt_(opt), tracer_(tracer),
        ep_(::epoll_create1(EPOLL_CLOEXEC)),
        tfd_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
    try {
      if (ep_ < 0 || tfd_ < 0) throw std::runtime_error("epoll/timerfd setup failed");
      for (std::size_t i = 0; i <= rig_.conns.size(); ++i) {
        const bool timer = i == rig_.conns.size();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = timer ? kTimerTag : static_cast<std::uint32_t>(i);
        if (::epoll_ctl(ep_, EPOLL_CTL_ADD, timer ? tfd_ : rig_.conns[i]->fd, &ev) < 0) {
          throw std::runtime_error("epoll_ctl failed");
        }
      }
    } catch (...) {
      close_fds();
      throw;
    }
  }
  ~LoadGen() { close_fds(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  PhaseStats run(const PhaseSpec& ps, mhhea::util::Xoshiro256& rng);

 private:
  static constexpr std::uint32_t kTimerTag = 0xFFFFFFFFu;

  void close_fds() {
    if (tfd_ >= 0) ::close(tfd_);
    if (ep_ >= 0) ::close(ep_);
  }

  /// Queue the connection's next request; false when it may send no more
  /// (closed-loop cap reached or kOpen pool spent).
  bool send(Conn& c, std::int64_t sched);
  void flush(Conn& c);
  void set_want_out(Conn& c, bool want);
  void on_readable(Conn& c, PhaseStats& st);
  void on_reply(Conn& c, std::uint8_t tag, std::span<const std::uint8_t> body, std::int64_t now,
                PhaseStats& st);

  Rig& rig_;
  const Options& opt_;
  Tracer* tracer_;
  int ep_;
  int tfd_;
  std::uint64_t outstanding_ = 0;
  bool closed_loop_ = false;
  bool sending_ = false;
  // The self-check corrupts the first kOk reply of each op in a round.
  bool corrupt_open_ = true;
  bool corrupt_seal_ = true;
  std::array<std::uint8_t, 64 * 1024> rtmp_{};
};

bool LoadGen::send(Conn& c, std::int64_t sched) {
  const bool open = opt_.mixed() && c.sent % 2 == 1;
  if (c.sent >= c.send_cap || (open && c.next_open >= c.open_frames.size())) return false;
  std::span<const std::uint8_t> frame;
  Pending p;
  p.sched_ns = sched;
  if (open) {
    p.op = Op::kOpen;
    p.payload = c.open_payload[c.next_open];
    frame = c.open_frames[c.next_open];
    ++c.next_open;
  } else {
    p.op = Op::kSeal;
    p.payload = static_cast<std::uint32_t>((c.seals_sent * 3 + c.index) % kPayloadPool);
    p.sample = c.seals_sent % static_cast<std::uint64_t>(kSealSampleEvery) == 0;
    frame = rig_.seal_frames[p.payload];
    ++c.seals_sent;
  }
  ++c.sent;
  c.inflight.push_back(p);
  ++outstanding_;
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
    const ssize_t w = ::send(c.fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) throw std::runtime_error("send failed");
    const auto done = static_cast<std::size_t>(std::max<ssize_t>(w, 0));
    if (done == frame.size()) return true;
    frame = frame.subspan(done);
  }
  c.wbuf.insert(c.wbuf.end(), frame.begin(), frame.end());
  set_want_out(c, true);
  return true;
}

void LoadGen::set_want_out(Conn& c, bool want) {
  if (c.want_out == want) return;
  c.want_out = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u32 = c.index;
  if (::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev) < 0) throw std::runtime_error("epoll_ctl failed");
}

void LoadGen::flush(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t w = ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (w <= 0) throw std::runtime_error("send failed");
    c.woff += static_cast<std::size_t>(w);
  }
  c.wbuf.clear();
  c.woff = 0;
  set_want_out(c, false);
}

void LoadGen::on_readable(Conn& c, PhaseStats& st) {
  const ssize_t n = ::read(c.fd, rtmp_.data(), rtmp_.size());
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
  if (n <= 0) {
    // The server closed the connection: whatever is in flight is lost.
    c.dead = true;
    (void)::epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
    return;
  }
  const std::int64_t now = now_ns();
  c.rbuf.insert(c.rbuf.end(), rtmp_.begin(), rtmp_.begin() + n);
  while (c.rbuf.size() - c.roff >= srv::kLenPrefixBytes) {
    const std::uint32_t len = srv::get_u32le(c.rbuf.data() + c.roff);
    if (len == 0) throw std::runtime_error("zero-length frame from the server");
    if (c.rbuf.size() - c.roff < srv::kLenPrefixBytes + len) break;
    const std::uint8_t* f = c.rbuf.data() + c.roff + srv::kLenPrefixBytes;
    on_reply(c, f[0], std::span(f + 1, len - 1), now, st);
    c.roff += srv::kLenPrefixBytes + len;
  }
  if (c.roff == c.rbuf.size()) {
    c.rbuf.clear();
    c.roff = 0;
  } else if (c.roff > (1u << 20)) {
    c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.roff));
    c.roff = 0;
  }
}

void LoadGen::on_reply(Conn& c, std::uint8_t tag, std::span<const std::uint8_t> body,
                      std::int64_t now, PhaseStats& st) {
  if (c.inflight.empty()) throw std::runtime_error("reply without a request");
  const Pending p = c.inflight.front();
  c.inflight.pop_front();
  --outstanding_;
  const Bytes& plain = rig_.payloads[p.payload];
  const auto status = static_cast<Status>(tag);
  bool ok = status == Status::kOk;
  // Self-check: the first kOk reply of each op in a round is damaged as if
  // on the wire and must fail the same checks as any other reply. Its
  // request was sent in the warm-up, so it never enters the window's
  // accounting.
  bool& corrupt_next = p.op == Op::kOpen ? corrupt_open_ : corrupt_seal_;
  const bool corrupt = ok && corrupt_next && p.sched_ns < st.w0;
  Bytes damaged;
  if (corrupt) {
    corrupt_next = false;
    ++st.corrupted;
    damaged.assign(body.begin(), body.end());
    damaged[damaged.size() / 2] ^= 0x01;
    if (p.op == Op::kOpen) {
      body = damaged;
    } else {
      // Kept ahead of the genuine reply, so the s2c Session meets the
      // damaged copy while the nonce is still unopened: only the MAC can
      // reject it.
      c.samples.push_back({std::move(damaged), p.payload, true});
    }
  }
  if (ok && p.op == Op::kOpen && !same_bytes(body, plain)) {
    ok = false;
    ++st.mismatched;
    if (corrupt) ++st.corrupted_caught;
  }
  if (ok && p.op == Op::kSeal && (p.sample || corrupt)) {
    c.samples.push_back({Bytes(body.begin(), body.end()), p.payload});
  }
  const double lat_ms = static_cast<double>(now - p.sched_ns) * 1e-6;
  if (p.sched_ns >= st.w0 && p.sched_ns <= st.w1) {
    ++st.attempted;
    if (!ok) {
      ++st.failed;
      if (status == Status::kOverloaded) {
        ++st.shed;
      } else if (status != Status::kOk) {
        ++st.errors;
      }
    } else if (lat_ms > kLateMs) {
      ++st.late;
      ++st.failed;
    } else {
      st.lat_ms.push_back(lat_ms);
      st.lat_sched.push_back(p.sched_ns);
    }
  }
  if (ok && now >= st.w0 && now <= st.w1) {
    st.done_ns.push_back(now);
    st.plain_ok += plain.size();
  }
  if (tracer_ != nullptr) {
    tracer_->add("client", p.op == Op::kSeal ? "request.seal" : "request.open", 0, p.sched_ns, now);
  }
  if (closed_loop_ && sending_) {
    if (now >= st.w1 || !send(c, now)) {
      sending_ = false;
      st.w1 = std::min(st.w1, now);
    }
  }
}

PhaseStats LoadGen::run(const PhaseSpec& ps, mhhea::util::Xoshiro256& rng) {
  PhaseStats st;
  const std::int64_t t0 = now_ns();
  st.w0 = t0 + static_cast<std::int64_t>(ps.warmup_s * 1e9);
  st.w1 = t0 + static_cast<std::int64_t>(ps.duration_s * 1e9);
  closed_loop_ = !ps.open_loop;
  sending_ = true;
  const auto n_conns = rig_.conns.size();
  for (auto& c : rig_.conns) {
    c->send_cap = closed_loop_ && ps.max_requests > 0 ? c->sent + ps.max_requests / n_conns
                                                      : std::numeric_limits<std::uint64_t>::max();
  }

  std::int64_t next_sched = t0;
  std::size_t rr = 0;
  if (closed_loop_) {
    for (auto& c : rig_.conns) {
      for (int d = 0; d < ps.depth; ++d) (void)send(*c, t0);
    }
  }
  std::int64_t stop_ns = 0;
  double cpu_w0 = -1.0;
  std::array<epoll_event, 16> events{};
  for (;;) {
    const std::int64_t now = now_ns();
    if (cpu_w0 < 0 && now >= st.w0) cpu_w0 = other_threads_cpu_s();
    if (sending_ && !closed_loop_) {
      while (next_sched <= now) {
        if (next_sched > st.w1) {
          sending_ = false;
          break;
        }
        Conn& c = *rig_.conns[rr];
        rr = (rr + 1) % n_conns;
        if (!send(c, next_sched)) {
          throw std::runtime_error("pre-sealed kOpen pool ran out in the open loop");
        }
        if (next_sched >= st.w0) st.lag_ms.push_back(static_cast<double>(now - next_sched) * 1e-6);
        next_sched += static_cast<std::int64_t>(-std::log1p(-rng.uniform()) / ps.rate * 1e9);
      }
    }
    if (sending_ && closed_loop_ && now >= st.w1) sending_ = false;
    st.outstanding_max = std::max(st.outstanding_max, outstanding_);
    if (!sending_ && stop_ns == 0) {
      stop_ns = now;
      if (cpu_w0 >= 0) st.server_cpu_s = other_threads_cpu_s() - cpu_w0;
    }
    if (!sending_ && outstanding_ == 0) break;
    const std::int64_t drain_deadline = stop_ns + static_cast<std::int64_t>(kLateMs * 1e6);
    if (!sending_ && now >= drain_deadline) break;

    int timeout_ms = -1;
    if (sending_ && !closed_loop_) {
      itimerspec its{};
      its.it_value.tv_sec = next_sched / 1000000000;
      its.it_value.tv_nsec = next_sched % 1000000000;
      if (::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr) < 0) {
        throw std::runtime_error("timerfd_settime failed");
      }
    } else {
      const std::int64_t until = sending_ ? st.w1 : drain_deadline;
      timeout_ms = static_cast<int>(std::max<std::int64_t>(0, (until - now) / 1000000 + 1));
    }
    const int n = ::epoll_wait(ep_, events.data(), static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
    for (int i = 0; i < n; ++i) {
      const std::uint32_t tag = events[static_cast<std::size_t>(i)].data.u32;
      if (tag == kTimerTag) {
        std::uint64_t expirations = 0;
        (void)!::read(tfd_, &expirations, sizeof(expirations));
        continue;
      }
      Conn& c = *rig_.conns[tag];
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if ((ev & EPOLLOUT) != 0 && !c.dead) flush(c);
      if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !c.dead) on_readable(c, st);
    }
  }
  // Requests still unanswered after the drain deadline are lost.
  for (auto& c : rig_.conns) {
    for (const Pending& p : c->inflight) {
      if (p.sched_ns >= st.w0 && p.sched_ns <= st.w1) {
        ++st.attempted;
        ++st.failed;
      }
      ++st.lost;
    }
  }
  return st;
}

/// One round's figures; the workload reports the best decile over rounds.
struct Round {
  double setup_s = 0.0;
  double goodput_rps = 0.0;
  double capacity_per_cpu_s = 0.0;
  double capacity_rps_wall = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double goodput_mb_s = 0.0;
  double lag_p99_ms = 0.0;
  double handshake_us = 0.0;
  double samples = 0.0;
  double outstanding_max = 0.0;
  std::vector<double> lat_ms;  // every in-window latency sample
  srv::ServerStats delta;
  // Why attempted requests failed, both phases together.
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t late = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatched = 0;
};

/// One independent round: set up a fresh server and connections (timed),
/// run the open-loop and/or closed-loop phase, then verify outside the
/// timed path. Failures and checks accumulate into `res`.
Round run_round(const Options& opt, int round, const Bytes& master, Result& res, Tracer* tracer,
                std::unique_ptr<LibBench>& lib, LibRates& lib_rates, WireSweep* sweep_total) {
  const double open_s = opt.open_rate_rps > 0 ? opt.open_share * opt.seconds / kRounds : 0.0;
  const double closed_s = opt.closed_share * opt.seconds / kRounds;
  const std::uint64_t closed_cap = opt.closed_max_requests / static_cast<std::uint64_t>(kRounds);
  // kOpen bodies: half of the open-loop arrivals (plus Poisson headroom) and
  // half of the closed loop's request cap, per connection.
  std::size_t opens_per_conn = 0;
  if (opt.mixed()) {
    opens_per_conn = static_cast<std::size_t>(opt.open_rate_rps * open_s / kConns / 2 * 1.1) + 64 +
                     static_cast<std::size_t>(closed_cap / static_cast<std::uint64_t>(kConns) / 2) + 1;
  }
  Round r;
  const std::string sock = "perfbench-" + std::to_string(::getpid()) + "-" + std::to_string(round) + ".sock";
  const std::int64_t t0 = now_ns();
  std::unique_ptr<Rig> rig = make_rig(opt, sock, master, opens_per_conn);
  r.setup_s = secs_between(t0, now_ns());
  r.handshake_us = median(rig->handshake_us);

  const srv::ServerStats before = rig->server->stats();
  mhhea::util::Xoshiro256 rng(opt.seed * 0x9E3779B97F4A7C15ull + 0xA11CE5EEDull + static_cast<std::uint64_t>(round));
  PhaseStats open_st;
  PhaseStats closed_st;
  {
    LoadGen load(*rig, opt, tracer);
    if (open_s > 0) {
      PhaseSpec ps;
      ps.open_loop = true;
      ps.rate = opt.open_rate_rps;
      ps.duration_s = open_s;
      ps.warmup_s = std::min(opt.warmup_s, open_s / 4);
      open_st = load.run(ps, rng);
    }
    if (closed_s > 0) {
      PhaseSpec ps;
      ps.duration_s = closed_s;
      ps.warmup_s = std::min(open_s > 0 ? kClosedAfterOpenWarmupS : opt.warmup_s, closed_s / 4);
      ps.depth = opt.closed_depth;
      ps.max_requests = closed_cap;
      closed_st = load.run(ps, rng);
    }
  }
  const srv::ServerStats after = rig->server->stats();
  r.delta.requests_ok = after.requests_ok - before.requests_ok;
  r.delta.requests_error = after.requests_error - before.requests_error;
  r.delta.shed = after.shed - before.shed;
  r.delta.timeouts = after.timeouts - before.timeouts;

  // Outside the timed path: open every sampled kSeal reply (the damaged
  // self-check copy included) and sweep fresh connections for the wire cost.
  std::uint64_t sample_failed = 0;
  std::uint64_t samples = 0;
  const std::uint64_t corrupted = open_st.corrupted + closed_st.corrupted;
  std::uint64_t corrupted_caught = open_st.corrupted_caught + closed_st.corrupted_caught;
  for (auto& c : rig->conns) {
    for (const SealSample& s : c->samples) {
      const bool verified = seal_reply_verifies(c->s2c, s.container, rig->payloads[s.payload]);
      if (s.corrupted) {
        if (!verified) ++corrupted_caught;
      } else {
        ++samples;
        if (!verified) ++sample_failed;
      }
    }
  }
  // One damaged reply per op the round sends (kOpen only on the mixed
  // workload), each counted as a failure; the genuine counts below exclude
  // exactly those.
  const bool self_check_ok = corrupted == (opt.mixed() ? 2u : 1u) && corrupted_caught == corrupted;
  if (!self_check_ok) {
    std::cerr << "perfbench: self-check caught " << corrupted_caught << " of " << corrupted
              << " corrupted replies\n";
  }
  const std::uint64_t mismatched = open_st.mismatched + closed_st.mismatched -
                                   (open_st.corrupted_caught + closed_st.corrupted_caught);
  const WireSweep sweep = wire_sweep(*rig, master, kWireConns / kRounds, 8);
  sweep_total->seals += sweep.seals;
  sweep_total->failed += sweep.failed;
  sweep_total->bytes_per_byte += sweep.bytes_per_byte / kRounds;

  res.attempted += open_st.attempted + closed_st.attempted + samples + sweep.seals;
  res.failed += open_st.failed + closed_st.failed + sample_failed + sweep.failed;
  if (mismatched + sample_failed + sweep.failed > 0 || !self_check_ok) {
    res.correct = false;
  }

  const PhaseStats& main = open_s > 0 ? open_st : closed_st;
  const int slices = std::clamp(static_cast<int>(main.window_s() * 2), 1, 20);
  r.goodput_rps = static_cast<double>(main.done_ns.size()) / main.window_s();
  r.goodput_mb_s = static_cast<double>(main.plain_ok) / main.window_s() / 1e6;
  r.capacity_per_cpu_s = static_cast<double>(closed_st.done_ns.size()) / closed_st.server_cpu_s;
  r.capacity_rps_wall = static_cast<double>(closed_st.done_ns.size()) / closed_st.window_s();
  r.p50_ms = sliced_percentile(main.lat_ms, main.lat_sched, main.w0, main.w1, slices, 0.50);
  r.p90_ms = sliced_percentile(main.lat_ms, main.lat_sched, main.w0, main.w1, slices, 0.90);
  r.p99_ms = sliced_percentile(main.lat_ms, main.lat_sched, main.w0, main.w1, slices, 0.99);
  r.lag_p99_ms = percentile(main.lag_ms, 0.99);
  r.samples = static_cast<double>(main.lat_ms.size());
  r.lat_ms = main.lat_ms;
  r.outstanding_max = static_cast<double>(std::max(open_st.outstanding_max, closed_st.outstanding_max));
  r.shed = open_st.shed + closed_st.shed;
  r.errors = open_st.errors + closed_st.errors;
  r.late = open_st.late + closed_st.late;
  r.lost = open_st.lost + closed_st.lost;
  r.mismatched = mismatched + sample_failed + sweep.failed;
  // This round's share of the library passes on the workload's own payloads,
  // so the library rates, like the load figures, span the whole run. A pass
  // covers a quarter of the payloads: four times the passes to take the best
  // decile of.
  if (!lib) {
    std::vector<Bytes> quarter(rig->payloads.begin(), rig->payloads.begin() + kPayloadPool / 4);
    lib = std::make_unique<LibBench>(std::move(quarter), opt.compression);
  }
  rig.reset();
  lib->run(kLibShare * opt.seconds / kRounds, nullptr, lib_rates);
  return r;
}

template <typename F>
std::vector<double> per_round(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return v;
}

template <typename F>
double median_of(const std::vector<Round>& rounds, F f) {
  return median(per_round(rounds, f));
}

/// Best decile over rounds (see best_decile).
template <typename F>
double best_of(const std::vector<Round>& rounds, F f, bool higher_is_better) {
  return best_decile(per_round(rounds, f), higher_is_better);
}

}  // namespace

WorkloadRun run_daemon_workload(const Options& opt, Result& res, Tracer* tracer) {
  const Bytes master = bench_master();
  WorkloadRun run;
  std::vector<Round> rounds;
  WireSweep sweep;
  std::unique_ptr<LibBench> bench;
  LibRates lib;
  for (int i = 0; i < kRounds; ++i) {
    rounds.push_back(run_round(opt, i, master, res, tracer, bench, lib, &sweep));
  }
  run.payloads = bench->messages();
  res.attempted += lib.attempted;
  res.failed += lib.failed;
  if (lib.failed > 0) res.correct = false;

  const double p50_ms = best_of(rounds, [](const Round& r) { return r.p50_ms; }, false);
  auto& e = res.e2e;
  res.put(e, "setup_s", best_of(rounds, [](const Round& r) { return r.setup_s; }, false), "s");
  res.put(e, "goodput_rps", best_of(rounds, [](const Round& r) { return r.goodput_rps; }, true), "1/s");
  // Wall-clock capacity follows how many cores the host lends the run; per
  // CPU-second of the server's threads it follows the code.
  res.put(e, "capacity_per_cpu_s",
          best_of(rounds, [](const Round& r) { return r.capacity_per_cpu_s; }, true), "1/cpu_s");
  res.put(e, "latency_p50_ms", p50_ms, "ms");
  res.put(e, "latency_p90_ms", best_of(rounds, [](const Round& r) { return r.p90_ms; }, false), "ms");
  res.put(e, "goodput_mb_s", best_of(rounds, [](const Round& r) { return r.goodput_mb_s; }, true), "MB/s");
  res.put(e, "wire_bytes_per_byte", sweep.bytes_per_byte, "B/B");
  res.put(e, "peak_rss_mb", peak_rss_mb(), "MB");
  res.put(e, "lib_mhhea_mb_s", lib.mb_s(kLibMhhea), "MB/s");
  res.put(e, "lib_sealed_v2_mb_s", lib.mb_s(kLibSealedV2), "MB/s");
  res.put(e, "lib_hhea_mb_s", lib.mb_s(kLibHhea), "MB/s");
  res.put(e, "lib_yaea_s_mb_s", lib.mb_s(kLibYaeaS), "MB/s");

  auto& l = res.layer;
  auto sum = [&](auto f) {
    double t = 0.0;
    for (const Round& r : rounds) t += static_cast<double>(f(r));
    return t;
  };
  res.put(l, "server.requests_ok", sum([](const Round& r) { return r.delta.requests_ok; }), "count");
  res.put(l, "server.requests_error", sum([](const Round& r) { return r.delta.requests_error; }), "count");
  res.put(l, "server.shed", sum([](const Round& r) { return r.delta.shed; }), "count");
  res.put(l, "server.timeouts", sum([](const Round& r) { return r.delta.timeouts; }), "count");
  res.put(l, "server.handshake_us", median_of(rounds, [](const Round& r) { return r.handshake_us; }), "us");
  res.put(l, "client.sched_lag_p99_ms", median_of(rounds, [](const Round& r) { return r.lag_p99_ms; }), "ms");
  res.put(l, "client.outstanding_max", median_of(rounds, [](const Round& r) { return r.outstanding_max; }),
          "count");
  res.put(l, "client.samples", sum([](const Round& r) { return r.samples; }), "count");
  // On a shared host p99 moves by more than any usable bound between runs,
  // so it is reported here, unbounded, rather than as an end-to-end metric.
  res.put(l, "client.latency_p99_ms", median_of(rounds, [](const Round& r) { return r.p99_ms; }), "ms");
  // The end-to-end latencies are the best decile over rounds, so a stall in
  // a minority of rounds cannot move them; the pooled p90 over every round's
  // samples does.
  std::vector<double> pooled;
  for (const Round& r : rounds) pooled.insert(pooled.end(), r.lat_ms.begin(), r.lat_ms.end());
  res.put(l, "client.latency_pooled_p90_ms", percentile(std::move(pooled), 0.90), "ms");

  std::cout << "{\"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::cout << (i ? ", " : "") << "{\"setup_s\": " << r.setup_s << ", \"latency_samples\": " << r.samples
              << ", \"p50_ms\": " << r.p50_ms << ", \"p90_ms\": " << r.p90_ms << ", \"p99_ms\": " << r.p99_ms
              << ", \"capacity_per_cpu_s\": " << r.capacity_per_cpu_s
              << ", \"capacity_rps_wall\": " << r.capacity_rps_wall << "}";
  }
  std::cout << "], \"wire_sweep_seals\": " << sweep.seals << ", \"failures\": {\"shed\": "
            << sum([](const Round& r) { return r.shed; }) << ", \"errors\": "
            << sum([](const Round& r) { return r.errors; }) << ", \"late\": "
            << sum([](const Round& r) { return r.late; }) << ", \"lost\": "
            << sum([](const Round& r) { return r.lost; }) << ", \"mismatched\": "
            << sum([](const Round& r) { return r.mismatched; }) << "}}\n";
  lib.print_passes(std::cout);

  run.client_p50_us = p50_ms * 1e3;
  return run;
}

}  // namespace perfbench
