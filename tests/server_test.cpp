// mhhead daemon failure-injection suite: every way a client can misbehave
// on the wire — disconnects mid-frame, malformed prefixes and containers,
// replays, slow loris, overload — must map to the documented Status (or a
// clean connection cut) without wedging or crashing the server.
//
// Each test runs a real Server on an ephemeral loopback TCP port and speaks
// the protocol through a raw blocking socket, so the bytes on the wire are
// exactly what a remote client would produce.
#include "src/server/server.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/crypto/session.hpp"
#include "src/server/protocol.hpp"

namespace mhhea::server {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

const std::vector<std::uint8_t> kMaster = bytes_of("server-suite master secret");

ServerConfig base_config() {
  ServerConfig cfg;
  cfg.master = kMaster;
  cfg.tcp_port = 0;  // ephemeral
  return cfg;
}

/// Blocking client socket speaking the length-prefixed protocol. The
/// constructor consumes the server hello and keeps its per-connection salt;
/// a connection the server closes at accept (connection cap) simply yields
/// an empty salt.
class Client {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connecting, so the server's
  /// responses back up almost immediately (the never-reading-client tests).
  explicit Client(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    if (rcvbuf > 0) {
      (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    read_hello();
  }
  /// The same client over a UNIX domain socket.
  explicit Client(const std::string& uds_path) {
    fd_ = uds_connect(uds_path);
    EXPECT_GE(fd_, 0) << std::strerror(errno);
    read_hello();
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send every byte; false once the connection fails (the server cut it).
  bool send_all(std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      // MSG_NOSIGNAL: a server that died mid-test fails the write, not the
      // whole test binary.
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void send_raw(std::span<const std::uint8_t> bytes) { ASSERT_TRUE(send_all(bytes)); }

  void send_request(Op op, std::span<const std::uint8_t> body) {
    send_raw(encode_request(op, body));
  }

  /// Read one response frame; nullopt on EOF (server closed the connection).
  std::optional<Frame> read_response() {
    for (;;) {
      if (auto f = parser_.next()) return f;
      std::uint8_t buf[16 * 1024];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return std::nullopt;
      parser_.feed(std::span(buf, static_cast<std::size_t>(n)));
    }
  }

  /// True when the server has closed: read() returns EOF.
  bool server_closed() { return !read_response().has_value(); }

  void close_now() {
    ::close(fd_);
    fd_ = -1;
  }

  /// The hello salt; this connection's sessions derive from it.
  [[nodiscard]] const std::vector<std::uint8_t>& salt() const { return salt_; }
  /// The hello's advertised compression-method mask.
  [[nodiscard]] std::uint8_t methods() const { return methods_; }

  /// A blocking UNIX-socket connection to `path`; -1 with errno on failure.
  static int uds_connect(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      return -1;
    }
    return fd;
  }

 private:
  static Status status_of_tag(std::uint8_t tag) { return static_cast<Status>(tag); }

  void read_hello() {
    if (auto hello = read_response();
        hello.has_value() && status_of_tag(hello->tag) == Status::kHello) {
      const HelloInfo info = parse_hello_body(hello->body);
      salt_.assign(info.salt.begin(), info.salt.end());
      methods_ = info.methods;
    }
  }

  int fd_ = -1;
  // Responses outgrow requests: a max-frame seal answers with several MiB.
  FrameParser parser_{max_reply_frame(kMaxFrameDefault)};
  std::vector<std::uint8_t> salt_;
  std::uint8_t methods_ = 0;
};

Status status_of(const Frame& f) { return static_cast<Status>(f.tag); }

/// The client-side twin of the server's INBOUND session: seals requests
/// under this connection's c2s context.
crypto::Session client_outbound(const Client& c) {
  return crypto::Session::from_master(kMaster, c2s_context(c.salt()));
}

/// The client-side twin of the server's OUTBOUND session: opens responses
/// sealed under this connection's s2c context.
crypto::Session client_inbound(const Client& c) {
  return crypto::Session::from_master(kMaster, s2c_context(c.salt()));
}

TEST(ServerRoundTrip, PingSealOpen) {
  Server server(base_config());
  server.start();
  Client client(server.port());

  client.send_request(Op::kPing, {});
  auto pong = client.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(status_of(*pong), Status::kOk);
  EXPECT_TRUE(pong->body.empty());

  // kSeal: the server's outbound session seals; our inbound twin opens.
  const auto msg = bytes_of("attack at dawn");
  client.send_request(Op::kSeal, msg);
  auto sealed = client.read_response();
  ASSERT_TRUE(sealed.has_value());
  ASSERT_EQ(status_of(*sealed), Status::kOk);
  crypto::Session my_inbound = client_inbound(client);
  EXPECT_EQ(my_inbound.open(sealed->body), msg);

  // kOpen: our outbound twin seals; the server's inbound session opens.
  crypto::Session my_outbound = client_outbound(client);
  const auto container = my_outbound.seal(msg);
  client.send_request(Op::kOpen, container);
  auto opened = client.read_response();
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(status_of(*opened), Status::kOk);
  EXPECT_EQ(opened->body, msg);

  server.stop();
  const auto s = server.stats();
  EXPECT_EQ(s.requests_ok, 3u);
  EXPECT_EQ(s.requests_error, 0u);
}

TEST(ServerRoundTrip, PipelinedRequestsAnswerInOrder) {
  Server server(base_config());
  server.start();
  Client client(server.port());

  // Burst all requests before reading anything: responses must come back
  // FIFO and each sealed container must open under consecutive nonces.
  constexpr int kBurst = 16;
  std::vector<std::vector<std::uint8_t>> msgs;
  for (int i = 0; i < kBurst; ++i) {
    msgs.push_back(bytes_of("pipelined message #" + std::to_string(i)));
    client.send_request(Op::kSeal, msgs.back());
  }
  crypto::Session my_inbound = client_inbound(client);
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client.read_response();
    ASSERT_TRUE(resp.has_value()) << i;
    ASSERT_EQ(status_of(*resp), Status::kOk) << i;
    // Opening in order proves both FIFO responses and consecutive nonces.
    EXPECT_EQ(my_inbound.open(resp->body), msgs[static_cast<std::size_t>(i)]) << i;
  }
  server.stop();
}

TEST(ServerFailure, DisconnectMidFrameLeavesServerServing) {
  Server server(base_config());
  server.start();
  {
    Client half(server.port());
    // Announce a 100-byte frame, deliver 3 bytes, vanish.
    std::vector<std::uint8_t> partial;
    put_u32le(100, partial);
    partial.push_back(static_cast<std::uint8_t>(Op::kSeal));
    partial.push_back(0xAB);
    partial.push_back(0xCD);
    half.send_raw(partial);
    half.close_now();
  }
  // The server must shrug it off and keep serving new connections.
  Client next(server.port());
  next.send_request(Op::kPing, {});
  auto pong = next.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(status_of(*pong), Status::kOk);
  server.stop();
}

TEST(ServerFailure, ZeroLengthPrefixIsBadRequestAndCloses) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  client.send_raw(zeros);
  auto resp = client.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(status_of(*resp), Status::kBadRequest);
  EXPECT_TRUE(client.server_closed());
  server.stop();
  EXPECT_GE(server.stats().requests_error, 1u);
}

TEST(ServerFailure, OversizedLengthPrefixIsTooLargeAndCloses) {
  ServerConfig cfg = base_config();
  cfg.max_frame_bytes = 1024;
  Server server(cfg);
  server.start();
  Client client(server.port());
  std::vector<std::uint8_t> huge;
  put_u32le(1 << 30, huge);  // 1 GiB announced, never delivered
  huge.push_back(static_cast<std::uint8_t>(Op::kSeal));
  client.send_raw(huge);
  auto resp = client.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(status_of(*resp), Status::kTooLarge);
  EXPECT_TRUE(client.server_closed());
  server.stop();
}

TEST(ServerFailure, MalformedContainerIsBadRequest) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  // Garbage that is not even close to a v2 container.
  const auto garbage = bytes_of("not a sealed container at all");
  client.send_request(Op::kOpen, garbage);
  auto resp = client.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(status_of(*resp), Status::kBadRequest);

  // The connection survives a bad request.
  client.send_request(Op::kPing, {});
  auto pong = client.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(status_of(*pong), Status::kOk);
  server.stop();
}

TEST(ServerFailure, ForgedContainerIsAuthFailed) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  crypto::Session my_outbound = client_outbound(client);
  auto container = my_outbound.seal(bytes_of("legitimate"));
  container.back() ^= 0x01;  // flip one ciphertext bit → MAC mismatch
  client.send_request(Op::kOpen, container);
  auto resp = client.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(status_of(*resp), Status::kAuthFailed);
  server.stop();
}

TEST(ServerFailure, ReplayedNonceOverWireIsReplayed) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  crypto::Session my_outbound = client_outbound(client);
  const auto container = my_outbound.seal(bytes_of("exactly once"));

  client.send_request(Op::kOpen, container);
  auto first = client.read_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(status_of(*first), Status::kOk);

  // The identical container again: authentic, but the server-side replay
  // window has already accepted nonce 0.
  client.send_request(Op::kOpen, container);
  auto second = client.read_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(status_of(*second), Status::kReplayed);
  server.stop();
  EXPECT_EQ(server.stats().requests_ok, 1u);
  EXPECT_EQ(server.stats().requests_error, 1u);
}

TEST(ServerFailure, UnknownOpIsBadRequest) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  const std::uint8_t bogus_op = 0x7F;
  client.send_raw(encode_frame(bogus_op, {}));
  auto resp = client.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(status_of(*resp), Status::kBadRequest);
  server.stop();
}

TEST(ServerFailure, SlowLorisIsCutByRequestTimeout) {
  ServerConfig cfg = base_config();
  cfg.request_timeout_ms = 200;
  Server server(cfg);
  server.start();
  Client loris(server.port());
  // Start a frame and stall: the sweep must cut the connection once the
  // partial frame outlives the timeout.
  std::vector<std::uint8_t> partial;
  put_u32le(64, partial);
  partial.push_back(static_cast<std::uint8_t>(Op::kSeal));
  loris.send_raw(partial);
  EXPECT_TRUE(loris.server_closed());  // blocks until the server cuts us
  server.stop();
  EXPECT_GE(server.stats().timeouts, 1u);
}

TEST(ServerFailure, IdleConnectionSurvivesTheTimeout) {
  ServerConfig cfg = base_config();
  cfg.request_timeout_ms = 150;
  Server server(cfg);
  server.start();
  Client client(server.port());
  // No partial frame: idleness alone is not slow loris.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  client.send_request(Op::kPing, {});
  auto pong = client.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(status_of(*pong), Status::kOk);
  server.stop();
  EXPECT_EQ(server.stats().timeouts, 0u);
}

TEST(ServerOverload, ZeroBudgetShedsEveryCryptoRequest) {
  ServerConfig cfg = base_config();
  cfg.max_inflight = 0;  // deterministic total overload
  Server server(cfg);
  server.start();
  Client client(server.port());

  client.send_request(Op::kSeal, bytes_of("never sealed"));
  auto resp = client.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(status_of(*resp), Status::kOverloaded);

  // Shedding is per request, not per connection: the same connection still
  // answers pings (no crypto budget needed) and sheds again on retry.
  client.send_request(Op::kPing, {});
  auto pong = client.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(status_of(*pong), Status::kOk);

  client.send_request(Op::kSeal, bytes_of("retry"));
  auto again = client.read_response();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(status_of(*again), Status::kOverloaded);

  server.stop();
  const auto s = server.stats();
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.requests_ok, 1u);
}

TEST(ServerOverload, ConnectionCapRefusesExtraClients) {
  ServerConfig cfg = base_config();
  cfg.max_connections = 1;
  Server server(cfg);
  server.start();
  Client first(server.port());
  first.send_request(Op::kPing, {});
  ASSERT_TRUE(first.read_response().has_value());  // registered and serving

  Client second(server.port());
  // The server accepts then immediately closes: the first read sees EOF.
  EXPECT_TRUE(second.server_closed());

  // The surviving connection still works.
  first.send_request(Op::kPing, {});
  auto pong = first.read_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(status_of(*pong), Status::kOk);
  server.stop();
  EXPECT_GE(server.stats().rejected_conns, 1u);
}

TEST(ServerLifecycle, StopWithClientsConnectedIsClean) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  client.send_request(Op::kSeal, bytes_of("in flight at shutdown"));
  // Stop without reading: the server drains in-flight crypto, then closes.
  server.stop();
  // Whatever we observe now must be orderly: either the response made it out
  // before the close, or EOF — never a hang.
  auto resp = client.read_response();
  if (resp.has_value()) {
    EXPECT_EQ(status_of(*resp), Status::kOk);
    EXPECT_TRUE(client.server_closed());
  }
}

TEST(ServerHandshake, HelloCarriesUniquePerConnectionSalt) {
  Server server(base_config());
  server.start();
  Client a(server.port());
  Client b(server.port());
  ASSERT_EQ(a.salt().size(), kConnSaltBytes);
  ASSERT_EQ(b.salt().size(), kConnSaltBytes);
  // Random per connection: identical salts would put both connections in
  // the same nonce space (keystream reuse across connections).
  EXPECT_NE(a.salt(), b.salt());
  // The hello also advertises every compression method the server opens.
  EXPECT_EQ(a.methods(), compress::kMethodMaskAll);
  server.stop();
}

TEST(ServerHandshake, CompressedResponsesOpenTransparently) {
  // A daemon configured to compress its outbound seals: the client's
  // inbound twin needs no configuration at all — sealed-v2 containers are
  // self-describing — and a compressible response comes back smaller than
  // the raw-sealed equivalent.
  ServerConfig cfg = base_config();
  cfg.compression = compress::Method::lzss;
  Server server(cfg);
  server.start();
  Client client(server.port());

  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "service log line " + std::to_string(i) + ": status=ok latency_us=42\n";
  }
  const auto msg = bytes_of(text);
  client.send_request(Op::kSeal, msg);
  auto sealed = client.read_response();
  ASSERT_TRUE(sealed.has_value());
  ASSERT_EQ(status_of(*sealed), Status::kOk);
  crypto::Session my_inbound = client_inbound(client);
  EXPECT_EQ(my_inbound.open(sealed->body), msg);

  // The raw-configured server would have shipped ~5.3x the plaintext; the
  // compressed frame must at least beat the uncompressed container size.
  crypto::Session raw_twin =
      crypto::Session::from_master(kMaster, s2c_context(client.salt()));
  EXPECT_LT(sealed->body.size(), raw_twin.seal(msg).size());

  // The client may also seal ITS requests compressed: the server's inbound
  // session opens any advertised method without per-connection state.
  crypto::Session my_outbound = client_outbound(client);
  my_outbound.set_compression(compress::Method::huffman);
  const auto container = my_outbound.seal(msg);
  client.send_request(Op::kOpen, container);
  auto opened = client.read_response();
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(status_of(*opened), Status::kOk);
  EXPECT_EQ(opened->body, msg);
  server.stop();
}

TEST(ServerHandshake, SameMessageSealsDifferentlyAcrossConnections) {
  Server server(base_config());
  server.start();
  Client a(server.port());
  Client b(server.port());
  // Both connections seal the same message at nonce 0. Before the salted
  // per-connection derivation the two containers were byte-identical —
  // nonce-0 keystream shared across every connection (a two-time pad once
  // the plaintexts differ).
  const auto msg = bytes_of("identical plaintext, distinct keystream");
  a.send_request(Op::kSeal, msg);
  b.send_request(Op::kSeal, msg);
  auto ra = a.read_response();
  auto rb = b.read_response();
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  ASSERT_EQ(status_of(*ra), Status::kOk);
  ASSERT_EQ(status_of(*rb), Status::kOk);
  EXPECT_NE(ra->body, rb->body);
  server.stop();
}

TEST(ServerHandshake, CrossConnectionContainerFailsAuthentication) {
  Server server(base_config());
  server.start();
  Client a(server.port());
  Client b(server.port());
  // A perfectly authentic container from connection A replayed onto
  // connection B: with per-connection salts the MACs do not cross-verify,
  // so this is forgery (kAuthFailed), not merely a replay-window hit.
  crypto::Session a_outbound = client_outbound(a);
  const auto container = a_outbound.seal(bytes_of("bound to connection A"));
  b.send_request(Op::kOpen, container);
  auto resp = b.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(status_of(*resp), Status::kAuthFailed);

  // On its own connection the very same container opens fine.
  a.send_request(Op::kOpen, container);
  auto ok = a.read_response();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(status_of(*ok), Status::kOk);
  server.stop();
}

TEST(ServerHandshake, ReflectedResponseFailsAuthentication) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  // Reflect a server-sealed response straight back as a kOpen request: the
  // response lives in the s2c direction, the inbound session in c2s, so the
  // directions' keys must not match (both counters start at nonce 0 — with
  // one shared derivation the reflection would decrypt or merely count as a
  // replay).
  client.send_request(Op::kSeal, bytes_of("reflect me"));
  auto sealed = client.read_response();
  ASSERT_TRUE(sealed.has_value());
  ASSERT_EQ(status_of(*sealed), Status::kOk);
  client.send_request(Op::kOpen, sealed->body);
  auto reflected = client.read_response();
  ASSERT_TRUE(reflected.has_value());
  EXPECT_EQ(status_of(*reflected), Status::kAuthFailed);
  server.stop();
}

TEST(ServerFailure, NeverReadingClientIsCutByWriteTimeout) {
  ServerConfig cfg = base_config();
  cfg.request_timeout_ms = 300;
  Server server(cfg);
  server.start();
  // Tiny receive buffer + sizeable responses: the server's flush stalls
  // after a few frames. The client keeps sending complete requests (so the
  // slow-loris mid-frame sweep never fires) but reads nothing.
  Client hoarder(server.port(), /*rcvbuf=*/4096);
  const auto request = encode_request(Op::kSeal, std::vector<std::uint8_t>(512 * 1024, 0x5A));
  // A reactor reads between the seals it runs, so a slow (sanitized) build
  // may cut the hoarder before it has sent everything: that is the cut.
  for (int i = 0; i < 16; ++i) {
    if (!hoarder.send_all(request)) break;
  }
  // The write-stall sweep must cut the connection instead of pinning its
  // wbuf and connection slot forever.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().timeouts, 1u);
  server.stop();
}

TEST(ServerLifecycle, ConcurrentStopIsSingleWinner) {
  Server server(base_config());
  server.start();
  Client client(server.port());
  client.send_request(Op::kPing, {});
  ASSERT_TRUE(client.read_response().has_value());
  // Two threads joining one std::thread is UB; the lifecycle mutex must make
  // racing stop() calls single-winner (TSan in CI watches this test).
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) stoppers.emplace_back([&server] { server.stop(); });
  for (auto& t : stoppers) t.join();
  server.stop();  // and it stays idempotent afterwards
}

TEST(ServerLifecycle, RejectsBadConfig) {
  ServerConfig no_master = base_config();
  no_master.master.clear();
  EXPECT_THROW(Server{no_master}, std::invalid_argument);

  ServerConfig bad_timeout = base_config();
  bad_timeout.request_timeout_ms = 0;
  EXPECT_THROW(Server{bad_timeout}, std::invalid_argument);

  ServerConfig bad_inflight = base_config();
  bad_inflight.max_inflight = -1;
  EXPECT_THROW(Server{bad_inflight}, std::invalid_argument);
}

// --- failures only visible from outside the process ------------------------
//
// A signal that kills the process, or CPU burnt by the I/O thread, cannot be
// observed by the process itself. These tests run the Server in a child: a
// fresh copy of this test binary (fork + exec of /proc/self/exe, filtered to
// the current test) that starts single-threaded with default signal
// dispositions, whatever the parent has run before. The test body sees
// kChildEnv set in the child, plays the server side, and exits with a
// status the parent checks (its Server destroyed first, so the socket file
// is removed). The two sides trade one-byte signals over pipes.

constexpr const char* kChildEnv = "MHHEA_SERVER_TEST_CHILD";

/// One side of the parent/child rendezvous: `in` receives, `out` sends;
/// `uds_path` is where the child's server listens.
struct Link {
  int in = -1;
  int out = -1;
  std::string uds_path;

  void post() const {
    const char c = 1;
    (void)!::write(out, &c, 1);
  }
  /// False when nothing arrived within `ms` (or the other side is gone).
  [[nodiscard]] bool wait(int ms) const {
    pollfd p{in, POLLIN, 0};
    char c = 0;
    return ::poll(&p, 1, ms) == 1 && ::read(in, &c, 1) == 1;
  }
  /// A measurement instead of a bare signal.
  void post_value(double v) const { (void)!::write(out, &v, sizeof(v)); }
  [[nodiscard]] std::optional<double> wait_value(int ms) const {
    pollfd p{in, POLLIN, 0};
    double v = 0;
    if (::poll(&p, 1, ms) != 1 || ::read(in, &v, sizeof(v)) != sizeof(v)) return std::nullopt;
    return v;
  }
};

/// The child's end, when this process is the child of a ChildProcess.
std::optional<Link> child_link() {
  const char* v = std::getenv(kChildEnv);
  Link l;
  int path_at = 0;
  if (v == nullptr || std::sscanf(v, "%d,%d,%n", &l.in, &l.out, &path_at) != 2 ||
      path_at == 0) {
    return std::nullopt;
  }
  l.uds_path = v + path_at;
  return l;
}

/// The parent's handle on the child running the current test, whose server
/// listens on a fresh UNIX socket path.
class ChildProcess {
 public:
  ChildProcess() {
    int down[2];  // parent -> child
    int up[2];    // child -> parent
    EXPECT_EQ(::pipe2(down, O_CLOEXEC), 0);
    EXPECT_EQ(::pipe2(up, O_CLOEXEC), 0);
    link_ = {up[0], down[1],
             ::testing::TempDir() + "mhhea-child-" + std::to_string(::getpid()) + ".sock"};
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string filter =
        std::string("--gtest_filter=") + info->test_suite_name() + "." + info->name();
    const std::string env = std::string(kChildEnv) + "=" + std::to_string(down[0]) + "," +
                            std::to_string(up[1]) + "," + link_.uds_path;
    // Everything exec needs is built before fork: the child only calls
    // async-signal-safe functions until exec replaces it.
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
    envp.push_back(const_cast<char*>(env.c_str()));
    envp.push_back(nullptr);
    char arg0[] = "server_test";
    char* argv[] = {arg0, const_cast<char*>(filter.c_str()), nullptr};
    pid_ = ::fork();
    if (pid_ == 0) {
      (void)::fcntl(down[0], F_SETFD, 0);  // the child's ends survive exec
      (void)::fcntl(up[1], F_SETFD, 0);
      ::execve("/proc/self/exe", argv, envp.data());
      ::_exit(127);
    }
    EXPECT_GT(pid_, 0) << std::strerror(errno);
    ::close(down[0]);
    ::close(up[1]);
  }
  ~ChildProcess() {
    if (pid_ > 0) (void)finish();
    ::close(link_.in);
    ::close(link_.out);
  }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  [[nodiscard]] const Link& link() const { return link_; }

  /// Close the parent's ends (the child reads EOF) and reap the child: its
  /// exit status, or 128 + the signal that killed it, as a shell reports it
  /// (so death by SIGPIPE reads 141).
  int finish() {
    ::close(link_.out);
    link_.out = -1;
    int status = 0;
    const pid_t pid = std::exchange(pid_, -1);
    if (pid <= 0 || ::waitpid(pid, &status, 0) != pid) return -1;
    return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : WEXITSTATUS(status);
  }

 private:
  Link link_;
  pid_t pid_ = -1;
};

ServerConfig uds_config(const std::string& path) {
  ServerConfig cfg = base_config();
  cfg.uds_path = path;
  return cfg;
}

TEST(ServerFailure, EarlyHangupBurstDoesNotKillTheProcess) {
  // Clients that pipeline pings and hang up without reading make the
  // server's response writes fail with EPIPE. The library must not let that
  // raise SIGPIPE (default action: terminate) and must not change the
  // process's signal disposition to avoid it.
  if (const auto link = child_link()) {
    ::_exit([&] {
      if (std::signal(SIGPIPE, SIG_DFL) != SIG_DFL) return 2;  // must start at default
      Server server(uds_config(link->uds_path));
      server.start();
      link->post();
      (void)link->wait(60'000);  // until the parent is done
      server.stop();
      return std::signal(SIGPIPE, SIG_DFL) == SIG_DFL ? 0 : 3;
    }());
  }
  ChildProcess child;
  const std::string& path = child.link().uds_path;
  ASSERT_TRUE(child.link().wait(30'000)) << "child server did not start";
  std::vector<std::uint8_t> pings;
  for (int i = 0; i < 64; ++i) {
    const auto ping = encode_request(Op::kPing, {});
    pings.insert(pings.end(), ping.begin(), ping.end());
  }
  for (int i = 0; i < 300; ++i) {
    const int fd = Client::uds_connect(path);
    if (fd < 0) break;  // the server is gone; finish() reports how
    (void)::send(fd, pings.data(), pings.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
  {
    Client probe(path);
    EXPECT_FALSE(probe.salt().empty());
    probe.send_request(Op::kPing, {});
    const auto resp = probe.read_response();
    EXPECT_TRUE(resp.has_value() && status_of(*resp) == Status::kOk)
        << "no ping answer after the burst";
  }
  EXPECT_EQ(child.finish(), 0) << "141 is death by SIGPIPE";
}

double process_cpu_seconds() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// True once a hello frame arrives on `fd` within `ms`.
bool hello_arrives(int fd, int ms) {
  FrameParser parser(max_reply_frame(kMaxFrameDefault));
  pollfd p{fd, POLLIN, 0};
  while (::poll(&p, 1, ms) == 1) {
    std::uint8_t buf[256];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    parser.feed(std::span(buf, static_cast<std::size_t>(n)));
    if (auto f = parser.next()) return status_of(*f) == Status::kHello;
  }
  return false;
}

TEST(ServerFailure, FdExhaustionPausesAcceptInsteadOfSpinning) {
  // Out of fds, accept4 fails with EMFILE while the queued connection keeps
  // the level-triggered listener readable. The child lowers only its own
  // RLIMIT_NOFILE so no fd is left for accept4; with clients queued, its
  // CPU time over the next second must stay near idle, and once the limit
  // is lifted the queued clients must be served.
  if (const auto link = child_link()) {
    ::_exit([&] {
      Server server(uds_config(link->uds_path));
      server.start();
      rlimit saved{};
      if (::getrlimit(RLIMIT_NOFILE, &saved) != 0) return 2;
      // dup returns the lowest free fd: every fd below it is in use, so a
      // limit of exactly that many leaves accept4 nothing.
      const int lowest_free = ::dup(STDERR_FILENO);
      ::close(lowest_free);
      rlimit low = saved;
      low.rlim_cur = static_cast<rlim_t>(lowest_free);
      if (::setrlimit(RLIMIT_NOFILE, &low) != 0) return 2;
      link->post();
      if (!link->wait(30'000)) return 2;  // clients queued
      const double cpu0 = process_cpu_seconds();
      std::this_thread::sleep_for(std::chrono::seconds(1));
      const double cpu = process_cpu_seconds() - cpu0;
      const std::uint64_t failures = server.stats().accept_failures;
      (void)::setrlimit(RLIMIT_NOFILE, &saved);
      link->post();
      (void)link->wait(60'000);  // until the parent is done
      server.stop();
      std::fprintf(stderr, "child: %.3f s CPU in 1 s out of fds, %llu accept failures\n", cpu,
                   static_cast<unsigned long long>(failures));
      return cpu > 0.25 ? 4 : failures == 0 ? 5 : 0;
    }());
  }
  ChildProcess child;
  const std::string& path = child.link().uds_path;
  ASSERT_TRUE(child.link().wait(30'000)) << "child server did not start";
  std::vector<int> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(Client::uds_connect(path));
    EXPECT_GE(queued.back(), 0) << std::strerror(errno);
  }
  child.link().post();
  EXPECT_TRUE(child.link().wait(30'000)) << "child did not lift its fd limit";
  for (const int fd : queued) {
    EXPECT_TRUE(hello_arrives(fd, 10'000)) << "a queued client was never accepted";
    ::close(fd);
  }
  // 4: the I/O thread spun; 5: no accept failure was counted.
  EXPECT_EQ(child.finish(), 0);
}

/// Entries of /proc/self/<dir> ("." and ".." excluded); -1 if it cannot be
/// read.
int proc_self_entries(const char* dir) {
  DIR* d = ::opendir((std::string("/proc/self/") + dir).c_str());
  if (d == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}

/// Open fds of this process (the counting directory's own fd excluded); -1
/// if they cannot be counted.
int open_fd_count() {
  const int n = proc_self_entries("fd");
  return n < 0 ? -1 : n - 1;
}

/// Threads of this process; -1 if they cannot be counted.
int thread_count() { return proc_self_entries("task"); }

/// An fd limit under which exactly `k` more fds can be opened: the number
/// just past the k-th free fd (the kernel hands out the lowest free one).
rlim_t limit_leaving(int k) {
  int fd = 0;
  for (;; ++fd) {
    if (::fcntl(fd, F_GETFD) < 0 && errno == EBADF && --k == 0) break;
  }
  return static_cast<rlim_t>(fd) + 1;
}

TEST(ServerFailure, ConstructorClosesItsFdsWhenSetupFails) {
  // A throwing constructor runs no destructor, so Server::Server itself must
  // close the listener (and the epoll fd) it opened when a later setup call
  // fails, and remove the socket file it bound. The child caps its own
  // RLIMIT_NOFILE so the listener's socket succeeds and then either
  // epoll_create1 (one fd left) or eventfd (two left) fails with EMFILE,
  // over a UNIX socket and over TCP.
  if (const auto link = child_link()) {
    ::_exit([&] {
      rlimit saved{};
      if (::getrlimit(RLIMIT_NOFILE, &saved) != 0) return 2;
      for (const bool uds : {true, false}) {
        for (const auto& [fds_left, failing_call] :
             {std::pair{1, "epoll_create1"}, std::pair{2, "eventfd"}}) {
          const ServerConfig cfg = uds ? uds_config(link->uds_path) : base_config();
          const int before = open_fd_count();
          rlimit low = saved;
          low.rlim_cur = limit_leaving(fds_left);
          if (before < 0 || ::setrlimit(RLIMIT_NOFILE, &low) != 0) return 2;
          std::exception_ptr failure;
          try {
            Server server(cfg);
          } catch (...) {
            failure = std::current_exception();
          }
          (void)::setrlimit(RLIMIT_NOFILE, &saved);
          // The message is read only once fds are back: UBSan's check of
          // the virtual what() call opens files of its own.
          std::string error;
          try {
            if (failure) std::rethrow_exception(failure);
          } catch (const std::runtime_error& e) {
            error = e.what();
          } catch (...) {
          }
          const int after = open_fd_count();
          std::fprintf(stderr, "child: %s, %d fd(s) left: \"%s\", %d -> %d open fds\n",
                       uds ? "uds" : "tcp", fds_left, error.c_str(), before, after);
          if (error.find(failing_call) == std::string::npos) return 3;
          if (after != before) return 4;
          struct stat st {};
          if (uds && ::stat(link->uds_path.c_str(), &st) == 0) return 5;
        }
      }
      return 0;
    }());
  }
  ChildProcess child;
  // 3: setup failed elsewhere (or not at all); 4: an fd leaked; 5: the
  // socket file was left behind.
  EXPECT_EQ(child.finish(), 0);
}

/// The CPUs this thread may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restrict this thread (and every thread it starts) to the first `n`
/// allowed CPUs; false if there are fewer.
bool pin_to_first_cpus(std::size_t n) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < n) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < n; ++i) CPU_SET(cpus[i], &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

// A sanitizer runtime keeps shadow memory and freed blocks resident, so in
// a sanitized build the peak RSS does not measure what the server holds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRssMeasuresTheServer = false;
#else
constexpr bool kRssMeasuresTheServer = true;
#endif

/// The process's peak resident set (VmHWM) in KiB; -1 if unreadable.
long vm_hwm_kib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  long kib = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

/// A kSeal request whose frame is exactly the default frame cap.
std::vector<std::uint8_t> max_frame_seal_request() {
  std::vector<std::uint8_t> body(kMaxFrameDefault - 1);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : body) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return encode_request(Op::kSeal, body);
}

TEST(ServerFailure, NonReaderIsBoundedInBytes) {
  // A client that pipelines max-frame kSeals and never reads: each ~5 MiB
  // response stays unflushed, so the server must stop running that
  // connection's requests at the output cap (instead of stacking responses
  // in its write buffer for the whole write-stall timeout) until the
  // timeout cuts it. The child's peak RSS stays bounded (where RSS measures
  // it: not in a sanitized build), and a probe on another connection is
  // answered throughout.
  if (const auto link = child_link()) {
    ::_exit([&] {
      ServerConfig cfg = uds_config(link->uds_path);
      cfg.request_timeout_ms = 1500;
      Server server(cfg);
      server.start();
      link->post();
      (void)link->wait(120'000);  // until the parent is done
      server.stop();
      const long hwm = vm_hwm_kib();
      const std::uint64_t timeouts = server.stats().timeouts;
      std::fprintf(stderr, "child: VmHWM %ld KiB, %llu timeout cut(s)\n", hwm,
                   static_cast<unsigned long long>(timeouts));
      if (hwm < 0) return 2;
      if (kRssMeasuresTheServer && hwm > 96 * 1024) return 4;
      return timeouts == 0 ? 5 : 0;
    }());
  }
  ChildProcess child;
  const std::string& path = child.link().uds_path;
  ASSERT_TRUE(child.link().wait(30'000)) << "child server did not start";
  Client probe(path);
  ASSERT_FALSE(probe.salt().empty());

  std::atomic<bool> flood_done{false};
  std::thread flood([&] {
    const int fd = Client::uds_connect(path);
    if (fd >= 0) {
      // A send blocked on a server that neither reads nor cuts fails the
      // test by timing out here rather than hanging it.
      const timeval limit{60, 0};
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
      const auto frame = max_frame_seal_request();
      for (int i = 0; i < 256; ++i) {
        std::size_t off = 0;
        while (off < frame.size()) {
          const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
          if (n <= 0) break;
          off += static_cast<std::size_t>(n);
        }
        if (off < frame.size()) break;  // cut (or the send timed out)
      }
      ::close(fd);
    }
    flood_done.store(true);
  });
  int pings = 0;
  int answered = 0;
  while (!flood_done.load()) {
    probe.send_request(Op::kPing, {});
    const auto resp = probe.read_response();
    ++pings;
    if (resp.has_value() && status_of(*resp) == Status::kOk) ++answered;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  flood.join();
  EXPECT_EQ(answered, pings) << "the probe lost pings during the flood";
  // 4: the child held more than 96 MiB at its peak; 5: the flooder was
  // never cut by the write-stall timeout.
  EXPECT_EQ(child.finish(), 0);
}

TEST(ServerFailure, MaxFrameSealerDoesNotStarveItsReactor) {
  // One reactor (the child is pinned to one CPU) serves a client that
  // pipelines max-frame kSeals beside a probe that pings every 5 ms. A
  // reactor runs one crypto request per connection per loop turn, and none
  // while a connection's unflushed replies exceed the output cap, so a ping
  // waits behind at most the seal already running (plus the one chance the
  // sealer had that turn), never behind the whole pipeline.
  if (const auto link = child_link()) {
    ::_exit([&] {
      if (!pin_to_first_cpus(1)) return 2;
      const auto frame = max_frame_seal_request();
      const std::span<const std::uint8_t> body =
          std::span(frame).subspan(kLenPrefixBytes + 1);
      const std::vector<std::uint8_t> salt(kConnSaltBytes, 0x11);
      crypto::Session session = crypto::Session::from_master(kMaster, s2c_context(salt));
      // The slowest of three seals, timed before the server starts and
      // again after the parent is done: a host that slows down mid-test
      // slows the server's seals as well as the budget.
      const auto slowest_seal_ms = [&] {
        double ms = 0;
        for (int i = 0; i < 3; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          (void)session.seal(body);
          const std::chrono::duration<double, std::milli> dt =
              std::chrono::steady_clock::now() - t0;
          ms = std::max(ms, dt.count());
        }
        return ms;
      };
      const double before_ms = slowest_seal_ms();
      Server server(uds_config(link->uds_path));
      server.start();
      link->post_value(before_ms);
      if (!link->wait(120'000)) return 2;  // until the parent is done
      server.stop();
      link->post_value(std::max(before_ms, slowest_seal_ms()));
      return 0;
    }());
  }
  ChildProcess child;
  const std::string& path = child.link().uds_path;
  ASSERT_TRUE(child.link().wait_value(60'000).has_value()) << "child server did not start";
  Client probe(path);
  Client sealer(path);
  ASSERT_FALSE(probe.salt().empty());
  ASSERT_FALSE(sealer.salt().empty());

  constexpr int kSeals = 8;
  std::atomic<bool> sealing{true};
  int sealed_ok = 0;
  std::thread pipeline([&] {
    const auto frame = max_frame_seal_request();
    std::vector<std::uint8_t> burst;
    for (int i = 0; i < kSeals; ++i) burst.insert(burst.end(), frame.begin(), frame.end());
    std::thread writer([&] { sealer.send_raw(burst); });
    for (int i = 0; i < kSeals; ++i) {
      const auto resp = sealer.read_response();
      if (!resp.has_value()) break;
      if (status_of(*resp) == Status::kOk) ++sealed_ok;
    }
    writer.join();
    sealing.store(false);
  });
  double max_rtt_ms = 0;
  while (sealing.load()) {
    const auto t0 = std::chrono::steady_clock::now();
    probe.send_request(Op::kPing, {});
    const auto resp = probe.read_response();
    const std::chrono::duration<double, std::milli> rtt = std::chrono::steady_clock::now() - t0;
    if (!resp.has_value() || status_of(*resp) != Status::kOk) {
      ADD_FAILURE() << "a probe ping went unanswered";
      break;
    }
    max_rtt_ms = std::max(max_rtt_ms, rtt.count());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pipeline.join();
  EXPECT_EQ(sealed_ok, kSeals);
  child.link().post();
  const std::optional<double> seal_ms = child.link().wait_value(60'000);
  ASSERT_TRUE(seal_ms.has_value()) << "child did not time its seals";
  std::fprintf(stderr, "max-frame seal %.1f ms, probe max RTT %.1f ms\n", *seal_ms, max_rtt_ms);
  EXPECT_LE(max_rtt_ms, 2 * *seal_ms + 20);
  EXPECT_EQ(child.finish(), 0);
}

TEST(ServerLifecycle, ReactorsFollowTheAffinityMask) {
  // Two allowed CPUs, two reactor threads: start() adds exactly that many
  // threads and stop() joins them all. A stop() that races a burst of
  // connects leaks no fd, including connections handed to a reactor's
  // inbox after that reactor stopped.
  if (allowed_cpus().size() < 2) GTEST_SKIP() << "needs 2 CPUs";
  if (const auto link = child_link()) {
    ::_exit([&] {
      if (!pin_to_first_cpus(2)) return 2;
      // A sanitizer runtime may start a helper thread with the process's
      // first thread; start one first so the baseline already has it.
      std::thread([] {}).join();
      const int fds0 = open_fd_count();
      const int tasks0 = thread_count();
      int code = 0;
      {
        Server server(uds_config(link->uds_path));
        const int fds_built = open_fd_count();
        server.start();
        const int tasks_started = thread_count();
        link->post();
        if (!link->wait(30'000)) return 2;  // connects are under way
        server.stop();
        const int tasks_stopped = thread_count();
        const int fds_stopped = open_fd_count();
        std::fprintf(stderr, "child: tasks %d -> %d -> %d, fds %d -> %d -> %d\n", tasks0,
                     tasks_started, tasks_stopped, fds0, fds_built, fds_stopped);
        if (tasks_started != tasks0 + 2) code = 3;
        if (tasks_stopped != tasks0) code = 4;
        if (fds_stopped != fds_built - 1) code = 5;  // only the listener closes at stop
      }
      if (code == 0 && open_fd_count() != fds0) code = 6;
      link->post();
      return code;
    }());
  }
  ChildProcess child;
  const std::string& path = child.link().uds_path;
  ASSERT_TRUE(child.link().wait(30'000)) << "child server did not start";
  std::vector<int> fds;
  for (int i = 0; i < 64; ++i) {
    if (i == 8) child.link().post();  // stop() from here on
    const int fd = Client::uds_connect(path);
    if (fd >= 0) fds.push_back(fd);
  }
  EXPECT_TRUE(child.link().wait(30'000));
  for (const int fd : fds) ::close(fd);
  // 3/4: reactor threads did not follow the mask or were not joined;
  // 5/6: an fd leaked through stop() or the destructor.
  EXPECT_EQ(child.finish(), 0);
}

}  // namespace
}  // namespace mhhea::server
