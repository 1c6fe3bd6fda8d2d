// Wire protocol of the mhhead encryption daemon.
//
// The daemon is a crypto oracle: it holds the session master secret and
// seals/opens on behalf of clients, so client processes never touch key
// material. Framing is deliberately minimal — length-prefixed binary over a
// byte stream (TCP or UNIX domain socket):
//
//   request:   u32le len | u8 op     | body[len-1]
//   response:  u32le len | u8 status | body[len-1]
//
// `len` counts the op/status byte plus the body, so the smallest legal frame
// is len == 1 (a bare op). A zero length prefix is malformed (there is no op
// to dispatch on) and closes the connection; a length above the server's
// frame cap is answered with kTooLarge and also closes it (the daemon will
// not buffer an unbounded body).
//
// Handshake: the FIRST frame on every connection is an unsolicited server
// hello — status kHello, body = a kConnSaltBytes random salt followed by one
// byte advertising the compression methods the server can open (bit i =
// compress::Method tag i; see kHelloBodyBytes/parse_hello_body). Each side
// then derives its Session pair with a context of direction label plus that
// salt (c2s_context/s2c_context below): the client seals requests under c2s
// and opens responses under s2c, the server mirrors it. Without the salt
// every connection (and both directions of one connection) would derive
// identical keys with nonce counters starting at 0 — the same per-nonce
// keystream protecting different plaintexts (a two-time pad) and containers
// replayable across connections. With it, each (connection, direction) is an
// independent cipher and a container from any other scope fails its MAC.
//
// Compression negotiation is one-way and advisory: sealed-v2 containers are
// self-describing (the header carries the method tag, MAC'd), so each opener
// decodes whatever arrives without pre-agreement. The hello mask only tells
// the client which methods it may USE on requests; a client receiving a
// legacy salt-only hello treats the mask as 0 (raw). The server's own
// response compression is a ServerConfig knob, not negotiated per
// connection.
//
// Ops:      kSeal  — body is a raw message; the response body is the sealed
//                    authenticated v2 container (the server's per-connection
//                    outbound Session assigns the nonce).
//           kOpen  — body is a sealed v2 container; the response body is the
//                    recovered plaintext. MAC and replay-window checks run
//                    before any decryption (crypto::Session semantics).
//           kPing  — empty body, empty kOk response; liveness and latency
//                    floor probe.
//
// Statuses: kOk on success. kBadRequest (malformed frame or container
// structure), kAuthFailed (MAC mismatch — forged or corrupted container),
// kReplayed (authentic container already seen inside the replay window) and
// kInternal (unexpected server-side failure — not the client's fault) are
// terminal for the request but leave the connection usable. kOverloaded is
// RETRIABLE: the server shed the request before doing any crypto work
// because its in-flight budget was full — clients back off and resend.
// kTooLarge closes the connection after the response is flushed. kHello is
// never a response: it tags the connection greeting described above.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace mhhea::server {

enum class Op : std::uint8_t {
  kSeal = 1,
  kOpen = 2,
  kPing = 3,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,   // malformed frame/container — fix the request
  kAuthFailed = 2,   // MAC mismatch: forged or corrupted
  kReplayed = 3,     // authentic but already accepted (replay window)
  kOverloaded = 4,   // shed before any work — RETRIABLE with backoff
  kTooLarge = 5,     // frame exceeds the server cap; connection closes
  kInternal = 6,     // unexpected server-side failure; connection survives
  kHello = 7,        // connection greeting: body = per-connection salt
};

/// Frame layout constants shared by server, client and load generator.
inline constexpr std::size_t kLenPrefixBytes = 4;
inline constexpr std::size_t kMaxFrameDefault = std::size_t{1} << 20;  // 1 MiB

/// Size of the random per-connection salt the server's hello carries.
inline constexpr std::size_t kConnSaltBytes = 16;

/// Hello body layout: the salt, then one supported-compression-methods mask
/// byte (bit i set = the server opens compress::Method tag i on requests).
inline constexpr std::size_t kHelloBodyBytes = kConnSaltBytes + 1;

/// Split view of a hello body. `methods` is the advertised mask, 0 (raw
/// only) when the body is a legacy bare salt.
struct HelloInfo {
  std::span<const std::uint8_t> salt;
  std::uint8_t methods = 0;
};

/// Parse a hello frame's body; std::invalid_argument when it cannot even
/// carry the salt.
inline HelloInfo parse_hello_body(std::span<const std::uint8_t> body) {
  if (body.size() < kConnSaltBytes) {
    throw std::invalid_argument("protocol: hello body shorter than the salt");
  }
  HelloInfo info;
  info.salt = body.first(kConnSaltBytes);
  if (body.size() > kConnSaltBytes) info.methods = body[kConnSaltBytes];
  return info;
}

/// KDF contexts of the two directions on a connection with `salt` (the hello
/// body): label || salt, fed to crypto::Session::from_master by both sides.
/// c2s keys client-sealed requests (the server's INBOUND session), s2c keys
/// server-sealed responses (the server's OUTBOUND session).
inline std::vector<std::uint8_t> direction_context(std::string_view label,
                                                   std::span<const std::uint8_t> salt) {
  std::vector<std::uint8_t> ctx(label.begin(), label.end());
  ctx.insert(ctx.end(), salt.begin(), salt.end());
  return ctx;
}

inline std::vector<std::uint8_t> c2s_context(std::span<const std::uint8_t> salt) {
  return direction_context("mhhea-conn c2s", salt);
}

inline std::vector<std::uint8_t> s2c_context(std::span<const std::uint8_t> salt) {
  return direction_context("mhhea-conn s2c", salt);
}

inline void put_u32le(std::uint32_t v, std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Encode one frame: the tag byte is an Op on the request path and a Status
/// on the response path (identical layout either way).
inline std::vector<std::uint8_t> encode_frame(std::uint8_t tag,
                                              std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(kLenPrefixBytes + 1 + body.size());
  put_u32le(static_cast<std::uint32_t>(1 + body.size()), out);
  out.push_back(tag);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

inline std::vector<std::uint8_t> encode_request(Op op,
                                                std::span<const std::uint8_t> body) {
  return encode_frame(static_cast<std::uint8_t>(op), body);
}

inline std::vector<std::uint8_t> encode_response(Status status,
                                                 std::span<const std::uint8_t> body) {
  return encode_frame(static_cast<std::uint8_t>(status), body);
}

/// One parsed frame: the tag byte plus a copy of the body.
struct Frame {
  std::uint8_t tag = 0;
  std::vector<std::uint8_t> body;
};

/// Buffer capacity a connection keeps once it has nothing buffered: a
/// parser that reassembled a large frame, or a write buffer that carried a
/// large response, does not keep its high-water mark while idle.
inline constexpr std::size_t kRetainedBufferBytes = std::size_t{64} << 10;

/// Incremental frame parser over a byte stream. feed() appends received
/// bytes; next() yields completed frames one at a time. Malformation that
/// can be detected from the prefix alone (zero length, length above the cap)
/// surfaces through the error() state so the connection can respond and
/// close instead of desynchronizing.
class FrameParser {
 public:
  enum class Error { kNone, kZeroLength, kTooLarge };

  /// `max_frame` caps the length prefix. A server passes its request cap; a
  /// client reading replies passes a reply cap (max_reply_frame in
  /// server.hpp), since a sealed reply outgrows the request it answers.
  explicit FrameParser(std::size_t max_frame) : max_frame_(max_frame) {}

  void feed(std::span<const std::uint8_t> bytes) {
    // Drop the frames next() has yielded, once per feed.
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] Error error() const noexcept { return error_; }

  /// True while a frame has been started (some bytes buffered) but not yet
  /// completed — the slow-loris condition the server's request timeout cuts.
  [[nodiscard]] bool mid_frame() const noexcept { return head_ < buf_.size(); }

  /// Pop the next complete frame, or nullopt when more bytes are needed.
  /// After an Error the parser yields nothing more.
  std::optional<Frame> next() {
    if (error_ != Error::kNone) return std::nullopt;
    const std::size_t avail = buf_.size() - head_;
    if (avail < kLenPrefixBytes) return std::nullopt;
    const std::uint8_t* p = buf_.data() + head_;
    const std::uint32_t len = get_u32le(p);
    if (len == 0) {
      error_ = Error::kZeroLength;
      return std::nullopt;
    }
    if (len > max_frame_) {
      error_ = Error::kTooLarge;
      return std::nullopt;
    }
    if (avail < kLenPrefixBytes + len) return std::nullopt;
    Frame f;
    f.tag = p[kLenPrefixBytes];
    f.body.assign(p + kLenPrefixBytes + 1, p + kLenPrefixBytes + len);
    head_ += kLenPrefixBytes + len;
    if (head_ == buf_.size()) {
      head_ = 0;
      buf_.clear();
      if (buf_.capacity() > kRetainedBufferBytes) std::vector<std::uint8_t>().swap(buf_);
    }
    return f;
  }

 private:
  std::size_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  // bytes of buf_ already yielded as frames
  Error error_ = Error::kNone;
};

}  // namespace mhhea::server
