#include "src/crypto/mhhea_cipher.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/core/analysis.hpp"
#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/util/secret.hpp"

namespace mhhea::crypto {

MhheaCipher::MhheaCipher(core::Key key, std::uint64_t seed, core::BlockParams params,
                         Framing framing)
    : MhheaCipher(std::move(key), seed,
                  framing == Framing::sealed_v2 ? V2KeySchedule::derive(seed)
                                                : V2KeySchedule{},
                  params, framing) {}

MhheaCipher::MhheaCipher(core::Key key, const V2KeySchedule& schedule,
                         core::BlockParams params, Framing framing)
    : MhheaCipher(std::move(key), 0, schedule, params, framing) {
  if (framing != Framing::sealed_v2) {
    throw std::invalid_argument("MhheaCipher: a key schedule requires Framing::sealed_v2");
  }
}

MhheaCipher::MhheaCipher(core::Key key, std::uint64_t seed, const V2KeySchedule& schedule,
                         core::BlockParams params, Framing framing)
    : key_(std::move(key)),
      seed_(seed),
      params_(params),
      framing_(framing),
      sched_(schedule),
      // Core construction validates params, seed and key-vs-params eagerly.
      // sealed_v2 seeds the cover for nonce 0 from the schedule (cur_nonce_
      // starts at 0 to match); the raw seed is then only schedule input.
      core_(key_,
            core::make_lfsr_cover(params_.vector_bits, framing == Framing::sealed_v2
                                                           ? v2_cover_seed(0)
                                                           : seed),
            params_),
      expansion_(core::expected_expansion(key_, params_)) {}

namespace {
/// Messages below this never attempt compression: the envelope's tag +
/// varint (and Huffman's 128-byte table) cannot win much, the probe's sample
/// is too small to mean anything, and even the probe itself is measurable
/// next to a sub-2us seal — the 64-byte bench cell sits below this floor so
/// incompressible small-message throughput is untouched by construction.
constexpr std::size_t kMinCompressBytes = 96;

/// An envelope buffer whose capacity exceeds this is freed after the message
/// that grew it, so one large message does not pin its size on the thread.
constexpr std::size_t kScratchKeepBytes = 64 * 1024;

/// The compression pre-stage's working state, one per thread: the
/// per-method encoders (built the first time the thread seals with a
/// method; decoding needs none) and one envelope buffer per direction. None
/// of it depends on a key, so every cipher on the thread shares it; no call
/// re-enters another on the same thread.
struct CompressScratch {
  std::array<std::unique_ptr<compress::Compressor>, compress::kMethodCount> engines;
  std::vector<std::uint8_t> seal_buf;
  std::vector<std::uint8_t> open_buf;

  compress::Compressor& engine(compress::Method method) {
    auto& slot = engines[static_cast<std::size_t>(method)];
    if (!slot) slot = compress::make_compressor(method);
    return *slot;
  }
};

thread_local CompressScratch t_scratch;

/// Lends one of the thread's envelope buffers to one message. On scope exit,
/// normal or by exception, it wipes the bytes the message used (they are
/// plaintext-derived) and frees the buffer if it grew past kScratchKeepBytes.
/// Earlier messages wiped theirs, so the buffer is all zeros whenever it is
/// reallocated or freed.
class EnvelopeLease {
 public:
  explicit EnvelopeLease(std::vector<std::uint8_t>& buf) noexcept : buf_(buf) {}
  EnvelopeLease(const EnvelopeLease&) = delete;
  EnvelopeLease& operator=(const EnvelopeLease&) = delete;
  ~EnvelopeLease() {
    util::secure_wipe(buf_.data(), used_);
    if (buf_.capacity() > kScratchKeepBytes) std::vector<std::uint8_t>().swap(buf_);
  }

  /// The first `n` bytes of the buffer, grown if needed; once per lease.
  std::span<std::uint8_t> take(std::size_t n) {
    if (buf_.size() < n) buf_.resize(n);
    used_ = n;
    return std::span(buf_).first(n);
  }

 private:
  std::vector<std::uint8_t>& buf_;
  std::size_t used_ = 0;
};

/// What a seal encrypts: the message itself (method 0), or its envelope in
/// `lease` when compression is on, worth trying, and wins.
struct SealBody {
  std::span<const std::uint8_t> bytes;
  std::uint8_t method = 0;
};

SealBody make_seal_body(compress::Method method, std::span<const std::uint8_t> msg,
                        EnvelopeLease& lease) {
  if (method == compress::Method::raw || msg.size() < kMinCompressBytes ||
      !compress::probably_compressible(msg)) {
    return {msg, 0};
  }
  const auto tag = static_cast<std::uint8_t>(method);
  compress::Compressor& comp = t_scratch.engine(method);
  const std::size_t head = 1 + compress::varint_size(msg.size());
  const std::span<std::uint8_t> env = lease.take(head + comp.max_compressed_size(msg.size()));
  env[0] = tag;
  (void)compress::varint_encode(msg.size(), env.subspan(1));
  const std::size_t stream = comp.compress_into(msg, env.subspan(head));
  // Strictly smaller or fall back: a compressed frame must never be larger
  // than (or equal to) its uncompressed twin, and the fallback keeps
  // incompressible output byte-identical to a compression-disabled cipher.
  if (head + stream >= msg.size()) return {msg, 0};
  return {env.first(head + stream), tag};
}

/// Decrypt an authenticated compressed container's envelope into the
/// thread's open buffer, validate it (tag vs header, varint, declared-size
/// cap) and decompress it into the span `sink(raw_size)` returns; returns
/// raw_size. Every rejection here runs post-MAC and before `sink`, so a
/// caller's buffer is never touched on failure.
template <class Sink>
std::size_t open_envelope(const core::Encryptor& core, const MhheaCipher::V2Opened& opened,
                          Sink&& sink) {
  const std::uint8_t tag = opened.header.compression;
  if (!compress::method_known(tag)) {
    throw std::invalid_argument("MhheaCipher: unknown compression method tag");
  }
  const auto method = static_cast<compress::Method>(tag);
  const std::uint64_t bits = opened.header.message_bits;
  if (bits % 8 != 0) {
    throw std::invalid_argument("MhheaCipher: compressed envelope not byte-aligned");
  }
  EnvelopeLease lease(t_scratch.open_buf);
  const std::span<std::uint8_t> env = lease.take(static_cast<std::size_t>(bits / 8));
  (void)core.decrypt_into(opened.payload, bits, env);
  if (env.empty() || env[0] != tag) {
    throw std::invalid_argument(
        "MhheaCipher: envelope method does not match the header");
  }
  std::uint64_t raw_size = 0;
  const std::size_t varint = compress::varint_decode(env.subspan(1), &raw_size);
  const std::span<const std::uint8_t> stream = env.subspan(1 + varint);
  // The declared size is MAC-covered, but cap it against the stream's best
  // possible ratio anyway — a hard bound beats trusting arithmetic.
  if (raw_size > compress::max_decoded_size(method, stream.size())) {
    throw std::invalid_argument("MhheaCipher: envelope declares an impossible size");
  }
  const auto raw = static_cast<std::size_t>(raw_size);
  return compress::decompress_into(method, stream, raw, sink(raw));
}
}  // namespace

MhheaCipher::~MhheaCipher() { util::secure_wipe_object(seed_); }

void MhheaCipher::set_compression(compress::Method method) {
  require_v2("set_compression");
  if (!compress::method_known(static_cast<std::uint8_t>(method))) {
    throw std::invalid_argument("MhheaCipher::set_compression: unknown method");
  }
  compression_ = method;
}

std::uint64_t MhheaCipher::v2_cover_seed(std::uint64_t nonce) const {
  // The cover LFSR's degree caps the usable seed bits (64-bit vectors run a
  // degree-32 register — cover.hpp).
  const int degree = params_.vector_bits >= 64 ? 32 : params_.vector_bits;
  return sched_.cover_seed(nonce, degree);
}

void MhheaCipher::set_nonce(std::uint64_t nonce) {
  if (nonce == cur_nonce_) return;
  const std::uint64_t s = v2_cover_seed(nonce);
  core_.reseed(s);
  cur_nonce_ = nonce;
}

void MhheaCipher::require_v2(const char* what) const {
  if (framing_ != Framing::sealed_v2) {
    throw std::logic_error(std::string("MhheaCipher::") + what +
                           ": requires Framing::sealed_v2");
  }
}

std::size_t MhheaCipher::encrypt_into(std::span<const std::uint8_t> msg,
                                      std::span<std::uint8_t> out) {
  // Through the uniform interface every sealed_v2 message goes out under
  // nonce 0 — deterministic, like every other cipher in the sweep. Callers
  // that need distinct nonces drive seal_v2_into (crypto::Session does).
  if (framing_ == Framing::sealed_v2) return seal_v2_into(msg, 0, out);
  std::span<std::uint8_t> payload = out;
  if (framing_ == Framing::sealed) {
    if (out.size() < core::FrameHeader::kSize) {
      throw std::length_error("MhheaCipher::encrypt_into: output buffer too small");
    }
    payload = out.subspan(core::FrameHeader::kSize);
  }
  const std::size_t raw = core_.encrypt_into(msg, payload);
  if (framing_ == Framing::sealed) {
    core::FrameHeader h;
    h.params = params_;
    h.message_bits = static_cast<std::uint64_t>(msg.size()) * 8;
    core::frame_encode_header(h, out);
    return core::FrameHeader::kSize + raw;
  }
  return raw;
}

std::size_t MhheaCipher::decrypt_into(std::span<const std::uint8_t> cipher,
                                      std::size_t msg_bytes, std::span<std::uint8_t> out) {
  const std::uint64_t message_bits = static_cast<std::uint64_t>(msg_bytes) * 8;
  if (framing_ == Framing::sealed_v2) {
    // Authenticate first — on any tampering this throws before a single
    // block is decrypted.
    const V2Opened opened = open_v2_authenticate(cipher);
    if (opened.header.compression != 0) {
      // Compressed container: the header counts envelope bits, so the
      // caller's declared length is checked against the envelope's raw size
      // (decrypted into scratch — `out` stays untouched on mismatch).
      return open_envelope(core_, opened, [&](std::size_t raw) {
        if (raw != msg_bytes) {
          throw std::invalid_argument("MhheaCipher: sealed header length mismatch");
        }
        if (out.size() < raw) {
          throw std::length_error("MhheaCipher::decrypt_into: output buffer too small");
        }
        return out.first(raw);
      });
    }
    if (opened.header.message_bits != message_bits) {
      throw std::invalid_argument("MhheaCipher: sealed header length mismatch");
    }
    return decrypt_v2_payload(opened, out);
  }
  std::span<const std::uint8_t> payload = cipher;
  if (framing_ == Framing::sealed) {
    const core::FrameHeader h = core::frame_decode(cipher, &payload);
    if (h.version != 1) {
      // A v2 container parses structurally, but opening it here would skip
      // MAC verification — cross-version confusion is rejected outright.
      throw std::invalid_argument(
          "MhheaCipher: v1 sealed cipher cannot open a v2 container");
    }
    if (h.params != params_) {
      throw std::invalid_argument("MhheaCipher: sealed header params mismatch");
    }
    if (h.message_bits != message_bits) {
      throw std::invalid_argument("MhheaCipher: sealed header length mismatch");
    }
  }
  return core_.decrypt_into(payload, message_bits, out);
}

std::size_t MhheaCipher::max_ciphertext_size(std::size_t msg_bytes) const {
  std::size_t overhead = 0;
  if (framing_ == Framing::sealed) overhead = core::FrameHeader::kSize;
  if (framing_ == Framing::sealed_v2) overhead = core::FrameHeader::kOverheadV2;
  return static_cast<std::size_t>(
             core_.max_cipher_bytes(static_cast<std::uint64_t>(msg_bytes) * 8)) +
         overhead;
}

std::size_t MhheaCipher::seal_v2_into(std::span<const std::uint8_t> msg, std::uint64_t nonce,
                                      std::span<std::uint8_t> out) {
  require_v2("seal_v2_into");
  if (out.size() < core::FrameHeader::kOverheadV2) {
    throw std::length_error("MhheaCipher::seal_v2_into: output buffer too small");
  }
  // Compression pre-stage: seal the envelope when it wins, the message
  // itself otherwise (body.method == 0 then, and the frame is byte-identical
  // to a compression-disabled seal).
  EnvelopeLease lease(t_scratch.seal_buf);
  const SealBody body = make_seal_body(compression_, msg, lease);
  return seal_body_into(body.bytes, body.method, nonce, out);
}

std::vector<std::uint8_t> MhheaCipher::seal_v2_alloc(std::span<const std::uint8_t> msg,
                                                     std::uint64_t nonce) {
  require_v2("seal_v2_alloc");
  EnvelopeLease lease(t_scratch.seal_buf);
  const SealBody body = make_seal_body(compression_, msg, lease);
  std::vector<std::uint8_t> out(max_ciphertext_size(body.bytes.size()));
  out.resize(seal_body_into(body.bytes, body.method, nonce, out));
  return out;
}

std::size_t MhheaCipher::seal_body_into(std::span<const std::uint8_t> body, std::uint8_t method,
                                        std::uint64_t nonce, std::span<std::uint8_t> out) {
  set_nonce(nonce);
  // Blocks land between the header and the trailer; encrypt_into's own
  // length_error covers a payload slice that cannot hold them.
  std::span<std::uint8_t> payload = out.subspan(
      core::FrameHeader::kSizeV2, out.size() - core::FrameHeader::kOverheadV2);
  const std::size_t raw = core_.encrypt_into(body, payload);
  core::FrameHeader h;
  h.version = 2;
  h.nonce = nonce;
  h.params = params_;
  h.message_bits = static_cast<std::uint64_t>(body.size()) * 8;
  h.compression = method;
  core::frame_encode_header(h, out);
  const std::size_t authed = core::FrameHeader::kSizeV2 + raw;
  const MacTag tag = siphash128(sched_.mac_key, out.first(authed));
  std::copy(tag.begin(), tag.end(), out.begin() + static_cast<std::ptrdiff_t>(authed));
  return authed + core::FrameHeader::kMacBytesV2;
}

MhheaCipher::V2Opened MhheaCipher::open_v2_authenticate(
    std::span<const std::uint8_t> framed) const {
  require_v2("open_v2_authenticate");
  std::span<const std::uint8_t> payload;
  const core::FrameHeader h = core::frame_decode(framed, &payload);
  if (h.version != 2) {
    throw std::invalid_argument("MhheaCipher: sealed-v2 open of a v1 container");
  }
  if (h.params != params_) {
    throw std::invalid_argument("MhheaCipher: sealed header params mismatch");
  }
  const std::size_t authed = framed.size() - core::FrameHeader::kMacBytesV2;
  const MacTag tag = siphash128(sched_.mac_key, framed.first(authed));
  if (!constant_time_equal(tag, framed.subspan(authed))) {
    throw MacError("MhheaCipher: sealed-v2 MAC verification failed");
  }
  return {h, payload};
}

std::size_t MhheaCipher::decrypt_v2_payload(const V2Opened& opened,
                                            std::span<std::uint8_t> out) {
  require_v2("decrypt_v2_payload");
  if (opened.header.compression == 0) {
    return core_.decrypt_into(opened.payload, opened.header.message_bits, out);
  }
  return open_envelope(core_, opened, [&](std::size_t raw) {
    if (out.size() < raw) {
      throw std::length_error("MhheaCipher::decrypt_v2_payload: output buffer too small");
    }
    return out.first(raw);
  });
}

std::vector<std::uint8_t> MhheaCipher::open_v2_alloc(const V2Opened& opened) {
  require_v2("open_v2_alloc");
  std::vector<std::uint8_t> msg;
  if (opened.header.compression == 0) {
    msg.resize((opened.header.message_bits + 7) / 8);
    (void)core_.decrypt_into(opened.payload, opened.header.message_bits, msg);
    return msg;
  }
  (void)open_envelope(core_, opened, [&](std::size_t raw) {
    msg.resize(raw);
    return std::span<std::uint8_t>(msg);
  });
  return msg;
}

}  // namespace mhhea::crypto
