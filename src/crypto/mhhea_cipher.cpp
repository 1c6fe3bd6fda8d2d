#include "src/crypto/mhhea_cipher.hpp"

#include <algorithm>
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
}  // namespace

MhheaCipher::~MhheaCipher() {
  util::secure_wipe_object(seed_);
  // The envelope scratch held (compressed) plaintext.
  util::secure_wipe(z_seal_buf_.data(), z_seal_buf_.size());
  util::secure_wipe(z_open_buf_.data(), z_open_buf_.size());
}

void MhheaCipher::set_compression(compress::Method method) {
  require_v2("set_compression");
  if (!compress::method_known(static_cast<std::uint8_t>(method))) {
    throw std::invalid_argument("MhheaCipher::set_compression: unknown method");
  }
  compression_ = method;
}

compress::Compressor& MhheaCipher::compressor_for(std::uint8_t tag) {
  if (!compress::method_known(tag)) {
    throw std::invalid_argument("MhheaCipher: unknown compression method tag");
  }
  auto& slot = compressors_[tag];
  if (!slot) slot = compress::make_compressor(static_cast<compress::Method>(tag));
  return *slot;
}

MhheaCipher::SealBody MhheaCipher::make_seal_body(std::span<const std::uint8_t> msg) {
  if (compression_ == compress::Method::raw || msg.size() < kMinCompressBytes ||
      !compress::probably_compressible(msg)) {
    return {msg, 0};
  }
  const auto tag = static_cast<std::uint8_t>(compression_);
  compress::Compressor& comp = compressor_for(tag);
  const std::size_t head = 1 + compress::varint_size(msg.size());
  const std::size_t cap = head + comp.max_compressed_size(msg.size());
  if (z_seal_buf_.size() < cap) z_seal_buf_.resize(cap);
  z_seal_buf_[0] = tag;
  (void)compress::varint_encode(msg.size(), std::span(z_seal_buf_).subspan(1));
  const std::size_t stream =
      comp.compress_into(msg, std::span(z_seal_buf_).subspan(head));
  // Strictly smaller or fall back: a compressed frame must never be larger
  // than (or equal to) its uncompressed twin, and the fallback keeps
  // incompressible output byte-identical to a compression-disabled cipher.
  if (head + stream >= msg.size()) return {msg, 0};
  return {std::span<const std::uint8_t>(z_seal_buf_).first(head + stream), tag};
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
      const EnvelopeView env = decrypt_v2_envelope(opened);
      if (env.raw_size != msg_bytes) {
        throw std::invalid_argument("MhheaCipher: sealed header length mismatch");
      }
      if (out.size() < msg_bytes) {
        throw std::length_error("MhheaCipher::decrypt_into: output buffer too small");
      }
      return compressor_for(static_cast<std::uint8_t>(env.method))
          .decompress_into(env.stream, env.raw_size, out.first(env.raw_size));
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
  const SealBody body = make_seal_body(msg);
  set_nonce(nonce);
  // Blocks land between the header and the trailer; encrypt_into's own
  // length_error covers a payload slice that cannot hold them.
  std::span<std::uint8_t> payload = out.subspan(
      core::FrameHeader::kSizeV2, out.size() - core::FrameHeader::kOverheadV2);
  const std::size_t raw = core_.encrypt_into(body.bytes, payload);
  core::FrameHeader h;
  h.version = 2;
  h.nonce = nonce;
  h.params = params_;
  h.message_bits = static_cast<std::uint64_t>(body.bytes.size()) * 8;
  h.compression = body.method;
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

std::size_t MhheaCipher::decrypt_v2_blocks(const V2Opened& opened,
                                           std::span<std::uint8_t> out) {
  return core_.decrypt_into(opened.payload, opened.header.message_bits, out);
}

MhheaCipher::EnvelopeView MhheaCipher::decrypt_v2_envelope(const V2Opened& opened) {
  // All structural rejections here run post-MAC and decrypt only into the
  // instance scratch — a caller's output buffer is never touched on failure.
  const std::uint8_t tag = opened.header.compression;
  compress::Compressor& comp = compressor_for(tag);  // rejects unknown tags
  const std::uint64_t bits = opened.header.message_bits;
  if (bits % 8 != 0) {
    throw std::invalid_argument("MhheaCipher: compressed envelope not byte-aligned");
  }
  const auto env_bytes = static_cast<std::size_t>(bits / 8);
  if (z_open_buf_.size() < env_bytes) z_open_buf_.resize(env_bytes);
  const std::span<std::uint8_t> env = std::span(z_open_buf_).first(env_bytes);
  (void)decrypt_v2_blocks(opened, env);
  if (env.empty() || env[0] != tag) {
    throw std::invalid_argument(
        "MhheaCipher: envelope method does not match the header");
  }
  std::uint64_t raw_size = 0;
  const std::size_t varint = compress::varint_decode(env.subspan(1), &raw_size);
  const std::span<const std::uint8_t> stream = env.subspan(1 + varint);
  // The declared size is MAC-covered, but cap it against the stream's best
  // possible ratio anyway — a hard bound beats trusting arithmetic.
  if (raw_size > comp.max_decoded_size(stream.size())) {
    throw std::invalid_argument("MhheaCipher: envelope declares an impossible size");
  }
  return {static_cast<compress::Method>(tag), static_cast<std::size_t>(raw_size), stream};
}

std::size_t MhheaCipher::decrypt_v2_payload(const V2Opened& opened,
                                            std::span<std::uint8_t> out) {
  require_v2("decrypt_v2_payload");
  if (opened.header.compression == 0) return decrypt_v2_blocks(opened, out);
  const EnvelopeView env = decrypt_v2_envelope(opened);
  if (out.size() < env.raw_size) {
    throw std::length_error("MhheaCipher::decrypt_v2_payload: output buffer too small");
  }
  return compressor_for(static_cast<std::uint8_t>(env.method))
      .decompress_into(env.stream, env.raw_size, out.first(env.raw_size));
}

std::vector<std::uint8_t> MhheaCipher::open_v2_alloc(const V2Opened& opened) {
  require_v2("open_v2_alloc");
  if (opened.header.compression == 0) {
    std::vector<std::uint8_t> msg((opened.header.message_bits + 7) / 8);
    (void)decrypt_v2_blocks(opened, msg);
    return msg;
  }
  const EnvelopeView env = decrypt_v2_envelope(opened);
  std::vector<std::uint8_t> msg(env.raw_size);
  (void)compressor_for(static_cast<std::uint8_t>(env.method))
      .decompress_into(env.stream, env.raw_size, msg);
  return msg;
}

}  // namespace mhhea::crypto
