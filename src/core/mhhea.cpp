#include "src/core/mhhea.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/util/bits.hpp"
#include "src/util/bitstream.hpp"

namespace mhhea::core {

namespace {
/// Cover vectors prefetched per refill. Sized so LFSR covers cross the
/// multi-lane threshold of Lfsr::next_blocks (2 * backend::kLfsrLaneBlocks
/// blocks) and a full 8-lane pass fits per fetch; still bounded, so a walk
/// never holds more than ~16 KiB of look-ahead.
constexpr std::size_t kCoverChunk = 2048;
}  // namespace

template <class Window>
BlockEncryptor<Window>::BlockEncryptor(Key key, std::unique_ptr<CoverSource> cover,
                                       BlockParams params)
    : key_(std::move(key)), cover_(std::move(cover)), params_(params) {
  params_.validate();
  if (cover_ == nullptr) throw std::invalid_argument("Encryptor: null cover source");
  key_.require_fits(params_, "Encryptor");
  pair_ctx_ = detail::make_pair_ctx(key_, params_);
  cover_buf_.resize(kCoverChunk);
  for (const KeyPair& p : key_.pairs()) {
    cycle_min_bits_ += static_cast<std::uint64_t>(Window::min_width(p, params_));
  }
}

template <class Window>
std::uint64_t BlockEncryptor<Window>::max_cipher_bytes(std::uint64_t n_bits) const {
  if (n_bits == 0) return 0;
  const auto L = static_cast<std::uint64_t>(pair_ctx_.size());
  // Any L consecutive uncapped blocks embed at least cycle_min_bits_ bits,
  // and only caps (the message end, or one block per frame boundary) break
  // that — both covered by the trailing +L per capped region.
  const auto vb = static_cast<std::uint64_t>(params_.vector_bits);
  const std::uint64_t blocks = params_.policy == FramePolicy::framed
                                   ? (n_bits + vb - 1) / vb * (vb / cycle_min_bits_ * L + L)
                                   : n_bits / cycle_min_bits_ * L + L;
  return blocks * static_cast<std::uint64_t>(params_.block_bytes());
}

template <class Window>
std::size_t BlockEncryptor<Window>::encrypt_into(std::span<const std::uint8_t> msg,
                                                 std::span<std::uint8_t> out) {
  cover_->reset();
  util::BitReader reader(msg);
  std::uint64_t remaining = static_cast<std::uint64_t>(msg.size()) * 8;
  const auto bb = static_cast<std::size_t>(params_.block_bytes());
  const auto h = static_cast<std::uint64_t>(params_.half());
  std::uint8_t* dst = out.data();
  std::size_t pair_idx = 0;
  std::size_t pos = 0;
  std::size_t len = 0;
  // Refill the resident prefetch chunk. `rem` is a lower bound on the blocks
  // still needed (each embeds at most N/2 bits, and frame caps only raise the
  // count), so every fetched vector is consumed before the walk ends — which
  // drains finite covers exactly and makes the chunk-granular space check
  // exact rather than pessimistic.
  const auto refill = [&](std::uint64_t rem) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(cover_buf_.size(), std::max<std::uint64_t>(rem / h, 1)));
    len = cover_->next_blocks(params_.vector_bits, std::span(cover_buf_.data(), want));
    pos = 0;
    if (len == 0) throw std::runtime_error("Encryptor: cover source exhausted");
    if (out.size() - static_cast<std::size_t>(dst - out.data()) < len * bb) {
      throw std::length_error("Encryptor::encrypt_into: output buffer too small");
    }
  };
  if (params_.policy == FramePolicy::framed) {
    // Frame-batched, final-sized: the whole message length is in hand, so
    // every frame is planned at its one-shot size directly, with one bulk
    // message-word read per frame (a frame is <= vector_bits <= 64 bits).
    while (remaining > 0) {
      const int frame = params_.frame_budget(remaining);
      const std::uint64_t word = reader.read_bits(frame);
      int consumed = 0;
      while (consumed < frame) {
        if (pos == len) refill(remaining - static_cast<std::uint64_t>(consumed));
        const std::uint64_t v = cover_buf_[pos++];
        const detail::PairCtx& pc = pair_ctx_[pair_idx];
        if (++pair_idx == pair_ctx_.size()) pair_idx = 0;
        const ScrambledRange r = Window::range(v, pc.pair, params_);
        const int w = std::min(r.width(), frame - consumed);
        // The embed keeps only the low w bits of the shifted word.
        util::store_le(
            dst, embed_bits_with_pattern(v, r.kn1, Window::pattern(pc), word >> consumed, w),
            static_cast<int>(bb));
        dst += bb;
        consumed += w;
      }
      remaining -= static_cast<std::uint64_t>(frame);
    }
  } else {
    while (remaining > 0) {
      if (pos == len) refill(remaining);
      const std::uint64_t v = cover_buf_[pos++];
      const detail::PairCtx& pc = pair_ctx_[pair_idx];
      if (++pair_idx == pair_ctx_.size()) pair_idx = 0;
      const ScrambledRange r = Window::range(v, pc.pair, params_);
      const int w = static_cast<int>(
          std::min(static_cast<std::uint64_t>(r.width()), remaining));
      util::store_le(
          dst, embed_bits_with_pattern(v, r.kn1, Window::pattern(pc), reader.read_bits(w), w),
          static_cast<int>(bb));
      dst += bb;
      remaining -= static_cast<std::uint64_t>(w);
    }
  }
  return static_cast<std::size_t>(dst - out.data());
}

template <class Window>
BlockDecryptor<Window>::BlockDecryptor(Key key, std::uint64_t /*message_bits*/,
                                       BlockParams params)
    : key_(std::move(key)), params_(params) {
  params_.validate();
  key_.require_fits(params_, "Decryptor");
  pair_ctx_ = detail::make_pair_ctx(key_, params_);
}

template <class Window>
std::size_t BlockDecryptor<Window>::decrypt_into(std::span<const std::uint8_t> cipher,
                                                 std::uint64_t message_bits,
                                                 std::span<std::uint8_t> out) {
  const auto bb = static_cast<std::size_t>(params_.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument("Decryptor::decrypt_into: ciphertext not block-aligned");
  }
  const auto out_bytes = static_cast<std::size_t>((message_bits + 7) / 8);
  if (out.size() < out_bytes) {
    throw std::length_error("Decryptor::decrypt_into: output buffer too small");
  }
  util::SpanBitWriter sink(out.first(out_bytes));
  std::uint64_t recovered = 0;
  std::size_t pair_idx = 0;
  const std::uint8_t* src = cipher.data();
  const std::uint8_t* const end = src + cipher.size();
  if (params_.policy != FramePolicy::framed) {
    while (src != end) {
      if (recovered == message_bits) {
        throw std::invalid_argument(
            "Decryptor::decrypt_into: trailing ciphertext blocks after message end");
      }
      const std::uint64_t v = util::load_le(src, static_cast<int>(bb));
      src += bb;
      const detail::PairCtx& pc = pair_ctx_[pair_idx];
      if (++pair_idx == pair_ctx_.size()) pair_idx = 0;
      const ScrambledRange range = Window::range(v, pc.pair, params_);
      const int w = static_cast<int>(std::min<std::uint64_t>(
          static_cast<std::uint64_t>(range.width()), message_bits - recovered));
      sink.write_bits(extract_bits_with_pattern(v, range.kn1, Window::pattern(pc), w), w);
      recovered += static_cast<std::uint64_t>(w);
    }
  } else {
    // Frame-batched: one word accumulates each frame's bits, one write_bits
    // flushes them.
    while (src != end) {
      if (recovered == message_bits) {
        throw std::invalid_argument(
            "Decryptor::decrypt_into: trailing ciphertext blocks after message end");
      }
      int budget = params_.frame_budget(message_bits - recovered);
      std::uint64_t word = 0;
      int consumed = 0;
      while (budget > 0 && src != end) {
        const std::uint64_t v = util::load_le(src, static_cast<int>(bb));
        src += bb;
        const detail::PairCtx& pc = pair_ctx_[pair_idx];
        if (++pair_idx == pair_ctx_.size()) pair_idx = 0;
        const ScrambledRange range = Window::range(v, pc.pair, params_);
        const int w = std::min(range.width(), budget);
        word |= extract_bits_with_pattern(v, range.kn1, Window::pattern(pc), w) << consumed;
        consumed += w;
        budget -= w;
      }
      sink.write_bits(word, consumed);
      recovered += static_cast<std::uint64_t>(consumed);
      if (budget > 0) break;  // ciphertext ended mid-frame: too short, below
    }
  }
  if (recovered < message_bits) {
    throw std::invalid_argument(
        "Decryptor::decrypt_into: ciphertext too short for message length");
  }
  sink.flush();
  return out_bytes;
}

template class BlockEncryptor<ScrambledWindow>;
template class BlockEncryptor<FixedWindow>;
template class BlockDecryptor<ScrambledWindow>;
template class BlockDecryptor<FixedWindow>;

std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg, const Key& key,
                                  std::uint64_t seed, BlockParams params) {
  Encryptor enc(key, make_lfsr_cover(params.vector_bits, seed), params);
  std::vector<std::uint8_t> out(enc.max_cipher_bytes(static_cast<std::uint64_t>(msg.size()) * 8));
  out.resize(enc.encrypt_into(msg, out));
  return out;
}

std::vector<std::uint8_t> decrypt(std::span<const std::uint8_t> cipher, const Key& key,
                                  std::size_t msg_bytes, BlockParams params) {
  Decryptor dec(key, 0, params);
  std::vector<std::uint8_t> msg(msg_bytes);
  (void)dec.decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8, msg);
  return msg;
}

}  // namespace mhhea::core
