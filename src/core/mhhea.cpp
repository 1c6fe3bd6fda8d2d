#include "src/core/mhhea.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/util/bits.hpp"

namespace mhhea::core {

namespace {
/// Cover vectors prefetched per refill: the chunk lives on the walk's stack,
/// so this bounds its look-ahead to 16 KiB, while a fetch stays long enough
/// that the per-refill call and bounds check are noise next to the blocks.
constexpr std::size_t kCoverChunk = 2048;
}  // namespace

template <class Window>
BlockDecryptor<Window>::BlockDecryptor(const Key& key, std::uint64_t /*message_bits*/,
                                       BlockParams params)
    : params_(params) {
  params_.validate();
  key.require_fits(params_, "block core");
  pairs_ = detail::PairTables::build<Window>(key, params_);
}

template <class Window>
BlockEncryptor<Window>::BlockEncryptor(const Key& key, std::unique_ptr<CoverSource> cover,
                                       BlockParams params)
    : BlockDecryptor<Window>(key, 0, params), cover_(std::move(cover)) {
  if (cover_ == nullptr) throw std::invalid_argument("Encryptor: null cover source");
  for (const KeyPair& p : key.pairs()) {
    cycle_min_bits_ += static_cast<std::uint64_t>(Window::min_width(p, params_));
  }
}

template <class Window>
std::uint64_t BlockEncryptor<Window>::max_cipher_bytes(std::uint64_t n_bits) const {
  if (n_bits == 0) return 0;
  const auto L = static_cast<std::uint64_t>(pairs_.size());
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
  const std::uint64_t total = static_cast<std::uint64_t>(msg.size()) * 8;
  std::uint64_t bitpos = 0;
  const auto bb = static_cast<std::size_t>(params_.block_bytes());
  const int h = params_.half();
  const int lb = params_.loc_bits();
  std::uint8_t* dst = out.data();
  // Plain locals, so the byte stores through dst cannot force reloads.
  std::array<std::uint64_t, kCoverChunk> chunk;  // filled by refill before any read
  const std::uint64_t* const cover = chunk.data();
  const detail::PairCtx* const first = pairs_.begin();
  const detail::PairCtx* const last = pairs_.end();
  const detail::PairCtx* pc = first;
  std::size_t pos = 0;
  std::size_t len = 0;
  // Refill the prefetch chunk. `rem` is a lower bound on the blocks
  // still needed (each embeds at most N/2 bits, and frame caps only raise the
  // count), so every fetched vector is consumed before the walk ends — which
  // drains finite covers exactly and makes the chunk-granular space check
  // exact rather than pessimistic.
  const auto refill = [&](std::uint64_t rem) {
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
        kCoverChunk, std::max<std::uint64_t>(rem / static_cast<std::uint64_t>(h), 1)));
    len = cover_->next_blocks(params_.vector_bits, std::span(chunk.data(), want));
    pos = 0;
    if (len == 0) throw std::runtime_error("Encryptor: cover source exhausted");
    if (out.size() - static_cast<std::size_t>(dst - out.data()) < len * bb) {
      throw std::length_error("Encryptor::encrypt_into: output buffer too small");
    }
  };
  // Embed the low bits of `bits` into the next cover block, at most `cap` of
  // them, and return how many went in. The embed keeps only the low w bits.
  const auto embed_next = [&](std::uint64_t bits, std::uint64_t cap) {
    const std::uint64_t v = cover[pos++];
    const detail::PairCtx& p = *pc;
    if (++pc == last) pc = first;
    const std::uint16_t e = p.range[detail::range_index(v, p.lo, h, lb)];
    const int w = static_cast<int>(std::min<std::uint64_t>(e >> 8, cap));
    util::store_le(dst, embed_bits_with_pattern(v, e & 0xFF, p.pattern, bits, w),
                   static_cast<int>(bb));
    dst += bb;
    return w;
  };
  if (params_.policy == FramePolicy::framed) {
    // Frame-batched, final-sized: the whole message length is in hand, so
    // every frame is planned at its one-shot size directly. A frame starts
    // byte-aligned and is <= vector_bits <= 64 bits, so one word load holds
    // all of it.
    while (bitpos < total) {
      const int frame = params_.frame_budget(total - bitpos);
      const std::uint64_t word = util::load_bits(msg, bitpos);
      for (int consumed = 0; consumed < frame;) {
        if (pos == len) refill(total - bitpos - static_cast<std::uint64_t>(consumed));
        consumed += embed_next(word >> consumed, static_cast<std::uint64_t>(frame - consumed));
      }
      bitpos += static_cast<std::uint64_t>(frame);
    }
  } else {
    // A block takes at most N/2 <= 32 bits, within the >= 57 of one load.
    while (bitpos < total) {
      if (pos == len) refill(total - bitpos);
      const int w = embed_next(util::load_bits(msg, bitpos), total - bitpos);
      bitpos += static_cast<std::uint64_t>(w);
    }
  }
  return static_cast<std::size_t>(dst - out.data());
}

template <class Window>
std::size_t BlockDecryptor<Window>::decrypt_into(std::span<const std::uint8_t> cipher,
                                                 std::uint64_t message_bits,
                                                 std::span<std::uint8_t> out) const {
  const auto bb = static_cast<std::size_t>(params_.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument("Decryptor::decrypt_into: ciphertext not block-aligned");
  }
  const auto out_bytes = static_cast<std::size_t>((message_bits + 7) / 8);
  if (out.size() < out_bytes) {
    throw std::length_error("Decryptor::decrypt_into: output buffer too small");
  }
  const int h = params_.half();
  const int lb = params_.loc_bits();
  std::uint64_t recovered = 0;
  const detail::PairCtx* const first = pairs_.begin();
  const detail::PairCtx* const last = pairs_.end();
  const detail::PairCtx* pc = first;
  const std::uint8_t* src = cipher.data();
  const std::uint8_t* const end = src + cipher.size();
  // OR at most `cap` message bits of the next ciphertext block into `word`
  // at bit `at`, and return how many.
  const auto extract_next = [&](std::uint64_t cap, std::uint64_t& word, int at) {
    const std::uint64_t v = util::load_le(src, static_cast<int>(bb));
    src += bb;
    const detail::PairCtx& p = *pc;
    if (++pc == last) pc = first;
    const std::uint16_t e = p.range[detail::range_index(v, p.lo, h, lb)];
    const int w = static_cast<int>(std::min<std::uint64_t>(e >> 8, cap));
    word |= extract_bits_with_pattern(v, e & 0xFF, p.pattern, w) << at;
    return w;
  };
  const auto check_not_trailing = [&] {
    if (recovered == message_bits) {
      throw std::invalid_argument(
          "Decryptor::decrypt_into: trailing ciphertext blocks after message end");
    }
  };
  if (params_.policy != FramePolicy::framed) {
    // A 64-bit accumulator flushed 32 bits at a time: it holds < 32 bits
    // between blocks and a block adds at most N/2 <= 32, and every flushed
    // byte is whole message bits, so no store passes out_bytes.
    std::uint8_t* sink = out.data();
    std::uint64_t acc = 0;
    int fill = 0;
    while (src != end) {
      check_not_trailing();
      const int w = extract_next(message_bits - recovered, acc, fill);
      fill += w;
      recovered += static_cast<std::uint64_t>(w);
      if (fill >= 32) {
        util::store_le(sink, acc, 4);
        sink += 4;
        acc >>= 32;
        fill -= 32;
      }
    }
    util::store_le(sink, acc, (fill + 7) / 8);
  } else {
    // Frame-batched: one word accumulates each frame's bits (<= 64) and is
    // stored straight at the frame's byte-aligned offset.
    while (src != end) {
      check_not_trailing();
      int budget = params_.frame_budget(message_bits - recovered);
      std::uint64_t word = 0;
      int consumed = 0;
      while (budget > 0 && src != end) {
        const int w = extract_next(static_cast<std::uint64_t>(budget), word, consumed);
        consumed += w;
        budget -= w;
      }
      util::store_le(out.data() + recovered / 8, word, (consumed + 7) / 8);
      recovered += static_cast<std::uint64_t>(consumed);
      if (budget > 0) break;  // ciphertext ended mid-frame: too short, below
    }
  }
  if (recovered < message_bits) {
    throw std::invalid_argument(
        "Decryptor::decrypt_into: ciphertext too short for message length");
  }
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
