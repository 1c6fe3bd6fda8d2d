#include "src/crypto/hhea.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/util/bits.hpp"

namespace mhhea::crypto {

using core::BlockParams;
using core::FramePolicy;

HheaEncryptor::HheaEncryptor(core::Key key, std::unique_ptr<core::CoverSource> cover,
                             BlockParams params)
    : key_(std::move(key)), cover_(std::move(cover)), params_(params) {
  params_.validate();
  if (cover_ == nullptr) throw std::invalid_argument("HheaEncryptor: null cover source");
  key_.require_fits(params_, "HheaEncryptor");
}

void HheaEncryptor::feed(std::span<const std::uint8_t> msg) {
  util::BitReader reader(msg);
  std::size_t remaining = reader.size_bits();
  const bool framed = params_.policy == FramePolicy::framed;
  const auto n_pairs = static_cast<std::size_t>(key_.size());
  blocks_.reserve(blocks_.size() + remaining / 3 + 4);
  while (remaining > 0) {
    if (framed && frame_remaining_ == 0) {
      frame_remaining_ = params_.frame_budget(remaining);
    }
    const std::uint64_t v = cover_->next_block(params_.vector_bits);
    const core::KeyPair& pair = key_.pair(static_cast<int>(pair_idx_));
    if (++pair_idx_ == n_pairs) pair_idx_ = 0;
    const std::size_t cap = framed ? static_cast<std::size_t>(frame_remaining_) : remaining;
    const int n = pair.span() + 1;  // fixed, unscrambled range width
    const int w = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(n), cap));
    // Whole-word embed at the fixed location — no data XOR in HHEA.
    blocks_.push_back(util::deposit(v, pair.lo() + w - 1, pair.lo(), reader.read_bits(w)));
    ++block_index_;
    msg_bits_ += static_cast<std::uint64_t>(w);
    remaining -= static_cast<std::size_t>(w);
    if (framed) frame_remaining_ -= w;
  }
}

std::size_t HheaEncryptor::encrypt_into(std::span<const std::uint8_t> msg,
                                        std::span<std::uint8_t> out) {
  reset();
  util::BitReader reader(msg);
  std::size_t remaining = reader.size_bits();
  const bool framed = params_.policy == FramePolicy::framed;
  const auto n_pairs = static_cast<std::size_t>(key_.size());
  const int bb = params_.block_bytes();
  std::uint8_t* dst = out.data();
  std::size_t space = out.size();
  std::size_t pair_idx = 0;
  int frame_remaining = 0;
  while (remaining > 0) {
    if (framed && frame_remaining == 0) frame_remaining = params_.frame_budget(remaining);
    if (space < static_cast<std::size_t>(bb)) {
      throw std::length_error("HheaEncryptor::encrypt_into: output buffer too small");
    }
    const std::uint64_t v = cover_->next_block(params_.vector_bits);
    const core::KeyPair& pair = key_.pair(static_cast<int>(pair_idx));
    if (++pair_idx == n_pairs) pair_idx = 0;
    const std::size_t cap = framed ? static_cast<std::size_t>(frame_remaining) : remaining;
    const int n = pair.span() + 1;
    const int w = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(n), cap));
    util::store_le(dst, util::deposit(v, pair.lo() + w - 1, pair.lo(), reader.read_bits(w)),
                   bb);
    dst += bb;
    space -= static_cast<std::size_t>(bb);
    remaining -= static_cast<std::size_t>(w);
    if (framed) frame_remaining -= w;
  }
  // Rewind the cover so the core sits in the full reset state again.
  cover_->reset();
  return static_cast<std::size_t>(dst - out.data());
}

void HheaEncryptor::reset() {
  cover_->reset();
  blocks_.clear();
  block_index_ = 0;
  pair_idx_ = 0;
  msg_bits_ = 0;
  frame_remaining_ = 0;
}

std::vector<std::uint8_t> HheaEncryptor::cipher_bytes() const {
  const int bb = params_.block_bytes();
  std::vector<std::uint8_t> out(blocks_.size() * static_cast<std::size_t>(bb));
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    util::store_le(out.data() + i * static_cast<std::size_t>(bb), blocks_[i], bb);
  }
  return out;
}

HheaDecryptor::HheaDecryptor(core::Key key, std::uint64_t message_bits, BlockParams params)
    : key_(std::move(key)), params_(params), total_bits_(message_bits) {
  params_.validate();
  key_.require_fits(params_, "HheaDecryptor");
  out_.reserve_bits(message_bits);
}

int HheaDecryptor::feed_block(std::uint64_t block) {
  if (done()) return 0;
  const bool framed = params_.policy == FramePolicy::framed;
  if (framed && frame_remaining_ == 0) {
    frame_remaining_ = params_.frame_budget(total_bits_ - recovered_);
  }
  const core::KeyPair& pair = key_.pair(static_cast<int>(pair_idx_));
  if (++pair_idx_ == static_cast<std::size_t>(key_.size())) pair_idx_ = 0;
  const std::uint64_t cap = framed ? static_cast<std::uint64_t>(frame_remaining_)
                                   : total_bits_ - recovered_;
  const int n = pair.span() + 1;
  const int w =
      static_cast<int>(std::min<std::uint64_t>(static_cast<std::uint64_t>(n), cap));
  out_.write_bits(block >> pair.lo(), w);  // write_bits keeps the low w bits
  recovered_ += static_cast<std::uint64_t>(w);
  ++block_index_;
  if (framed) frame_remaining_ -= w;
  return w;
}

void HheaDecryptor::feed_bytes(std::span<const std::uint8_t> cipher) {
  const auto bb = static_cast<std::size_t>(params_.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument("HheaDecryptor: ciphertext not block-aligned");
  }
  for (std::size_t i = 0; i < cipher.size(); i += bb) {
    if (done()) {
      throw std::invalid_argument(
          "HheaDecryptor: trailing ciphertext blocks after message end");
    }
    feed_block(util::load_le(cipher.data() + i, static_cast<int>(bb)));
  }
}

std::size_t HheaDecryptor::decrypt_into(std::span<const std::uint8_t> cipher,
                                        std::uint64_t message_bits,
                                        std::span<std::uint8_t> out) {
  reset(message_bits);
  const auto bb = static_cast<std::size_t>(params_.block_bytes());
  if (cipher.size() % bb != 0) {
    throw std::invalid_argument("HheaDecryptor::decrypt_into: ciphertext not block-aligned");
  }
  const auto out_bytes = static_cast<std::size_t>((message_bits + 7) / 8);
  if (out.size() < out_bytes) {
    throw std::length_error("HheaDecryptor::decrypt_into: output buffer too small");
  }
  util::SpanBitWriter sink(out.first(out_bytes));
  const bool framed = params_.policy == FramePolicy::framed;
  const auto n_pairs = static_cast<std::size_t>(key_.size());
  std::uint64_t recovered = 0;
  std::size_t pair_idx = 0;
  int frame_remaining = 0;
  const std::uint8_t* src = cipher.data();
  const std::uint8_t* const end = src + cipher.size();
  while (src != end) {
    if (recovered == message_bits) {
      throw std::invalid_argument(
          "HheaDecryptor::decrypt_into: trailing ciphertext blocks after message end");
    }
    if (framed && frame_remaining == 0) {
      frame_remaining = params_.frame_budget(message_bits - recovered);
    }
    const std::uint64_t v = util::load_le(src, static_cast<int>(bb));
    src += bb;
    const core::KeyPair& pair = key_.pair(static_cast<int>(pair_idx));
    if (++pair_idx == n_pairs) pair_idx = 0;
    const std::uint64_t cap = framed ? static_cast<std::uint64_t>(frame_remaining)
                                     : message_bits - recovered;
    const int n = pair.span() + 1;
    const int w =
        static_cast<int>(std::min<std::uint64_t>(static_cast<std::uint64_t>(n), cap));
    sink.write_bits(v >> pair.lo(), w);
    recovered += static_cast<std::uint64_t>(w);
    if (framed) frame_remaining -= w;
  }
  if (recovered < message_bits) {
    throw std::invalid_argument(
        "HheaDecryptor::decrypt_into: ciphertext too short for message length");
  }
  sink.flush();
  return out_bytes;
}

void HheaDecryptor::reset(std::uint64_t message_bits) {
  total_bits_ = message_bits;
  recovered_ = 0;
  block_index_ = 0;
  pair_idx_ = 0;
  frame_remaining_ = 0;
  out_.clear();
  out_.reserve_bits(message_bits);
}

std::uint64_t hhea_cipher_bytes(const core::Key& key, std::uint64_t msg_bits,
                                BlockParams params) {
  params.validate();
  key.require_fits(params, "hhea_cipher_bytes");
  return hhea_cipher_bytes(detail::WidthCycle(key), msg_bits, params);
}

std::uint64_t hhea_cipher_bytes(const detail::WidthCycle& wc, std::uint64_t msg_bits,
                                const BlockParams& params) {
  if (msg_bits == 0) return 0;
  const auto bb = static_cast<std::uint64_t>(params.block_bytes());
  if (params.policy != FramePolicy::framed) return wc.blocks_for_bits(msg_bits) * bb;
  // Framed: one cover-free frame walk over the width cycle (frame budgets
  // feed back into per-block widths, so there is no closed form).
  std::uint64_t blocks = 0;
  std::uint64_t remaining = msg_bits;
  std::size_t pair_idx = 0;
  int frame_remaining = 0;
  while (remaining > 0) {
    if (frame_remaining == 0) frame_remaining = params.frame_budget(remaining);
    const auto n = static_cast<int>(wc.prefix[pair_idx + 1] - wc.prefix[pair_idx]);
    if (++pair_idx == wc.L) pair_idx = 0;
    const int w = std::min(n, frame_remaining);
    ++blocks;
    remaining -= static_cast<std::uint64_t>(w);
    frame_remaining -= w;
  }
  return blocks * bb;
}

std::vector<std::uint8_t> hhea_encrypt(std::span<const std::uint8_t> msg,
                                       const core::Key& key, std::uint64_t seed,
                                       BlockParams params) {
  HheaEncryptor enc(key, core::make_lfsr_cover(params.vector_bits, seed), params);
  enc.feed(msg);
  return enc.cipher_bytes();
}

std::vector<std::uint8_t> hhea_decrypt(std::span<const std::uint8_t> cipher,
                                       const core::Key& key, std::size_t msg_bytes,
                                       BlockParams params) {
  HheaDecryptor dec(key, static_cast<std::uint64_t>(msg_bytes) * 8, params);
  dec.feed_bytes(cipher);
  if (!dec.done()) {
    throw std::invalid_argument("hhea_decrypt: ciphertext too short for message length");
  }
  auto msg = dec.message();
  msg.resize(msg_bytes);
  return msg;
}

}  // namespace mhhea::crypto
