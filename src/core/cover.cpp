#include "src/core/cover.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/util/bits.hpp"

namespace mhhea::core {

void CoverSource::reset() {
  throw std::logic_error("CoverSource: this source is not resettable");
}

void CoverSource::reseed(std::uint64_t /*seed*/) {
  throw std::logic_error("CoverSource: this source is not reseedable");
}

LfsrCover::LfsrCover(int bits, std::uint64_t seed)
    : lfsr_(bits >= 64 ? 32 : bits, seed), bits_(bits), seed_(seed) {
  if (bits != 16 && bits != 32 && bits != 64) {
    throw std::invalid_argument("LfsrCover: bits must be 16, 32 or 64");
  }
}

std::uint64_t LfsrCover::next_block(int bits) {
  if (bits != bits_) throw std::invalid_argument("LfsrCover: block width mismatch");
  if (bits_ == 64) {
    const std::uint64_t lo = lfsr_.next_block();
    const std::uint64_t hi = lfsr_.next_block();
    return lo | (hi << 32);
  }
  return lfsr_.next_block();
}

std::size_t LfsrCover::next_blocks(int bits, std::span<std::uint64_t> out) {
  if (bits != bits_) throw std::invalid_argument("LfsrCover: block width mismatch");
  if (bits_ == 64) {
    // Delegate the two-register composition to next_block — one source of
    // truth for the 64-bit layout (this is the cold configuration).
    for (std::uint64_t& b : out) b = next_block(bits);
  } else {
    lfsr_.next_blocks(out);
  }
  return out.size();
}

void LfsrCover::reset() { lfsr_.set_state(seed_); }

void LfsrCover::reseed(std::uint64_t seed) {
  if (seed == 0) throw std::invalid_argument("LfsrCover: seed must be non-zero");
  seed_ = seed;
  lfsr_.set_state(seed_);
}

BufferCover::BufferCover(std::vector<std::uint64_t> blocks)
    : blocks_(std::move(blocks)) {}

BufferCover BufferCover::from_bytes16(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> blocks;
  blocks.reserve((bytes.size() + 1) / 2);
  for (std::size_t i = 0; i < bytes.size(); i += 2) {
    std::uint64_t w = bytes[i];
    if (i + 1 < bytes.size()) w |= static_cast<std::uint64_t>(bytes[i + 1]) << 8;
    blocks.push_back(w);
  }
  return BufferCover(std::move(blocks));
}

std::uint64_t BufferCover::next_block(int bits) {
  if (pos_ >= blocks_.size()) {
    throw std::runtime_error("BufferCover: cover data exhausted");
  }
  return blocks_[pos_++] & util::mask64(bits);
}

std::size_t BufferCover::next_blocks(int bits, std::span<std::uint64_t> out) {
  const std::size_t n = std::min(out.size(), remaining());
  const std::uint64_t mask = util::mask64(bits);
  for (std::size_t i = 0; i < n; ++i) out[i] = blocks_[pos_ + i] & mask;
  pos_ += n;
  return n;
}

std::uint64_t CountingCover::next_block(int bits) {
  return (next_++) & util::mask64(bits);
}

std::unique_ptr<CoverSource> make_lfsr_cover(int bits, std::uint64_t seed) {
  return std::make_unique<LfsrCover>(bits, seed);
}

}  // namespace mhhea::core
