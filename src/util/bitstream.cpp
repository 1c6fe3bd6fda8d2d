#include "src/util/bitstream.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/util/bits.hpp"

namespace mhhea::util {

bool BitReader::read_bit() noexcept {
  assert(!eof());
  const std::size_t byte = pos_ / 8;
  const int bit = static_cast<int>(pos_ % 8);
  ++pos_;
  return ((bytes_[byte] >> bit) & 1u) != 0;
}

std::uint64_t BitReader::read_bits(int n, int* read) {
  assert(n >= 0 && n <= 64);
  const std::size_t avail = remaining_bits();
  const int take =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(n), avail));
  if (read != nullptr) {
    *read = take;
  } else if (take < n) {
    throw std::out_of_range("BitReader::read_bits: fewer bits remain than requested");
  }
  // Gather whole bytes: at most ceil((take + 7) / 8) + 1 iterations, instead
  // of one iteration per bit.
  std::uint64_t v = 0;
  int filled = 0;
  while (filled < take) {
    const int off = static_cast<int>(pos_ % 8);
    const int nbits = std::min(8 - off, take - filled);
    const std::uint64_t chunk =
        (static_cast<std::uint64_t>(bytes_[pos_ / 8]) >> off) & mask64(nbits);
    v |= chunk << filled;
    filled += nbits;
    pos_ += static_cast<std::size_t>(nbits);
  }
  return v;
}

bool BitReader::peek_bit(std::size_t ahead) const noexcept {
  const std::size_t p = pos_ + ahead;
  assert(p < size_bits());
  return ((bytes_[p / 8] >> (p % 8)) & 1u) != 0;
}

void SpanBitWriter::write_bits(std::uint64_t v, int n) {
  assert(n >= 0 && n <= 64);
  v &= mask64(n);
  bits_ += static_cast<std::size_t>(n);
  while (n > 0) {
    const int take = std::min(n, 64 - fill_);
    acc_ |= v << fill_;  // bits past 64 are dropped; only `take` are kept
    fill_ += take;
    v = take >= 64 ? 0 : v >> take;
    n -= take;
    while (fill_ >= 8) {
      put_byte(static_cast<std::uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }
}

void SpanBitWriter::flush() {
  if (fill_ > 0) {
    put_byte(static_cast<std::uint8_t>(acc_ & 0xFF));
    acc_ = 0;
    fill_ = 0;
  }
}

std::vector<std::uint16_t> to_words16(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint16_t> words((bytes.size() + 1) / 2, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    words[i / 2] = static_cast<std::uint16_t>(words[i / 2] |
                                              (static_cast<std::uint16_t>(bytes[i]) << (8 * (i % 2))));
  }
  return words;
}

std::vector<std::uint8_t> from_words16(std::span<const std::uint16_t> words,
                                       std::size_t n_bytes) {
  assert(n_bytes <= words.size() * 2);
  std::vector<std::uint8_t> bytes(n_bytes, 0);
  for (std::size_t i = 0; i < n_bytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>((words[i / 2] >> (8 * (i % 2))) & 0xFF);
  }
  return bytes;
}

}  // namespace mhhea::util
