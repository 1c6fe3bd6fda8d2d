// LSB-first bit streams over byte buffers.
//
// The MHHEA algorithm consumes and produces *bit* streams while files and
// network packets are byte streams. The normative convention for this
// repository (DESIGN.md §3) is:
//   * within a byte, bit 0 (the LSB) is consumed first;
//   * 16-bit hardware words are little-endian (byte[0] = bits 7..0).
// This makes the software bit stream identical to the hardware view of the
// message cache, which is what the co-simulation tests rely on.
//
// Multi-bit reads and writes move whole bytes at a time (the software
// analogue of the hardware's word-wide message cache port), so the cipher
// hot path never degenerates into a bit-by-bit loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace mhhea::util {

/// Read-only LSB-first bit cursor over a byte span. Does not own the bytes.
class BitReader {
 public:
  BitReader() = default;
  explicit BitReader(std::span<const std::uint8_t> bytes) noexcept : bytes_(bytes) {}

  /// Total number of bits in the underlying buffer.
  [[nodiscard]] std::size_t size_bits() const noexcept { return bytes_.size() * 8; }
  /// Number of bits not yet consumed.
  [[nodiscard]] std::size_t remaining_bits() const noexcept { return size_bits() - pos_; }
  /// True when all bits have been consumed (the algorithm's EOF test).
  [[nodiscard]] bool eof() const noexcept { return pos_ >= size_bits(); }
  /// Current cursor, in bits from the start.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Consume one bit. Precondition: !eof().
  [[nodiscard]] bool read_bit() noexcept;

  /// Consume up to `n` (<=64) bits into the low bits of the result,
  /// first-consumed bit at bit 0.
  ///
  /// With `read` non-null a short read is a soft condition: if fewer than `n`
  /// bits remain, the high bits are zero, the cursor stops at EOF and `read`
  /// receives the count consumed. Without `read` an under-read throws
  /// std::out_of_range — release builds must never silently embed fewer bits
  /// than requested (the assert-only guard this replaces vanished under
  /// NDEBUG).
  [[nodiscard]] std::uint64_t read_bits(int n, int* read = nullptr);

  /// Peek one bit at offset `ahead` from the cursor without consuming.
  [[nodiscard]] bool peek_bit(std::size_t ahead = 0) const noexcept;

  /// Reset the cursor to the beginning.
  void rewind() noexcept { pos_ = 0; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// LSB-first bit sink over caller-provided storage — the zero-allocation
/// sink the `_into` decrypt paths emit through. Bits
/// accumulate in a word and are flushed to the span one whole byte at a
/// time, so each output byte is written exactly once (the target needs no
/// pre-zeroing). Running past the span throws std::length_error — a short
/// output buffer must never truncate a message silently.
class SpanBitWriter {
 public:
  SpanBitWriter() = default;
  explicit SpanBitWriter(std::span<std::uint8_t> out) noexcept : out_(out) {}

  /// Append the low `n` (<=64) bits of `v`, bit 0 first.
  void write_bits(std::uint64_t v, int n);
  /// Number of bits written so far.
  [[nodiscard]] std::size_t size_bits() const noexcept { return bits_; }
  /// Write the trailing partial byte (zero-padded), if any. Must be called
  /// once after the last write_bits; further writes are invalid.
  void flush();

 private:
  void put_byte(std::uint8_t b) {
    if (pos_ == out_.size()) {
      throw std::length_error("SpanBitWriter: output buffer too small");
    }
    out_[pos_++] = b;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;    // bytes flushed
  std::size_t bits_ = 0;   // bits written (flushed + pending)
  std::uint64_t acc_ = 0;  // pending bits, LSB-first
  int fill_ = 0;           // pending bit count (< 8 between calls)
};

/// Pack a byte span into little-endian 16-bit words (zero-padded tail) —
/// exactly how the hardware message cache sees a file.
[[nodiscard]] std::vector<std::uint16_t> to_words16(std::span<const std::uint8_t> bytes);

/// Inverse of to_words16; `n_bytes` trims the zero-padded tail.
[[nodiscard]] std::vector<std::uint8_t> from_words16(std::span<const std::uint16_t> words,
                                                     std::size_t n_bytes);

}  // namespace mhhea::util
