// Bit-manipulation primitives shared by every layer of the MHHEA stack.
//
// Conventions used throughout this repository (normative, see DESIGN.md §3):
//   * bit index 0 is the least-significant bit ("location zero refers to the
//     least significant bit" — paper, §IV);
//   * multi-bit fields are written `value[hi..lo]` with `lo` at the LSB;
//   * rotations are defined on an explicit width so that 16-bit hardware
//     rotates and 64-bit software values never get mixed up;
//   * a byte buffer is an LSB-first bit stream: within a byte, bit 0 is
//     consumed first, and 16-bit hardware words are little-endian (byte[0]
//     = bits 7..0). This makes the software bit stream identical to the
//     hardware view of the message cache, which is what the co-simulation
//     tests rely on.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace mhhea::util {

/// A mask with the low `n` bits set. `n` may be 0..64.
[[nodiscard]] constexpr std::uint64_t mask64(int n) noexcept {
  assert(n >= 0 && n <= 64);
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Bit `i` (0 = LSB) of `v` as 0/1.
[[nodiscard]] constexpr std::uint64_t get_bit(std::uint64_t v, int i) noexcept {
  assert(i >= 0 && i < 64);
  return (v >> i) & 1u;
}

/// `v` with bit `i` forced to `b`.
[[nodiscard]] constexpr std::uint64_t set_bit(std::uint64_t v, int i, bool b) noexcept {
  assert(i >= 0 && i < 64);
  const std::uint64_t m = std::uint64_t{1} << i;
  return b ? (v | m) : (v & ~m);
}

/// The field `v[hi..lo]` shifted down to bit 0. Requires `lo <= hi`.
[[nodiscard]] constexpr std::uint64_t extract(std::uint64_t v, int hi, int lo) noexcept {
  assert(lo >= 0 && hi >= lo && hi < 64);
  return (v >> lo) & mask64(hi - lo + 1);
}

/// Rotate the low `width` bits of `v` left by `n` (mod width). Bits above
/// `width` must be zero and stay zero.
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t v, int n, int width) noexcept {
  assert(width > 0 && width <= 64);
  assert((v & ~mask64(width)) == 0);
  n %= width;
  if (n < 0) n += width;
  if (n == 0) return v;
  return ((v << n) | (v >> (width - n))) & mask64(width);
}

/// Rotate the low `width` bits of `v` right by `n` (mod width).
[[nodiscard]] constexpr std::uint64_t rotr(std::uint64_t v, int n, int width) noexcept {
  return rotl(v, width - (n % width + width) % width, width);
}

/// 16-bit convenience rotates, matching the Message Alignment module.
[[nodiscard]] constexpr std::uint16_t rotl16(std::uint16_t v, int n) noexcept {
  return static_cast<std::uint16_t>(rotl(v, n, 16));
}
[[nodiscard]] constexpr std::uint16_t rotr16(std::uint16_t v, int n) noexcept {
  return static_cast<std::uint16_t>(rotr(v, n, 16));
}

/// Number of set bits.
[[nodiscard]] constexpr int popcount64(std::uint64_t v) noexcept {
  return std::popcount(v);
}

/// XOR-reduction (parity) of `v`: 1 if an odd number of bits are set.
[[nodiscard]] constexpr std::uint64_t parity64(std::uint64_t v) noexcept {
  return static_cast<std::uint64_t>(std::popcount(v) & 1);
}

/// Reverse the low `width` bits of `v` (bit 0 <-> bit width-1).
[[nodiscard]] constexpr std::uint64_t reverse_bits(std::uint64_t v, int width) noexcept {
  assert(width > 0 && width <= 64);
  std::uint64_t r = 0;
  for (int i = 0; i < width; ++i) r |= get_bit(v, i) << (width - 1 - i);
  return r;
}

/// Ceil(log2(n)) for n >= 1: the number of bits needed to index n items.
[[nodiscard]] constexpr int clog2(std::uint64_t n) noexcept {
  assert(n >= 1);
  return n <= 1 ? 0 : 64 - std::countl_zero(n - 1);
}

/// True if `v` fits in `width` bits.
[[nodiscard]] constexpr bool fits(std::uint64_t v, int width) noexcept {
  return (v & ~mask64(width)) == 0;
}

namespace detail {
/// Unaligned native-order load/store of one `Word`.
template <class Word>
[[nodiscard]] inline Word load_native(const std::uint8_t* p) noexcept {
  Word w;
  std::memcpy(&w, p, sizeof(Word));
  return w;
}
template <class Word>
inline void store_native(std::uint8_t* p, std::uint64_t v) noexcept {
  const auto w = static_cast<Word>(v);
  std::memcpy(p, &w, sizeof(Word));
}
/// True where a whole little-endian word may move as one native access.
[[nodiscard]] constexpr bool native_le() noexcept {
  return std::endian::native == std::endian::little && !std::is_constant_evaluated();
}
}  // namespace detail

/// Read a little-endian unsigned integer of `n_bytes` (<= 8) bytes. A whole
/// 2-, 4- or 8-byte word (one hiding-vector block) is one native load on
/// little-endian hosts.
[[nodiscard]] constexpr std::uint64_t load_le(const std::uint8_t* p, int n_bytes) noexcept {
  assert(n_bytes >= 0 && n_bytes <= 8);
  if (detail::native_le()) {
    if (n_bytes == 2) return detail::load_native<std::uint16_t>(p);
    if (n_bytes == 4) return detail::load_native<std::uint32_t>(p);
    if (n_bytes == 8) return detail::load_native<std::uint64_t>(p);
  }
  std::uint64_t v = 0;
  for (int i = 0; i < n_bytes; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Write the low `n_bytes` (<= 8) bytes of `v` little-endian; whole 2-, 4-
/// and 8-byte words as one native store, as in load_le.
constexpr void store_le(std::uint8_t* p, std::uint64_t v, int n_bytes) noexcept {
  assert(n_bytes >= 0 && n_bytes <= 8);
  if (detail::native_le()) {
    if (n_bytes == 2) return detail::store_native<std::uint16_t>(p, v);
    if (n_bytes == 4) return detail::store_native<std::uint32_t>(p, v);
    if (n_bytes == 8) return detail::store_native<std::uint64_t>(p, v);
  }
  for (int i = 0; i < n_bytes; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

/// The stream bits of `bytes` from bit `pos` on, bit `pos` at bit 0: one
/// unaligned 64-bit little-endian load at pos >> 3, shifted by pos & 7, so
/// at least 57 valid bits. Within the last 8 bytes only the bytes that exist
/// are read and the missing high bits are zero. Requires pos < 8 *
/// bytes.size(). The software form of the message cache's word-wide port.
[[nodiscard]] inline std::uint64_t load_bits(std::span<const std::uint8_t> bytes,
                                             std::uint64_t pos) noexcept {
  const auto at = static_cast<std::size_t>(pos >> 3);
  assert(at < bytes.size());
  const std::size_t avail = bytes.size() - at;
  const std::uint64_t word = avail >= 8 ? load_le(bytes.data() + at, 8)
                                        : load_le(bytes.data() + at, static_cast<int>(avail));
  return word >> (pos & 7);
}

/// Narrowing cast that asserts the value is representable (Core Guidelines
/// ES.46 flavour without GSL).
template <typename To, typename From>
[[nodiscard]] constexpr To narrow(From v) noexcept {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  const To r = static_cast<To>(v);
  assert(static_cast<From>(r) == v && "narrow: value out of range");
  return r;
}

}  // namespace mhhea::util
