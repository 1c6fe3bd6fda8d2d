// Per-byte XOR tables of a GF(2)-linear map on register states.
//
// Every fast path in this codebase rides the same algebraic fact: the LFSR
// transition (any power of it) is linear over GF(2), so applying it to a
// state of up to 32 bits collapses to one table lookup per state *byte*,
// XORed together:
//
//     map(s) = t[0][s & 0xFF] ^ t[1][(s >> 8) & 0xFF]
//            ^ t[2][(s >> 16) & 0xFF] ^ t[3][s >> 24]
//
// `Lfsr`'s private leap tables (PR 2) were exactly this shape for the one
// map M^degree. This header promotes the representation to a first-class
// type so the backend seam can pass *any* precomputed power of the
// transition matrix — the degree-leap (one block), the 64-step Geffe window
// update, or the row stride that steps interleaved lanes — to scalar and
// vector kernels alike. The tables are plain data (4 KiB, trivially
// copyable), which is what lets the AVX2 engine gather from them directly.
//
// Construction stays the `Lfsr` class's job (tables are derived by probing
// the normative bit-serial register, which is what makes them bit-exact):
// Lfsr::leap_tables() returns the one process-wide copy for a degree, and
// Lfsr::power_tables() builds any other power.
#pragma once

#include <array>
#include <cstdint>

namespace mhhea::backend {

struct LinearMapTables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  /// Apply the map to a state confined to the low `8*Bytes` bits. The
  /// unused high tables contribute t[b][0] == 0, so using fewer lookups for
  /// narrow registers is an optimization, never a behavior change.
  template <int Bytes>
  [[nodiscard]] std::uint32_t apply(std::uint32_t s) const noexcept {
    static_assert(Bytes >= 1 && Bytes <= 4);
    std::uint32_t r = t[0][s & 0xFF];
    if constexpr (Bytes >= 2) r ^= t[1][(s >> 8) & 0xFF];
    if constexpr (Bytes >= 3) r ^= t[2][(s >> 16) & 0xFF];
    if constexpr (Bytes >= 4) r ^= t[3][s >> 24];
    return r;
  }

  /// Apply with all four lookups — correct for any state width up to 32.
  [[nodiscard]] std::uint32_t apply(std::uint32_t s) const noexcept {
    return apply<4>(s);
  }
};

/// State bytes touched by a register of `degree` bits (1..32 -> 1..4).
[[nodiscard]] constexpr int state_bytes(int degree) noexcept {
  return (degree + 7) / 8;
}

}  // namespace mhhea::backend
