// The scalar Geffe unit — shared, header-only.
//
// scalar.cpp's geffe_units kernel reads every unit through geffe_unit, and
// GeffeKeystream computes the fewer than kMaxLanes units left after its
// whole rows with it too, so the two never need separate implementations
// to keep in sync. avx2.cpp's geffe_window8 is the 8-lane form of
// geffe_window64.
#pragma once

#include <cstdint>

#include "src/backend/backend.hpp"
#include "src/backend/tables.hpp"

namespace mhhea::backend {

/// The next 64 output bits of a Fibonacci register at state `s` (bits
/// LSB-first). A Fibonacci state of a degree-d register IS the next d
/// output bits (the stepping convention in lfsr.hpp), so the window is the
/// state plus deg-leapt copies of it ORed in at d-bit offsets; bits past 64
/// fall off the shift.
inline std::uint64_t geffe_window64(std::uint32_t s, const LinearMapTables& deg,
                                    int d) noexcept {
  std::uint64_t w = s;
  for (int filled = d; filled < 64; filled += d) {
    s = deg.apply<3>(s);  // Geffe degrees are 17/19/23 -> 3 state bytes
    w |= static_cast<std::uint64_t>(s) << filled;
  }
  return w;
}

/// The 64-bit Geffe keystream unit of registers at states a/b/c.
inline std::uint64_t geffe_unit(const GeffeKernel& k, std::uint32_t a, std::uint32_t b,
                                std::uint32_t c) noexcept {
  const std::uint64_t za = geffe_window64(a, *k.deg[0], k.degree[0]);
  const std::uint64_t zb = geffe_window64(b, *k.deg[1], k.degree[1]);
  const std::uint64_t zc = geffe_window64(c, *k.deg[2], k.degree[2]);
  return (za & zb) | (~za & zc);
}

}  // namespace mhhea::backend
