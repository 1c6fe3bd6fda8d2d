// Scalar reference kernels for the backend seam — shared, header-only.
//
// scalar.cpp wraps these verbatim; avx2.cpp reuses them for lane counts
// below a full vector (the remainder passes), so the SIMD engine never
// needs a second scalar implementation to keep in sync.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/backend/backend.hpp"
#include "src/backend/tables.hpp"
#include "src/util/bits.hpp"

namespace mhhea::backend::detail {

template <int Bytes>
inline void lfsr_blocks_scalar(const LinearMapTables& leap,
                               std::uint32_t* states, std::size_t n_lanes,
                               std::uint64_t* out, std::size_t per_lane) {
  for (std::size_t l = 0; l < n_lanes; ++l) {
    std::uint32_t s = states[l];
    std::uint64_t* dst = out + l * per_lane;
    for (std::size_t t = 0; t < per_lane; ++t) {
      s = leap.apply<Bytes>(s);
      dst[t] = s;
    }
    states[l] = s;
  }
}

inline void lfsr_blocks_scalar_any(const LinearMapTables& leap, int degree,
                                   std::uint32_t* states, std::size_t n_lanes,
                                   std::uint64_t* out, std::size_t per_lane) {
  switch (state_bytes(degree)) {
    case 1:
    case 2:
      lfsr_blocks_scalar<2>(leap, states, n_lanes, out, per_lane);
      break;
    case 3:
      lfsr_blocks_scalar<3>(leap, states, n_lanes, out, per_lane);
      break;
    default:
      lfsr_blocks_scalar<4>(leap, states, n_lanes, out, per_lane);
      break;
  }
}

/// The next 64 output bits of a Fibonacci register starting at state `s`
/// (bits LSB-first), advancing `s` by 64 steps. A Fibonacci state of a
/// degree-d register IS the next d output bits (the stepping convention in
/// lfsr.hpp), so the window is the state plus deg-leapt copies of
/// it ORed in at d-bit offsets; bits past 64 fall off the shift. One
/// upd-map application (M^64) then replaces 64 serial steps.
inline std::uint64_t geffe_window64(std::uint32_t& s,
                                    const LinearMapTables& deg,
                                    const LinearMapTables& upd,
                                    int d) noexcept {
  std::uint64_t w = s;
  std::uint32_t cur = s;
  for (int filled = d; filled < 64; filled += d) {
    cur = deg.apply<3>(cur);  // Geffe degrees are 17/19/23 -> 3 state bytes
    w |= static_cast<std::uint64_t>(cur) << filled;
  }
  s = upd.apply<3>(s);
  return w;
}

inline void geffe_units_scalar(const GeffeKernel& k, std::uint32_t* a,
                               std::uint32_t* b, std::uint32_t* c,
                               std::size_t n_lanes, const std::uint8_t* in,
                               std::uint8_t* out, std::size_t per_lane) {
  for (std::size_t l = 0; l < n_lanes; ++l) {
    for (std::size_t t = 0; t < per_lane; ++t) {
      const std::uint64_t za = geffe_window64(a[l], *k.deg[0], *k.upd[0], k.degree[0]);
      const std::uint64_t zb = geffe_window64(b[l], *k.deg[1], *k.upd[1], k.degree[1]);
      const std::uint64_t zc = geffe_window64(c[l], *k.deg[2], *k.upd[2], k.degree[2]);
      std::uint64_t z = (za & zb) | (~za & zc);
      const std::size_t off = (l * per_lane + t) * 8;
      if (in != nullptr) z ^= util::load_le(in + off, 8);
      util::store_le(out + off, z, 8);
    }
  }
}

}  // namespace mhhea::backend::detail
