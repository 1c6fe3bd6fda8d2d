// The AVX2 engine: the 8 interleaved Geffe lanes' 32-bit register states in
// one ymm per register, stepped vertically in lockstep; each row of units
// leaves as two contiguous 256-bit stores. Table applications become
// vpgatherdd lookups into the same LinearMapTables the scalar engine reads —
// identical XOR algebra, different evaluation width — so the engines are
// bit-identical by construction.
//
// LFSR blocks run on the scalar engine's kernel: a block row is one table
// application per lane, and the gathers' latency cost more than the eight
// scalar chains at every degree measured (16 to 32).
//
// This is the only TU compiled with -mavx2 (see CMakeLists.txt); nothing
// here executes unless dispatch's runtime cpuid check admitted the engine,
// so the compile flag never leaks illegal instructions onto pre-AVX2 hosts.
// When the toolchain lacks -mavx2 entirely, the TU degrades to a stub that
// reports the engine absent.

#include "src/backend/backend.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace mhhea::backend {
namespace {

inline const int* table_base(const LinearMapTables& m, int byte) noexcept {
  return reinterpret_cast<const int*>(m.t[static_cast<std::size_t>(byte)].data());
}

/// map(s) for 8 three-byte states at once (Geffe degrees are 17/19/23),
/// as LinearMapTables::apply<3>.
inline __m256i apply_map8(const LinearMapTables& m, __m256i s) noexcept {
  const __m256i ff = _mm256_set1_epi32(0xFF);
  __m256i r = _mm256_i32gather_epi32(table_base(m, 0), _mm256_and_si256(s, ff), 4);
  const __m256i i1 = _mm256_and_si256(_mm256_srli_epi32(s, 8), ff);
  r = _mm256_xor_si256(r, _mm256_i32gather_epi32(table_base(m, 1), i1, 4));
  const __m256i i2 = _mm256_and_si256(_mm256_srli_epi32(s, 16), ff);
  return _mm256_xor_si256(r, _mm256_i32gather_epi32(table_base(m, 2), i2, 4));
}

/// 4+4 zero-extension of the 8 32-bit lanes to two 4x64 halves (lanes 0-3
/// and 4-7), so 64-bit window shifts and the Geffe combine stay vertical.
inline void widen(__m256i v, __m256i& lo, __m256i& hi) noexcept {
  lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
  hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
}

struct Win {
  __m256i lo, hi;
};

/// geffe_window64 (kernels.hpp) for 8 lanes — the same D-chain, with the
/// shift-and-OR window composition running on widened halves — and the
/// lanes' row step. The step is issued first: it is the only chain carried
/// to the next row, so the window's lookups hide its latency.
inline Win geffe_window8(__m256i& s, const LinearMapTables& deg, const LinearMapTables& row,
                         int d) noexcept {
  __m256i cur = s;
  s = apply_map8(row, s);
  Win w;
  widen(cur, w.lo, w.hi);
  for (int filled = d; filled < 64; filled += d) {
    cur = apply_map8(deg, cur);
    __m256i lo, hi;
    widen(cur, lo, hi);
    const __m128i shift = _mm_cvtsi32_si128(filled);
    w.lo = _mm256_or_si256(w.lo, _mm256_sll_epi64(lo, shift));
    w.hi = _mm256_or_si256(w.hi, _mm256_sll_epi64(hi, shift));
  }
  return w;
}

inline __m256i combine(__m256i a, __m256i b, __m256i c) noexcept {
  return _mm256_or_si256(_mm256_and_si256(a, b), _mm256_andnot_si256(a, c));
}

class Avx2Backend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "avx2"; }

  void lfsr_blocks(const LinearMapTables& stride, int degree, std::uint32_t* states,
                   std::uint64_t* out, std::size_t rows) const override {
    detail::scalar_backend().lfsr_blocks(stride, degree, states, out, rows);
  }

  void geffe_units(const GeffeKernel& k, std::uint32_t* a, std::uint32_t* b,
                   std::uint32_t* c, const std::uint8_t* in, std::uint8_t* out,
                   std::size_t rows) const override {
    __m256i sa = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i sb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    __m256i sc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c));
    for (std::size_t r = 0; r < rows; ++r) {
      const Win wa = geffe_window8(sa, *k.deg[0], *k.row[0], k.degree[0]);
      const Win wb = geffe_window8(sb, *k.deg[1], *k.row[1], k.degree[1]);
      const Win wc = geffe_window8(sc, *k.deg[2], *k.row[2], k.degree[2]);
      // Lanes 0-3 are the row's first 32 bytes, lanes 4-7 the next 32; x86
      // stores 64-bit lanes little-endian.
      const std::size_t off = r * kMaxLanes * 8;
      __m256i lo = combine(wa.lo, wb.lo, wc.lo);
      __m256i hi = combine(wa.hi, wb.hi, wc.hi);
      if (in != nullptr) {
        const auto* src = reinterpret_cast<const __m256i*>(in + off);
        lo = _mm256_xor_si256(lo, _mm256_loadu_si256(src));
        hi = _mm256_xor_si256(hi, _mm256_loadu_si256(src + 1));
      }
      auto* dst = reinterpret_cast<__m256i*>(out + off);
      _mm256_storeu_si256(dst, lo);
      _mm256_storeu_si256(dst + 1, hi);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a), sa);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b), sb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c), sc);
  }
};

}  // namespace

namespace detail {
const Backend* avx2_backend_compiled() noexcept {
  static const Avx2Backend instance;
  return &instance;
}
}  // namespace detail

bool avx2_compiled() noexcept { return true; }

}  // namespace mhhea::backend

#else  // !__AVX2__: toolchain without -mavx2 — engine absent, scalar serves.

namespace mhhea::backend {
namespace detail {
const Backend* avx2_backend_compiled() noexcept { return nullptr; }
}  // namespace detail
bool avx2_compiled() noexcept { return false; }
}  // namespace mhhea::backend

#endif
