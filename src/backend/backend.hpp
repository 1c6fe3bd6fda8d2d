// The backend seam: bulk keystream work behind a swappable engine.
//
// The source paper's FPGA advances a whole hiding vector per clock. The
// software analogue past PR-4's word-at-a-time rewrite is *lane*
// parallelism over interleaved outputs: output k of a span (an LFSR block,
// or an 8-byte Geffe keystream unit) comes from lane k % kMaxLanes, so one
// row of kMaxLanes consecutive outputs is one step of every lane. Each lane
// steps by the row stride, a precomputed power of the transition matrix
// (M^(kMaxLanes * degree) per LFSR block row, M^(64 * kMaxLanes) per Geffe
// register). The caller seeds the lanes from the first row, written or
// stepped serially, and the kernels emit whole rows of contiguous outputs —
// eight independent table-lookup chains on the scalar engine, one 256-bit
// register of Geffe lanes on AVX2 (whose LFSR rows run the scalar chains:
// gathers lose to them at every degree measured). Every span runs the
// same lanes past its first row, whatever its length.
//
// Everything a backend executes is expressed over LinearMapTables built by
// `Lfsr` from the normative bit-serial register, so every engine is
// bit-identical *by construction*: there is no second implementation of the
// cipher math to drift, only a different evaluation order of the same XOR
// table lookups. The reference-model sweep and the KAT fixtures run under
// both forced engines in CI to pin this.
//
// Call sites routed through the seam: Lfsr::next_blocks (hiding-vector
// blocks; LfsrCover::next_blocks and the MHHEA cover refill ride on it) and
// GeffeKeystream::next_bytes / xor_bytes (the YAEA-S datapath). Each runs
// its whole rows through a kernel; the caller computes the fewer than
// kMaxLanes outputs left over.
//
// Engine selection happens once, at first use: cpuid picks the widest
// supported engine, and the MHHEA_BACKEND environment variable
// ({auto, scalar, avx2}) or an explicit set_active() call forces one —
// forcing an engine the host cannot run falls back to scalar rather than
// faulting. Future engines (NEON, GPU, a batch server offload) plug in as
// new Backend implementations behind the same two kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/backend/tables.hpp"

namespace mhhea::backend {

/// Lanes per row, on every engine: AVX2 steps 8 x 32-bit Geffe states per
/// register, and the scalar chains run 8 at a time for their
/// instruction-level parallelism.
inline constexpr std::size_t kMaxLanes = 8;

/// The three Geffe component registers' maps, borrowed from the
/// process-wide tables yaea.cpp builds once: per register, the degree-step
/// leap map D (one next_block) used to slide the 64-bit output window, and
/// the row stride R = M^(64 * kMaxLanes) that advances a lane past one row
/// of units. Degrees are <= 24, so three-byte table application covers the
/// states.
struct GeffeKernel {
  const LinearMapTables* deg[3];  // D = M^degree   (A, B, C order)
  const LinearMapTables* row[3];  // R = M^(64 * kMaxLanes)
  int degree[3];
};

/// A bulk keystream engine. Implementations are stateless singletons; all
/// cipher state lives in the caller, so one engine serves every thread.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Step kMaxLanes copies of one register `rows` times each through the
  /// row-stride map: lane l starts at states[l] and writes its successive
  /// states to out[r * kMaxLanes + l]. On return states[l] holds lane l's
  /// final state. `degree` selects how many state bytes the table
  /// application touches.
  virtual void lfsr_blocks(const LinearMapTables& stride, int degree,
                           std::uint32_t* states, std::uint64_t* out,
                           std::size_t rows) const = 0;

  /// Produce `rows` rows of kMaxLanes 64-bit Geffe keystream units, XOR
  /// them with `in` (or use them raw when `in` is null), and store
  /// little-endian at out + (r * kMaxLanes + l) * 8: lane l's unit of row r
  /// is read from its registers' states a[l]/b[l]/c[l], which then advance
  /// by the row stride. `in`, when given, covers the same extent as `out`
  /// and may alias it exactly (in == out).
  virtual void geffe_units(const GeffeKernel& k, std::uint32_t* a,
                           std::uint32_t* b, std::uint32_t* c,
                           const std::uint8_t* in, std::uint8_t* out,
                           std::size_t rows) const = 0;
};

/// The engine every routed call site uses. Resolved once on first call:
/// MHHEA_BACKEND if set (unknown values fall back to auto with a one-line
/// stderr note), else the widest engine cpuid reports the host can run.
[[nodiscard]] const Backend& active();

/// Engine lookup by name ("scalar", "avx2"). Returns nullptr when the
/// engine is not compiled in or the host cpu cannot run it — a non-null
/// result is always safe to use.
[[nodiscard]] const Backend* by_name(std::string_view name) noexcept;

/// Force the active engine ("auto", "scalar", "avx2") for this process —
/// how the bench --backend flag and the parity tests switch engines
/// in-process. Returns false (and leaves the engine unchanged) when the
/// name is unknown or the host cannot run the requested engine.
bool set_active(std::string_view name) noexcept;

/// The selection rule, factored pure for unit tests: what engine name an
/// MHHEA_BACKEND value (may be null) resolves to on a host with/without
/// AVX2. Returns "scalar" or "avx2".
[[nodiscard]] std::string_view resolve_backend_choice(const char* env,
                                                      bool have_avx2) noexcept;

/// Runtime cpuid: does this host execute AVX2? (False on non-x86 builds.)
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// True when the avx2 TU was compiled with AVX2 support (the build found
/// -mavx2); independent of whether the host cpu can run it.
[[nodiscard]] bool avx2_compiled() noexcept;

namespace detail {
/// The singletons. avx2_backend_compiled() is null when the TU was built
/// without -mavx2; dispatch layers the cpuid gate on top.
[[nodiscard]] const Backend& scalar_backend() noexcept;
[[nodiscard]] const Backend* avx2_backend_compiled() noexcept;
}  // namespace detail

}  // namespace mhhea::backend
