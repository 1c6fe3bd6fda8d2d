// The backend seam: bulk keystream work behind a swappable engine.
//
// The source paper's FPGA advances a whole hiding vector per clock. The
// software analogue past PR-4's word-at-a-time rewrite is *lane*
// parallelism: a single serial keystream is split into N contiguous output
// ranges ("lanes"), each lane's start state is seeded with the GF(2) jump
// machinery (a precomputed lane-stride power of the transition matrix), and
// all N registers then step in lockstep — one table-lookup chain per
// instruction on the scalar engine, eight per 256-bit register on AVX2.
//
// Everything a backend executes is expressed over LinearMapTables built by
// `Lfsr` from the normative bit-serial register, so every engine is
// bit-identical *by construction*: there is no second implementation of the
// cipher math to drift, only a different evaluation order of the same XOR
// table lookups. The reference-model sweep and the KAT fixtures run under
// both forced engines in CI to pin this.
//
// Call sites routed through the seam, at every size: Lfsr::next_blocks
// (hiding-vector blocks; LfsrCover::next_blocks and the MHHEA cover refill
// ride on it) and GeffeKeystream::next_bytes / xor_bytes (the YAEA-S
// datapath). Each runs full lane passes from two lane-passes up on a
// multi-lane engine and hands the rest to one single-lane pass, so every
// block and every whole keystream unit comes from a kernel.
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

/// Hard upper bound on lanes any engine may request (AVX2 = 8 x 32-bit
/// states per register; a future AVX-512 engine would still fit).
inline constexpr std::size_t kMaxLanes = 8;

/// Blocks each lane produces per lfsr_blocks() pass. The lane-seeding
/// tables are precomputed for exactly this stride (M^(kLfsrLaneBlocks *
/// degree)), so seeding lane l from lane l-1 costs one table application
/// instead of an O(log n) jump.
inline constexpr std::size_t kLfsrLaneBlocks = 256;

/// 64-bit keystream units each lane produces per geffe_units() pass
/// (128 units = 1 KiB of keystream per lane, 8 KiB per full AVX2 pass).
inline constexpr std::size_t kGeffeLaneUnits = 128;

/// The three Geffe component registers' maps, borrowed from the
/// process-wide tables yaea.cpp builds once: per register, the degree-step
/// leap map D (one next_block) used to slide the 64-bit output window, and
/// the 64-step update map U = M^64 that advances a lane's register past one
/// emitted unit. Degrees are <= 24, so three-byte table application covers
/// the states.
struct GeffeKernel {
  const LinearMapTables* deg[3];  // D = M^degree   (A, B, C order)
  const LinearMapTables* upd[3];  // U = M^64
  int degree[3];
};

/// A bulk keystream engine. Implementations are stateless singletons; all
/// cipher state lives in the caller, so one engine serves every thread.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Independent register states this engine steps per kernel pass. Callers
  /// seed up to this many lanes; 1 means the seam adds no lane machinery.
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;

  /// Step `n_lanes` independent copies of one register `per_lane` times
  /// each through the degree-leap map: lane l starts at states[l] and
  /// writes its successive states (= next_block() values) to
  /// out[l * per_lane + t]. On return states[l] holds lane l's final state.
  /// `degree` selects how many state bytes the table application touches.
  virtual void lfsr_blocks(const LinearMapTables& leap, int degree,
                           std::uint32_t* states, std::size_t n_lanes,
                           std::uint64_t* out, std::size_t per_lane) const = 0;

  /// Produce `per_lane` 64-bit Geffe keystream units for each of `n_lanes`
  /// lanes, XOR them with `in` (or use them raw when `in` is null), and
  /// store little-endian at out + (l * per_lane + t) * 8. a/b/c hold the
  /// three component-register states per lane and are advanced 64 *
  /// per_lane steps each on return. `in`, when given, covers the same
  /// extent as `out` and may alias it exactly (in == out).
  virtual void geffe_units(const GeffeKernel& k, std::uint32_t* a,
                           std::uint32_t* b, std::uint32_t* c,
                           std::size_t n_lanes, const std::uint8_t* in,
                           std::uint8_t* out, std::size_t per_lane) const = 0;
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
