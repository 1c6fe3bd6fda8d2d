// The per-block MHHEA transform — pure functions, the normative reference
// for the RTL and gate-level models.
//
// Paper §II, resolved against the Fig. 8 worked example (DESIGN.md §3):
//   1. canonicalise the key pair: K1 <= K2, d = K2 - K1;
//   2. scramble the location: the log2(H)-bit field read from V's high half
//      starting at K1+H (bit j = V[(K1+j) mod H + H], H = N/2) is XORed
//      with K1 -> KN1; KN2 = (KN1 + d) mod H; canonicalise KN1 <= KN2 (a
//      wrap changes the range width — both sides of the channel recompute
//      it identically). The fixed-width read generalises the paper's
//      (d+1)-bit window so KN1 stays uniform for narrow pairs too (see
//      scramble_range below);
//   3. scramble the data: message bit t lands in V[KN1+t], XORed with bit
//      (t mod 3) of K1 (t mod loc_bits in the generalized variant).
// Only the low half of V is ever written; the high half — the scramble
// source — passes through unchanged, which is what makes the receiver able
// to recompute KN1/KN2 from the ciphertext block alone.
//
// Everything here is defined inline and word-at-a-time: the scramble field
// is two shifted extracts, and embed/extract move the whole w-bit message
// word with one mask operation — the software analogue of the FPGA
// manipulating the full hiding vector per clock. The cipher hot path in
// core/mhhea.cpp inlines the embed/extract pair; scramble_range only fills
// the per-pair range tables each core builds at construction (the FPGA's
// location-scrambler LUTs), so it is evaluated once per table entry, never
// per block.
#pragma once

#include <cassert>
#include <cstdint>

#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/util/bits.hpp"

namespace mhhea::core {

/// The scrambled replacement range [kn1, kn2], kn1 <= kn2, both < N/2.
struct ScrambledRange {
  int kn1 = 0;
  int kn2 = 0;
  /// Number of bit positions replaced when a full range is used.
  [[nodiscard]] constexpr int width() const noexcept { return kn2 - kn1 + 1; }

  friend constexpr bool operator==(const ScrambledRange&, const ScrambledRange&) = default;
};

/// Step 2 above: derive the replacement range from the hiding vector's high
/// half and the key pair. Deterministic given (V_high_half, pair) — used
/// identically by encryptor and decryptor.
///
/// The scramble field is the loc_bits-wide window of V's high half starting
/// at K1+H and wrapping within the high half (bit j = V[(K1+j) mod H + H]).
/// A fixed loc_bits-wide read keeps KN1 uniform for every pair; the naive
/// (d+1)-bit window of the paper's §II prose under-scrambles narrow pairs
/// (d+1 < log2 H), which breaks both the Table-1 rate model and the
/// location-flatness property. For d+1 >= log2 H and K1 <= H - log2 H the
/// two readings are bit-identical (the mod-H reduction discards the rest),
/// so the Fig. 8 worked example is unchanged.
[[nodiscard]] inline ScrambledRange scramble_range(
    std::uint64_t v, const KeyPair& pair, const BlockParams& params = BlockParams::paper()) {
  const int h = params.half();
  const int lo = pair.lo();
  const int d = pair.span();
  const int lb = params.loc_bits();
  assert(pair.hi() <= params.max_key_value());
  // Word-at-a-time window read: one extract when [lo, lo+lb) stays inside
  // the high half, two when it wraps back to bit H.
  std::uint64_t field;
  const int head = h - lo;  // bits available before the window wraps
  if (head >= lb) {
    field = (v >> (h + lo)) & util::mask64(lb);
  } else {
    field = ((v >> (h + lo)) & util::mask64(head)) |
            (((v >> h) & util::mask64(lb - head)) << head);
  }
  const int kn1 = static_cast<int>(field ^ static_cast<std::uint64_t>(lo));
  int kn2 = kn1 + d;
  if (kn2 >= h) kn2 -= h;  // (kn1 + d) mod h, both terms < h
  return kn1 <= kn2 ? ScrambledRange{kn1, kn2} : ScrambledRange{kn2, kn1};
}

/// The key-bit XOR pattern value for position t in the range: bit
/// (t mod loc_bits) of the canonical low key value (the paper's Ki,1[q]).
[[nodiscard]] inline int key_scramble_bit(const KeyPair& pair, int t,
                                          const BlockParams& params = BlockParams::paper()) {
  assert(t >= 0);
  return static_cast<int>(util::get_bit(pair.lo(), t % params.loc_bits()));
}

/// The whole data-scramble pattern for a pair: bit t = key_scramble_bit(t)
/// for t in [0, N/2) — K1's low loc_bits replicated across the half vector.
/// XORing a message word with this pattern scrambles every position at once;
/// hot paths cache it per pair.
[[nodiscard]] inline std::uint64_t key_pattern(const KeyPair& pair,
                                               const BlockParams& params = BlockParams::paper()) {
  const int lb = params.loc_bits();
  const int h = params.half();
  std::uint64_t pat = pair.lo();  // low lb bits (lo <= H-1 fits by contract)
  // Double the replicated length each round; shifts stay multiples of lb,
  // so the period-lb structure is preserved.
  for (int n = lb; n < h; n *= 2) pat |= pat << n;
  return pat & util::mask64(h);
}

/// embed_bits with the pair's data-scramble pattern already in hand — the
/// form the cipher hot loops use with their per-pair pattern caches. One
/// masked word operation; the single source of truth for the embed formula.
[[nodiscard]] inline std::uint64_t embed_bits_with_pattern(std::uint64_t v, int kn1,
                                                           std::uint64_t pattern,
                                                           std::uint64_t msg_bits, int w) {
  assert(w >= 0 && kn1 >= 0);
  const std::uint64_t m = util::mask64(w) << kn1;
  return (v & ~m) | (((msg_bits ^ pattern) << kn1) & m);
}

/// extract_bits with a precomputed pattern; inverse of embed_bits_with_pattern.
[[nodiscard]] inline std::uint64_t extract_bits_with_pattern(std::uint64_t v, int kn1,
                                                             std::uint64_t pattern, int w) {
  assert(w >= 0 && kn1 >= 0);
  return ((v >> kn1) ^ pattern) & util::mask64(w);
}

/// Embed the low `w` bits of `msg_bits` (bit 0 = first message bit) into
/// v[r.kn1 .. r.kn1+w-1], each XORed with the key-bit pattern. Requires
/// 0 <= w <= r.width(). Returns the ciphertext block.
[[nodiscard]] inline std::uint64_t embed_bits(std::uint64_t v, const ScrambledRange& r,
                                              const KeyPair& pair, std::uint64_t msg_bits,
                                              int w,
                                              const BlockParams& params = BlockParams::paper()) {
  assert(w >= 0 && w <= r.width());
  assert(r.kn2 < params.half());
  return embed_bits_with_pattern(v, r.kn1, key_pattern(pair, params), msg_bits, w);
}

/// Inverse of embed_bits: recover `w` message bits from a ciphertext block.
[[nodiscard]] inline std::uint64_t extract_bits(std::uint64_t v, const ScrambledRange& r,
                                                const KeyPair& pair, int w,
                                                const BlockParams& params = BlockParams::paper()) {
  assert(w >= 0 && w <= r.width());
  return extract_bits_with_pattern(v, r.kn1, key_pattern(pair, params), w);
}

}  // namespace mhhea::core
