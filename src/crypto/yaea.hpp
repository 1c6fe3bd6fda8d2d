// YAEA-S — the stand-in for the YAEA comparator of Table 1.
//
// The original YAEA ("Yet Another Encryption Algorithm", Saeb/Zewail/Seif,
// ICEENG 2002) is cited by the paper but its specification is not publicly
// available, so — per the reproduction rules (DESIGN.md §2) — we substitute
// a cipher of the same architectural class: a compact, fast LFSR-based
// stream cipher that XORs a keystream byte per cycle. We use the classic
// Geffe construction: three maximal-length LFSRs (degrees 17, 19, 23 —
// pairwise-coprime periods) combined per bit as
//
//     z = (a & b) | (~a & c)
//
// i.e. LFSR A multiplexes between B and C. This preserves exactly what
// Table 1 needs from YAEA: a conventional (non-hiding) stream cipher with a
// short critical path and small area, hence the highest functional density.
// Its known weakness (75% correlation of z with both b and c — the classic
// Geffe correlation attack; tests/crypto_test.cpp pins the combiner's truth
// table) stands in for the paper's caveat that "different algorithms have
// different degrees of security".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/crypto/cipher.hpp"
#include "src/lfsr/lfsr.hpp"

namespace mhhea::crypto {

/// The Geffe keystream generator at the heart of YAEA-S.
class GeffeKeystream {
 public:
  /// Degrees of the three component LFSRs (A selects, B/C feed).
  static constexpr int kDegreeA = 17;
  static constexpr int kDegreeB = 19;
  static constexpr int kDegreeC = 23;

  /// Seeds must be non-zero in the low degree bits. Throws otherwise.
  GeffeKeystream(std::uint32_t seed_a, std::uint32_t seed_b, std::uint32_t seed_c);

  // The three register states ARE the 96-bit YAEA-S key (unlike the MHHEA
  // cover seed, which is a nonce — cover.hpp), so every keystream instance
  // wipes them on destruction. Copies are the per-call working pattern
  // and each wipes its own states; a copy is the three states and the
  // pointers to the registers' process-wide tables (public data), nothing
  // more.
  GeffeKeystream(const GeffeKeystream&) = default;
  GeffeKeystream& operator=(const GeffeKeystream&) = default;
  GeffeKeystream(GeffeKeystream&&) noexcept = default;
  GeffeKeystream& operator=(GeffeKeystream&&) noexcept = default;
  ~GeffeKeystream();

  /// One keystream bit.
  [[nodiscard]] bool next_bit() noexcept;
  /// One keystream byte (8 bits, LSB first).
  [[nodiscard]] std::uint8_t next_byte() noexcept;

  /// Fill `out` with the next out.size() keystream bytes — the word-wide
  /// hot path, in 8-byte units (LSB-first bit order makes byte k of a
  /// 64-bit unit keystream byte k). Unit k comes from lane k %
  /// backend::kMaxLanes: lane l's three registers are seeded from lane
  /// l - 1 by the 64-step map, the active backend's geffe_units kernel
  /// emits whole rows of kMaxLanes contiguous units, stepping every lane by
  /// the row stride M^(64 * kMaxLanes), and fewer than a row of units left
  /// over (all of a span under 64 bytes) run serially on from lane 0 by the
  /// 64-step map, seeding no lanes they do not read. Only a tail under
  /// 8 bytes runs bit-serially through next_byte(). Bit-exact with repeated
  /// next_byte() calls, including the register states left behind, so bulk
  /// and serial pulls can be interleaved freely. An empty span is a no-op.
  void next_bytes(std::span<std::uint8_t> out);

  /// out = in XOR keystream, fused into the backend kernels (the YAEA-S
  /// datapath: no intermediate keystream buffer). `in` and `out` must be
  /// the same size (std::invalid_argument otherwise) and may be the same
  /// span (in-place); partial overlap is not supported. Advances the
  /// stream exactly like next_bytes(out).
  void xor_bytes(std::span<const std::uint8_t> in, std::span<std::uint8_t> out);

 private:
  /// Shared body of next_bytes (in == nullptr: raw keystream) and
  /// xor_bytes (in: XOR source of out.size() bytes).
  void run(const std::uint8_t* in, std::span<std::uint8_t> out);

  lfsr::Lfsr a_, b_, c_;  // [[mhhea::secret]] register states are the key
};

/// 96-bit-keyed stream cipher: ciphertext = plaintext XOR keystream.
class Yaea final : public Cipher {
 public:
  struct KeyType {
    std::uint32_t seed_a = 0;
    std::uint32_t seed_b = 0;
    std::uint32_t seed_c = 0;
  };

  explicit Yaea(KeyType key);
  Yaea(Yaea&&) noexcept = default;
  Yaea& operator=(Yaea&&) noexcept = default;
  /// Wipes the stored key seeds (the keystream prototype wipes its own
  /// register states).
  ~Yaea() override;

  [[nodiscard]] std::string name() const override { return "YAEA-S"; }
  /// Keystream XOR straight from `msg` to `out`, aliasing-safe: `out` may
  /// be the same span as `msg` (in-place encryption) or disjoint from it;
  /// partial overlap is not supported. Zero heap allocations.
  std::size_t encrypt_into(std::span<const std::uint8_t> msg,
                           std::span<std::uint8_t> out) override;
  /// Strict contract: a stream cipher's ciphertext is exactly as long as the
  /// plaintext, so both truncated and over-long ciphertext throw
  /// std::invalid_argument instead of fabricating zero bytes or silently
  /// dropping the tail. Aliasing-safe like encrypt_into.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                           std::span<std::uint8_t> out) override;
  /// Exact: a stream cipher's ciphertext is its plaintext's size.
  [[nodiscard]] std::size_t max_ciphertext_size(std::size_t msg_bytes) const override {
    return msg_bytes;
  }
  [[nodiscard]] double expansion() const override { return 1.0; }

 private:
  KeyType key_;  // [[mhhea::secret]] the three Geffe seeds
  /// Pristine keystream at the seed state; every call copies it (three
  /// register states) instead of re-validating the seeds.
  GeffeKeystream ks_proto_;
};

}  // namespace mhhea::crypto
