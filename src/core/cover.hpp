// Hiding-vector sources.
//
// Every MHHEA output block starts from an N-bit vector V. Where V comes from
// selects the mode of the micro-architecture (paper §VI): an LFSR gives
// packet-level *encryption*; user-supplied cover data (e.g. multimedia
// samples) gives *steganography* — "without any changes to the hardware".
// CoverSource abstracts that choice for the software model the same way the
// input mux does for the hardware.
//
// The receiver never needs the cover source: scrambling reads only the high
// half of V, which encryption never modifies, so KN1/KN2 are recomputable
// from the ciphertext block itself. The LFSR seed is therefore a *nonce*,
// not key material (tested in core_roundtrip_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/lfsr/lfsr.hpp"

namespace mhhea::core {

/// Produces successive N-bit hiding vectors.
class CoverSource {
 public:
  virtual ~CoverSource() = default;

  /// The next hiding vector; exactly the low `bits` bits are significant.
  /// Throws std::runtime_error if the source is exhausted (finite covers).
  [[nodiscard]] virtual std::uint64_t next_block(int bits) = 0;

  /// Bulk form of next_block: fill up to out.size() vectors, returning the
  /// count produced. Finite sources should override this to return fewer
  /// (possibly 0) at exhaustion instead of throwing — the caller decides
  /// when running dry is an error (BufferCover does exactly that). The
  /// default implementation simply loops next_block(), so it fills the
  /// whole span for infinite sources and propagates next_block()'s
  /// exhaustion error for finite ones that don't override. The produced
  /// sequence is identical to repeated next_block() calls.
  virtual std::size_t next_blocks(int bits, std::span<std::uint64_t> out) {
    for (std::uint64_t& b : out) b = next_block(bits);
    return out.size();
  }

  /// Rewind to the initial state, so a resettable cipher core can reuse one
  /// source across messages. Sources that cannot rewind throw
  /// std::logic_error (the default).
  virtual void reset();

  /// Replace the source's seed and rewind to it, so a long-lived cipher core
  /// can switch to a fresh per-message nonce without rebuilding the source
  /// (the sealed-v2 session derives one seed per nonce — see
  /// crypto/session.hpp). Sources without a seed notion throw
  /// std::logic_error (the default).
  virtual void reseed(std::uint64_t seed);
};

/// Maximal-length LFSR source — the paper's Random Number Generator module.
/// For `bits` = 16 or 32 a single primitive LFSR of that degree is stepped
/// `bits` positions per block; for 64 two degree-32 blocks are concatenated
/// (our polynomial table tops out at degree 32 — documented substitution).
class LfsrCover final : public CoverSource {
 public:
  /// `seed` must be non-zero (LFSR constraint).
  LfsrCover(int bits, std::uint64_t seed);
  [[nodiscard]] std::uint64_t next_block(int bits) override;
  std::size_t next_blocks(int bits, std::span<std::uint64_t> out) override;
  /// Re-seeds the register with the construction seed (one state store).
  void reset() override;
  /// Replaces the stored seed (must be non-zero) and rewinds to it; later
  /// reset() calls land on the new seed.
  void reseed(std::uint64_t seed) override;

 private:
  lfsr::Lfsr lfsr_;
  int bits_;
  std::uint64_t seed_;
};

/// Finite cover-data source for steganography mode: blocks are consumed from
/// a user buffer (e.g. audio/image samples). Throws when the cover runs out —
/// the cover must be at least as long as the stego object.
class BufferCover final : public CoverSource {
 public:
  explicit BufferCover(std::vector<std::uint64_t> blocks);
  /// Build 16-bit cover blocks from raw bytes (little-endian pairs).
  [[nodiscard]] static BufferCover from_bytes16(std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::uint64_t next_block(int bits) override;
  std::size_t next_blocks(int bits, std::span<std::uint64_t> out) override;
  void reset() override { pos_ = 0; }
  [[nodiscard]] std::size_t remaining() const noexcept { return blocks_.size() - pos_; }

 private:
  std::vector<std::uint64_t> blocks_;
  std::size_t pos_ = 0;
};

/// Deterministic counter source — not secure, used by tests to make block
/// contents predictable.
class CountingCover final : public CoverSource {
 public:
  explicit CountingCover(std::uint64_t start = 0) noexcept : start_(start), next_(start) {}
  [[nodiscard]] std::uint64_t next_block(int bits) override;
  void reset() override { next_ = start_; }

 private:
  std::uint64_t start_;
  std::uint64_t next_;
};

/// Convenience factory for the paper's configuration (16-bit LFSR cover).
[[nodiscard]] std::unique_ptr<CoverSource> make_lfsr_cover(int bits, std::uint64_t seed);

}  // namespace mhhea::core
