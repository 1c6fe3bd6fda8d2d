// The MHHEA encryptor / decryptor — the paper's primary contribution as a
// clean software library, and the one block engine every hiding cipher in
// this repository runs on.
//
// Encryption hides the message bit stream inside successive hiding-vector
// blocks (see block.hpp for the per-block transform and params.hpp for the
// two framing policies). Each block embeds between 1 and N/2 message bits,
// so ciphertext is larger than plaintext (expansion >= 2x for uniform random
// keys — the price of the steganographic construction; analysis.hpp computes
// the exact expansion for a given key).
//
// Decryption needs only the key and the plaintext bit length: the scrambled
// locations are recomputed from each ciphertext block's unmodified high
// half. In particular the encryptor's LFSR seed (or cover data) is NOT
// required — it acts as a nonce.
//
// The hot path is table-driven and word-at-a-time end to end, mirroring the
// FPGA's whole-vector-per-clock datapath: each block's replacement range
// comes from a per-pair lookup table built once per core (the software form
// of the location scrambler's LUTs — scramble_range only builds the tables),
// message bits arrive by one unaligned 64-bit load per block, cover vectors
// are prefetched in stack chunks through CoverSource::next_blocks, and each
// block is embedded/extracted with one masked word operation (block.hpp).
// As the FPGA's scrambler and encryption module share one key cache, the
// encryptor core is the decryptor core plus a cover: one table set, reused
// across messages, serves both directions.
//
// The engine is a template over a compile-time window policy — where a
// block's message word lands and which key pattern it is XORed with:
// ScrambledWindow is MHHEA (location and data scrambling), FixedWindow is
// the original HHEA [SHAAR03] (both scramblers bypassed; its range table is
// constant). Encryptor and Decryptor name the MHHEA instantiation;
// crypto::HheaCipher runs the fixed one. Each instantiation has exactly one
// encrypt walk and one decrypt walk, for every vector width.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/block.hpp"
#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/util/bits.hpp"
#include "src/util/secret.hpp"

namespace mhhea::core {

namespace detail {
/// Per-pair constants of the cipher hot loops, built once per core: the
/// pair's range table, its data-scramble pattern (0 under FixedWindow) and
/// its canonical K1. Entry range_index(v) packs the replacement range of
/// block v as kn1 | width << 8, so no block evaluates scramble_range. At
/// N=16 all 256 entries are live; at N=32/64 the first 2^loc_bits.
struct PairCtx {
  std::array<std::uint16_t, 256> range{};
  std::uint64_t pattern = 0;
  int lo = 0;
};

/// Index of block `v` into the range table of a pair whose canonical K1 is
/// `lo` (h = N/2, lb = loc_bits) — the walk's only per-N step. At N=16 it
/// is V's whole high byte, which folds the scramble-field read into the
/// table; at N=32/64 it is the lb-bit scramble field itself (scramble_range's
/// wrapping window, read as one rotate of the high half).
[[nodiscard]] inline std::size_t range_index(std::uint64_t v, int lo, int h, int lb) noexcept {
  const std::uint64_t high = (v >> h) & util::mask64(h);
  if (h == 8) return static_cast<std::size_t>(high);
  return static_cast<std::size_t>(((high >> lo) | (high << (h - lo))) & util::mask64(lb));
}

/// A core's PairCtx per key pair, in key order. Every entry comes from the
/// window's normative range (scramble_range / FixedWindow::range), so there
/// is no second formula. The caches encode the key, so their storage is
/// wiped (util::secure_wipe) before it is released — when the owning core
/// dies and when a move-assignment replaces it.
class PairTables {
 public:
  PairTables() = default;
  template <class Window>
  [[nodiscard]] static PairTables build(const Key& key, const BlockParams& params) {
    const int h = params.half();
    const int lb = params.loc_bits();
    PairTables t;
    t.ctx_.resize(static_cast<std::size_t>(key.size()));
    for (std::size_t i = 0; i < t.ctx_.size(); ++i) {
      const KeyPair& pair = key.pairs()[i];
      PairCtx& pc = t.ctx_[i];
      pc.pattern = Window::pattern(pair, params);
      pc.lo = pair.lo();
      // The block whose high half is `high` rotated left by K1 has the low
      // lb bits of `high` as its scramble field, and a range depends only
      // on that field: one window call per field value, then the 256 such
      // blocks reach every index at every N.
      const auto block = [&](std::uint64_t high) {
        return (((high << pc.lo) | (high >> (h - pc.lo))) << h) & util::mask64(2 * h);
      };
      std::array<std::uint16_t, 32> by_field{};
      for (std::uint64_t f = 0; f < (std::uint64_t{1} << lb); ++f) {
        const ScrambledRange r = Window::range(block(f), pair, params);
        by_field[f] = static_cast<std::uint16_t>(r.kn1 | r.width() << 8);
      }
      for (std::uint64_t high = 0; high < 256; ++high) {
        pc.range[range_index(block(high), pc.lo, h, lb)] = by_field[high & util::mask64(lb)];
      }
    }
    return t;
  }
  PairTables(PairTables&&) noexcept = default;
  PairTables& operator=(PairTables&& other) noexcept {
    if (this != &other) {
      wipe();
      ctx_ = std::move(other.ctx_);
    }
    return *this;
  }
  ~PairTables() { wipe(); }

  [[nodiscard]] std::size_t size() const noexcept { return ctx_.size(); }
  [[nodiscard]] const PairCtx* begin() const noexcept { return ctx_.data(); }
  [[nodiscard]] const PairCtx* end() const noexcept { return ctx_.data() + ctx_.size(); }

 private:
  void wipe() noexcept { util::secure_wipe(ctx_.data(), ctx_.size() * sizeof(PairCtx)); }

  std::vector<PairCtx> ctx_;  // [[mhhea::secret]] K1, d and the K1 pattern per pair
};
}  // namespace detail

/// MHHEA's window: the replacement range is scrambled from the block's high
/// half and the message word is XORed with the pair's K1 pattern
/// (block.hpp). Both are read only while a core builds its tables.
struct ScrambledWindow {
  [[nodiscard]] static ScrambledRange range(std::uint64_t v, const KeyPair& pair,
                                            const BlockParams& params) {
    return scramble_range(v, pair, params);
  }
  [[nodiscard]] static std::uint64_t pattern(const KeyPair& pair, const BlockParams& params) {
    return key_pattern(pair, params);
  }
  /// Narrowest uncapped width of a pair: the scrambled range is d+1 wide
  /// without a wrap and H-d+1 wide with one (block.hpp).
  [[nodiscard]] static constexpr int min_width(const KeyPair& pair, const BlockParams& params) {
    return std::min(pair.span() + 1, params.half() - pair.span() + 1);
  }
};

/// HHEA's window: message bits go verbatim into the fixed key range
/// [K1, K2] — kn1 = K1, width = d+1, pattern 0. The degenerate case of the
/// same embed: embed_bits_with_pattern(v, K1, 0, bits, w) deposits `bits`
/// into V[K1 .. K1+w-1] and extract is V >> K1.
struct FixedWindow {
  [[nodiscard]] static constexpr ScrambledRange range(std::uint64_t /*v*/, const KeyPair& pair,
                                                      const BlockParams& /*params*/) {
    return {pair.lo(), pair.hi()};
  }
  [[nodiscard]] static constexpr std::uint64_t pattern(const KeyPair& /*pair*/,
                                                       const BlockParams& /*params*/) {
    return 0;
  }
  [[nodiscard]] static constexpr int min_width(const KeyPair& pair,
                                               const BlockParams& /*params*/) {
    return pair.span() + 1;
  }
};

/// One-shot decryptor core: the message length is named per call (carried
/// by the framed file format in frame.hpp, or out of band as the paper's
/// EOF). It holds the params and the key's tables, not the key.
template <class Window>
class BlockDecryptor {
 public:
  /// Validates params and key-vs-params (std::invalid_argument) and builds
  /// the tables. `message_bits` is unused — every decrypt_into call names
  /// its own length. It stays so existing constructions keep compiling.
  BlockDecryptor(const Key& key, std::uint64_t message_bits,
                 BlockParams params = BlockParams::paper());

  /// Decrypt the whole ciphertext of a `message_bits`-bit message straight
  /// into the caller's buffer (zero-padded to whole bytes) and return the
  /// bytes written, i.e. ceil(message_bits / 8). std::invalid_argument on
  /// misaligned, truncated or trailing ciphertext (blocks beyond the message
  /// end must not round-trip silently); std::length_error if `out` is too
  /// small (bytes already written are unspecified). Zero heap allocations.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                           std::span<std::uint8_t> out) const;

 protected:
  BlockParams params_;
  detail::PairTables pairs_;
};

/// One-shot encryptor core: the decryptor core plus a cover source. Each
/// call encrypts one whole message from the start of the cover stream, so a
/// reused instance is a pure function of its key, cover and params.
template <class Window>
class BlockEncryptor : public BlockDecryptor<Window> {
 public:
  /// Takes ownership of the cover source (LFSR for encryption mode, buffer
  /// for steganography mode). The cover must be resettable (see
  /// CoverSource::reset): every call rewinds it.
  BlockEncryptor(const Key& key, std::unique_ptr<CoverSource> cover,
                 BlockParams params = BlockParams::paper());

  /// Encrypt the whole of `msg` into the caller's buffer and return the
  /// ciphertext bytes written. The message length is known up front, so
  /// blocks are planned and emitted final-sized straight into `out`; cover
  /// vectors are prefetched into a 16 KiB chunk on the stack (zero heap
  /// allocations). Throws std::length_error if `out` cannot hold the
  /// ciphertext and std::runtime_error if the cover runs dry (bytes already
  /// written are unspecified in both cases).
  std::size_t encrypt_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out);
  /// Closed-form upper bound on the ciphertext bytes of an `n_bits`-bit
  /// message under any cover: what every allocating path sizes its buffer
  /// with before encrypt_into and a shrinking resize. Allocation-free.
  [[nodiscard]] std::uint64_t max_cipher_bytes(std::uint64_t n_bits) const;
  /// Re-seed the cover source — the per-nonce entry point of the sealed-v2
  /// session (one derived seed per message keeps the long-lived core from
  /// ever reusing cover keystream). Requires a reseedable cover
  /// (std::logic_error otherwise — see CoverSource::reseed).
  void reseed(std::uint64_t seed) { cover_->reseed(seed); }

 private:
  using BlockDecryptor<Window>::params_;
  using BlockDecryptor<Window>::pairs_;

  std::unique_ptr<CoverSource> cover_;
  std::uint64_t cycle_min_bits_ = 0;  // sum of Window::min_width over the key
};

extern template class BlockEncryptor<ScrambledWindow>;
extern template class BlockEncryptor<FixedWindow>;
extern template class BlockDecryptor<ScrambledWindow>;
extern template class BlockDecryptor<FixedWindow>;

/// The MHHEA cores.
using Encryptor = BlockEncryptor<ScrambledWindow>;
using Decryptor = BlockDecryptor<ScrambledWindow>;

// ----------------------------------------------------------------------
// One-shot helpers (the quickstart API).

/// Encrypt `msg` with an LFSR cover seeded by `seed` (non-zero nonce).
[[nodiscard]] std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg,
                                                const Key& key, std::uint64_t seed,
                                                BlockParams params = BlockParams::paper());

/// Decrypt ciphertext produced by encrypt(); `msg_bytes` is the plaintext
/// length. Throws std::invalid_argument if the ciphertext is too short or
/// carries blocks beyond the message end.
[[nodiscard]] std::vector<std::uint8_t> decrypt(std::span<const std::uint8_t> cipher,
                                                const Key& key, std::size_t msg_bytes,
                                                BlockParams params = BlockParams::paper());

}  // namespace mhhea::core
