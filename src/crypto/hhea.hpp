// The original (unmodified) Hybrid Hiding Encryption Algorithm — HHEA
// [SHAAR03], the baseline the paper improves upon.
//
// HHEA hides message bits at FIXED key locations: block i uses pair
// (K1, K2) = key[i mod L] and writes message bits directly (no XOR) into
// V[K1 .. K2]. There is no location scrambling and no data scrambling —
// which is exactly why a constant chosen-plaintext attack recovers the key
// locations (tests/crypto_test.cpp pins the fixed locations and the absent
// data XOR) and why the paper added the two scrambling steps.
//
// The same CoverSource / framing machinery as the core cipher is reused so
// HHEA and MHHEA are compared on equal footing; like core::Encryptor the
// hot path moves whole message words per block and both cores are
// resettable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/util/bitstream.hpp"

namespace mhhea::crypto {

namespace detail {

/// The key's per-pair embed widths (span+1 each) as a prefix-sum table —
/// the closed-form backbone of HHEA size queries. Build once per key and
/// reuse: HheaCipher caches one so its size queries stop reallocating the
/// table per call.
struct WidthCycle {
  std::vector<std::uint64_t> prefix;  // prefix[i] = widths of pairs [0, i)
  std::uint64_t period = 0;           // prefix[L]
  std::size_t L = 0;

  explicit WidthCycle(const core::Key& key) : L(static_cast<std::size_t>(key.size())) {
    prefix.reserve(L + 1);
    prefix.push_back(0);
    for (const core::KeyPair& p : key.pairs()) {
      prefix.push_back(prefix.back() + static_cast<std::uint64_t>(p.span() + 1));
    }
    period = prefix.back();
  }

  /// Smallest block count whose capacity covers `bits` (continuous policy).
  [[nodiscard]] std::uint64_t blocks_for_bits(std::uint64_t bits) const {
    const std::uint64_t full = bits / period;
    const std::uint64_t rem = bits % period;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), rem);
    return full * static_cast<std::uint64_t>(L) +
           static_cast<std::uint64_t>(it - prefix.begin());
  }
};

}  // namespace detail

/// Streaming HHEA encryptor (API mirrors core::Encryptor).
class HheaEncryptor {
 public:
  HheaEncryptor(core::Key key, std::unique_ptr<core::CoverSource> cover,
                core::BlockParams params = core::BlockParams::paper());

  void feed(std::span<const std::uint8_t> msg);
  /// One-shot fast path: encrypt the whole of `msg` straight into the
  /// caller's buffer (no internal block storage, zero heap allocations) and
  /// return the ciphertext bytes written. Byte-identical to
  /// reset()+feed(msg) -> cipher_bytes(). Throws std::length_error when
  /// `out` is too small (partial contents unspecified). Implies reset().
  std::size_t encrypt_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out);
  /// Start a new message; requires a resettable cover source.
  void reset();
  [[nodiscard]] std::uint64_t message_bits() const noexcept { return msg_bits_; }
  [[nodiscard]] const std::vector<std::uint64_t>& blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::vector<std::uint8_t> cipher_bytes() const;

 private:
  core::Key key_;
  std::unique_ptr<core::CoverSource> cover_;
  core::BlockParams params_;
  std::vector<std::uint64_t> blocks_;
  std::uint64_t block_index_ = 0;
  std::size_t pair_idx_ = 0;
  std::uint64_t msg_bits_ = 0;
  int frame_remaining_ = 0;
};

/// Streaming HHEA decryptor.
class HheaDecryptor {
 public:
  HheaDecryptor(core::Key key, std::uint64_t message_bits,
                core::BlockParams params = core::BlockParams::paper());

  int feed_block(std::uint64_t block);
  /// Consume serialized blocks; throws std::invalid_argument on unconsumed
  /// trailing blocks once the message is complete.
  void feed_bytes(std::span<const std::uint8_t> cipher);
  /// One-shot fast path: decrypt the whole ciphertext of a
  /// `message_bits`-bit message into the caller's buffer (zero-padded to
  /// whole bytes, ceil(message_bits/8) bytes written — the return value).
  /// Strict like feed_bytes plus completeness: std::invalid_argument on
  /// misaligned, truncated or trailing ciphertext; std::length_error when
  /// `out` is too small. Zero heap allocations; implies reset(message_bits).
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::uint64_t message_bits,
                           std::span<std::uint8_t> out);
  /// Start over, expecting a `message_bits`-bit message.
  void reset(std::uint64_t message_bits);
  [[nodiscard]] bool done() const noexcept { return recovered_ == total_bits_; }
  [[nodiscard]] std::vector<std::uint8_t> message() const { return out_.bytes(); }

 private:
  core::Key key_;
  core::BlockParams params_;
  std::uint64_t total_bits_;
  std::uint64_t recovered_ = 0;
  std::uint64_t block_index_ = 0;
  std::size_t pair_idx_ = 0;
  int frame_remaining_ = 0;
  util::BitWriter out_;
};

/// Exact ciphertext bytes for an `msg_bits`-bit message: HHEA block widths
/// are fixed by the key alone (span+1 per pair, frame/message caps aside),
/// so the size query is closed-form arithmetic over the key's width cycle
/// for the continuous policy and one cover-free frame walk for the framed
/// policy — never a cover scan.
[[nodiscard]] std::uint64_t hhea_cipher_bytes(const core::Key& key, std::uint64_t msg_bits,
                                              core::BlockParams params = core::BlockParams::paper());

/// Allocation-free form over a prebuilt width cycle (must be the key's —
/// unchecked, and params/key validation is the caller's: HheaCipher
/// validates both at construction and reuses its cached cycle here).
[[nodiscard]] std::uint64_t hhea_cipher_bytes(const detail::WidthCycle& wc,
                                              std::uint64_t msg_bits,
                                              const core::BlockParams& params);

/// One-shot helpers with an LFSR cover (seed = nonce), like core::encrypt.
[[nodiscard]] std::vector<std::uint8_t> hhea_encrypt(
    std::span<const std::uint8_t> msg, const core::Key& key, std::uint64_t seed,
    core::BlockParams params = core::BlockParams::paper());
[[nodiscard]] std::vector<std::uint8_t> hhea_decrypt(
    std::span<const std::uint8_t> cipher, const core::Key& key, std::size_t msg_bytes,
    core::BlockParams params = core::BlockParams::paper());

}  // namespace mhhea::crypto
