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
// HHEA is the same datapath as MHHEA with both scramblers bypassed, so it
// runs on the same block engine (core/mhhea.hpp) under the FixedWindow
// policy: same cover prefetch, framing and word-at-a-time embed, compared
// with MHHEA on equal footing. This file keeps only what is HHEA-specific:
// the cover-free size cycle and the one-shot helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/key.hpp"
#include "src/core/params.hpp"

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
