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
// with MHHEA on equal footing, and sized by the same closed-form bound
// (BlockEncryptor::max_cipher_bytes). This file keeps only the one-shot
// helpers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/key.hpp"
#include "src/core/params.hpp"

namespace mhhea::crypto {

/// One-shot helpers with an LFSR cover (seed = nonce), like core::encrypt.
[[nodiscard]] std::vector<std::uint8_t> hhea_encrypt(
    std::span<const std::uint8_t> msg, const core::Key& key, std::uint64_t seed,
    core::BlockParams params = core::BlockParams::paper());
[[nodiscard]] std::vector<std::uint8_t> hhea_decrypt(
    std::span<const std::uint8_t> cipher, const core::Key& key, std::size_t msg_bytes,
    core::BlockParams params = core::BlockParams::paper());

}  // namespace mhhea::crypto
