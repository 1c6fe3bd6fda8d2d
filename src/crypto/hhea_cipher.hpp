// Cipher adapter for the baseline HHEA (src/crypto/hhea.hpp), mirroring
// MhheaCipher: one instance = one (key, nonce, params) configuration with
// one key and one reusable core (both directions) of the shared block
// engine under its fixed window policy, so per-call work is the message
// itself, not engine construction.
// Deterministic per call; share one instance per thread.
#pragma once

#include <cstdint>

#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/crypto/cipher.hpp"

namespace mhhea::crypto {

class HheaCipher final : public Cipher {
 public:
  /// Validates seed, params and key-vs-params eagerly (std::invalid_argument).
  HheaCipher(core::Key key, std::uint64_t seed,
             core::BlockParams params = core::BlockParams::paper());

  [[nodiscard]] std::string name() const override { return "HHEA"; }
  /// Straight into the caller's buffer (allocation-free when warmed); the
  /// allocating encrypt()/decrypt() are the base-class thin wrappers over
  /// these.
  std::size_t encrypt_into(std::span<const std::uint8_t> msg,
                           std::span<std::uint8_t> out) override;
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                           std::span<std::uint8_t> out) override;
  /// The engine's closed-form bound under the fixed window (each uncapped
  /// block carries exactly span+1 bits); continuous params exceed the
  /// exact size by at most L blocks.
  [[nodiscard]] std::size_t max_ciphertext_size(std::size_t msg_bytes) const override {
    return static_cast<std::size_t>(
        core_.max_cipher_bytes(static_cast<std::uint64_t>(msg_bytes) * 8));
  }
  /// HHEA embeds exactly span+1 bits per block, so the expansion is the
  /// closed form vector_bits / mean(span_i + 1) — no scramble averaging.
  [[nodiscard]] double expansion() const override { return expansion_; }

  [[nodiscard]] const core::Key& key() const noexcept { return key_; }
  [[nodiscard]] const core::BlockParams& params() const noexcept { return params_; }

 private:
  core::Key key_;
  core::BlockParams params_;
  // The one block engine under HHEA's fixed window: one reusable core,
  // rewound per call, for both directions.
  core::BlockEncryptor<core::FixedWindow> core_;
  double expansion_;
};

}  // namespace mhhea::crypto
