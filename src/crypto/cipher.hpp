// Minimal shared interface for the ciphers compared in Table 1, so the
// benchmark harness and examples can sweep over them uniformly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mhhea::crypto {

/// A one-shot symmetric cipher. Implementations are deterministic given
/// their construction parameters (key + nonce), which is what the benches
/// and equivalence tests need. Implementations may keep reusable internal
/// engine state across calls (resettable cores), so an instance must not be
/// shared between threads — build one instance per thread (equal registry
/// seeds give interchangeable instances).
///
/// The span-based `_into` calls are the primary datapath: message bytes in,
/// ciphertext bytes out, no allocation between the caller's buffers (a
/// warmed encrypt_into/decrypt_into loop is heap-allocation-free for every
/// built-in cipher). The vector-returning encrypt() /
/// decrypt() are thin wrappers kept for convenience. Buffer sizing has one
/// rule: size with the closed-form max_ciphertext_size() bound, write with
/// encrypt_into, and take its return value as the exact length.
class Cipher {
 public:
  virtual ~Cipher() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Encrypt the whole message into `out`, returning the ciphertext bytes
  /// written. Throws std::length_error when `out` cannot hold the
  /// ciphertext (already-written contents are then unspecified) — size the
  /// buffer with max_ciphertext_size().
  virtual std::size_t encrypt_into(std::span<const std::uint8_t> msg,
                                   std::span<std::uint8_t> out) = 0;
  /// Decrypt `cipher` (the ciphertext of a `msg_bytes`-byte message) into
  /// `out`, returning the `msg_bytes` bytes written. Std::length_error when
  /// `out` is shorter than `msg_bytes`; std::invalid_argument on malformed
  /// ciphertext, as with decrypt().
  virtual std::size_t decrypt_into(std::span<const std::uint8_t> cipher,
                                   std::size_t msg_bytes,
                                   std::span<std::uint8_t> out) = 0;
  /// Closed-form upper bound on the ciphertext bytes of an `msg_bytes`-byte
  /// message, whatever the cover: the size of every buffer handed to
  /// encrypt_into. Cheap and allocation-free.
  [[nodiscard]] virtual std::size_t max_ciphertext_size(std::size_t msg_bytes) const = 0;
  /// Encrypt the whole message. Default: a max_ciphertext_size() buffer +
  /// encrypt_into, shrunk to the written bytes (the shrinking resize never
  /// reallocates or copies).
  [[nodiscard]] virtual std::vector<std::uint8_t> encrypt(std::span<const std::uint8_t> msg) {
    std::vector<std::uint8_t> out(max_ciphertext_size(msg.size()));
    const std::size_t n = encrypt_into(msg, out);
    out.resize(n);
    return out;
  }
  /// Decrypt `cipher` back to a message of `msg_bytes` bytes. Default: thin
  /// wrapper over decrypt_into (the output size is always exact).
  [[nodiscard]] virtual std::vector<std::uint8_t> decrypt(
      std::span<const std::uint8_t> cipher, std::size_t msg_bytes) {
    std::vector<std::uint8_t> out(msg_bytes);
    (void)decrypt_into(cipher, msg_bytes, out);
    return out;
  }
  /// Ciphertext bytes produced per message byte (expansion factor); 1 for
  /// conventional stream ciphers, >= 2 for the hiding ciphers.
  [[nodiscard]] virtual double expansion() const = 0;
};

}  // namespace mhhea::crypto
