// CipherRegistry — the sweep surface of the engine layer.
//
// The paper's headline result (Table 1) is a comparison of hiding ciphers
// against a conventional stream cipher. The registry makes that comparison a
// data-driven loop: every algorithm family is registered under a stable name
// with a factory that derives a full deterministic configuration (key
// material + nonce) from a single 64-bit seed, so benches and property tests
// can iterate `registry.names()` without knowing any cipher's key shape.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/cipher.hpp"

namespace mhhea::crypto {

/// Builds a deterministic cipher instance from a 64-bit seed. The same seed
/// must always yield the same cipher configuration (keys, nonces), so two
/// instances made with equal seeds are interchangeable — the property the
/// concurrent-vs-sequential equivalence tests and the bench harness depend
/// on.
using CipherFactory = std::function<std::unique_ptr<Cipher>(std::uint64_t seed)>;

class CipherRegistry {
 public:
  /// Register a factory. Throws std::invalid_argument on an empty name or a
  /// duplicate registration.
  void register_cipher(std::string name, CipherFactory factory);

  /// Instantiate a registered cipher. Throws std::invalid_argument for an
  /// unknown name.
  [[nodiscard]] std::unique_ptr<Cipher> make(std::string_view name, std::uint64_t seed) const;

  [[nodiscard]] bool contains(std::string_view name) const;
  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const noexcept { return factories_.size(); }

  /// The built-in registry: MHHEA, MHHEA-sealed (framed/hardware params
  /// through the core::seal container), HHEA and YAEA-S, all with
  /// seed-derived random keys.
  [[nodiscard]] static const CipherRegistry& builtin();

 private:
  std::map<std::string, CipherFactory, std::less<>> factories_;
};

}  // namespace mhhea::crypto
