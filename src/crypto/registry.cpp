#include "src/crypto/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/compress/compress.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/hhea_cipher.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/yaea.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace mhhea::crypto {

namespace {

/// A non-zero value in the low `bits` bits, derived from `rng` — LFSR seeds
/// must never park the register at state 0.
std::uint64_t nonzero_seed(util::Xoshiro256& rng, int bits) {
  const std::uint64_t v = rng.next() & util::mask64(bits);
  return v != 0 ? v : 1;
}

/// Seed width for an LfsrCover of this geometry: the cover's LFSR degree is
/// vector_bits, except N=64 which uses a degree-32 register (see LfsrCover).
int cover_seed_bits(const core::BlockParams& params) {
  return std::min(params.vector_bits, 32);
}

constexpr int kRegistryKeyPairs = 8;

}  // namespace

void CipherRegistry::register_cipher(std::string name, CipherFactory factory) {
  if (name.empty()) throw std::invalid_argument("CipherRegistry: empty name");
  if (factory == nullptr) throw std::invalid_argument("CipherRegistry: null factory");
  const auto [it, inserted] = factories_.emplace(std::move(name), std::move(factory));
  if (!inserted) {
    throw std::invalid_argument("CipherRegistry: duplicate cipher '" + it->first + "'");
  }
}

std::unique_ptr<Cipher> CipherRegistry::make(std::string_view name,
                                             std::uint64_t seed) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw std::invalid_argument("CipherRegistry: unknown cipher '" + std::string(name) +
                                "'");
  }
  return it->second(seed);
}

bool CipherRegistry::contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> CipherRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

const CipherRegistry& CipherRegistry::builtin() {
  static const CipherRegistry registry = [] {
    CipherRegistry r;
    r.register_cipher("MHHEA", [](std::uint64_t seed) -> std::unique_ptr<Cipher> {
      util::Xoshiro256 rng(seed);
      const auto params = core::BlockParams::paper();
      core::Key key = core::Key::random(rng, kRegistryKeyPairs, params);
      return std::make_unique<MhheaCipher>(std::move(key),
                                           nonzero_seed(rng, cover_seed_bits(params)),
                                           params, MhheaCipher::Framing::raw);
    });
    // The framed/hardware configuration measured end to end through the
    // core::seal/open container (16-byte self-describing header + blocks).
    r.register_cipher("MHHEA-sealed",
                      [](std::uint64_t seed) -> std::unique_ptr<Cipher> {
      util::Xoshiro256 rng(seed);
      const auto params = core::BlockParams::hardware();
      core::Key key = core::Key::random(rng, kRegistryKeyPairs, params);
      return std::make_unique<MhheaCipher>(std::move(key),
                                           nonzero_seed(rng, cover_seed_bits(params)),
                                           params, MhheaCipher::Framing::sealed);
    });
    // The authenticated container (24-byte nonce-carrying header + blocks +
    // SipHash-128 trailer) over the same hardware configuration — sweeping
    // it next to MHHEA-sealed is what prices the MAC into the bench. The
    // sweep seed doubles as the V2 schedule master (see MhheaCipher).
    r.register_cipher("MHHEA-sealed-v2",
                      [](std::uint64_t seed) -> std::unique_ptr<Cipher> {
      util::Xoshiro256 rng(seed);
      const auto params = core::BlockParams::hardware();
      core::Key key = core::Key::random(rng, kRegistryKeyPairs, params);
      return std::make_unique<MhheaCipher>(std::move(key), rng.next(), params,
                                           MhheaCipher::Framing::sealed_v2);
    });
    // The compression pre-stage over the same authenticated container:
    // identical key/schedule derivation to MHHEA-sealed-v2 (same seed ->
    // same frames when compression falls back), with LZSS negotiated for
    // outbound seals — the configuration the wire-expansion aggregates
    // compare against its uncompressed twin.
    r.register_cipher("MHHEA-sealed-v2-z",
                      [](std::uint64_t seed) -> std::unique_ptr<Cipher> {
      util::Xoshiro256 rng(seed);
      const auto params = core::BlockParams::hardware();
      core::Key key = core::Key::random(rng, kRegistryKeyPairs, params);
      auto cipher = std::make_unique<MhheaCipher>(std::move(key), rng.next(), params,
                                                  MhheaCipher::Framing::sealed_v2);
      cipher->set_compression(compress::Method::lzss);
      return cipher;
    });
    r.register_cipher("HHEA", [](std::uint64_t seed) -> std::unique_ptr<Cipher> {
      util::Xoshiro256 rng(seed);
      const auto params = core::BlockParams::paper();
      core::Key key = core::Key::random(rng, kRegistryKeyPairs, params);
      return std::make_unique<HheaCipher>(std::move(key),
                                          nonzero_seed(rng, cover_seed_bits(params)),
                                          params);
    });
    r.register_cipher("YAEA-S", [](std::uint64_t seed) -> std::unique_ptr<Cipher> {
      util::Xoshiro256 rng(seed);
      Yaea::KeyType key;
      key.seed_a = static_cast<std::uint32_t>(nonzero_seed(rng, GeffeKeystream::kDegreeA));
      key.seed_b = static_cast<std::uint32_t>(nonzero_seed(rng, GeffeKeystream::kDegreeB));
      key.seed_c = static_cast<std::uint32_t>(nonzero_seed(rng, GeffeKeystream::kDegreeC));
      return std::make_unique<Yaea>(key);
    });
    return r;
  }();
  return registry;
}

}  // namespace mhhea::crypto
