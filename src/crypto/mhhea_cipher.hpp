// Cipher adapter for the paper's MHHEA (src/core) so the hiding cipher is
// sweepable through the uniform crypto::Cipher interface alongside HHEA and
// YAEA-S (Table 1's comparison set).
//
// One adapter instance = one (key, nonce, params, framing) configuration.
// The instance keeps one key and one reusable core that encrypts and
// decrypts from one table set, instead of constructing a fresh engine each
// time — key setup (cover construction, range tables, key patterns) is paid
// once. Calls remain deterministic and independent: the cover source is
// rewound on every call, so encrypt() is a pure function of the
// configuration and the message. The reusable core makes calls STATEFUL
// internally — give each thread its own instance. Nothing in an instance
// grows with traffic: its heap is the key and the core's table set, and the
// compression pre-stage's engines and envelope buffers live once per thread
// (mhhea_cipher.cpp).
//
// Framing::sealed wraps every ciphertext in the self-describing
// core::seal/open container (frame.hpp): a 16-byte header carrying params
// and message length ahead of the blocks. That is the mode the bench uses
// to measure the framed/hardware configuration end to end.
//
// Framing::sealed_v2 is the authenticated container (frame.hpp's v2 wire
// layout): a 24-byte header carrying an explicit nonce, encrypt-then-MAC
// with a SipHash-2-4-128 trailer over header || ciphertext, and a per-nonce
// cover seed derived by the V2KeySchedule so no two nonces share keystream.
// Through the uniform Cipher interface every message is sealed under nonce 0
// (calls stay deterministic, as the sweep harness requires); the seal_v2 /
// open_v2 entry points take explicit nonces and are what crypto::Session
// drives with its auto-incrementing counter and replay window.
#pragma once

#include <cstdint>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/crypto/cipher.hpp"
#include "src/crypto/mac.hpp"

namespace mhhea::crypto {

class MhheaCipher final : public Cipher {
 public:
  /// Ciphertext layout produced by encrypt().
  enum class Framing {
    raw,        ///< bare ciphertext blocks (the paper's out-of-band-EOF mode)
    sealed,     ///< core::seal container: 16-byte header + blocks
    sealed_v2,  ///< authenticated container: 24-byte header + blocks + MAC
  };

  /// `seed` is the LFSR nonce; must be non-zero in the low LFSR-degree bits
  /// and `key` must fit `params` — both are validated eagerly
  /// (std::invalid_argument), so a registry sweep fails at construction, not
  /// mid-benchmark.
  ///
  /// For Framing::sealed_v2 the `seed` doubles as the schedule master: the
  /// V2KeySchedule expands it into MAC and seed-derivation subkeys, and the
  /// cover is seeded for nonce 0 (the seed's low bits are not used directly,
  /// so the non-zero constraint does not apply to this framing).
  MhheaCipher(core::Key key, std::uint64_t seed,
              core::BlockParams params = core::BlockParams::paper(),
              Framing framing = Framing::raw);

  /// Sealed-v2 with an explicit key schedule (how crypto::Session builds its
  /// cipher from a caller-provided master secret). `framing` must be
  /// sealed_v2 — std::invalid_argument otherwise.
  MhheaCipher(core::Key key, const V2KeySchedule& schedule, core::BlockParams params,
              Framing framing);

  // Copies are deleted so the key and schedule never exist twice.
  MhheaCipher(const MhheaCipher&) = delete;
  MhheaCipher& operator=(const MhheaCipher&) = delete;
  MhheaCipher(MhheaCipher&&) noexcept = default;
  MhheaCipher& operator=(MhheaCipher&&) noexcept = default;
  /// Wipes the stored seed — under sealed_v2 it is the schedule master, so
  /// it must not outlive the cipher (key_ and sched_ wipe themselves).
  ~MhheaCipher() override;

  [[nodiscard]] std::string name() const override {
    switch (framing_) {
      case Framing::sealed: return "MHHEA-sealed";
      case Framing::sealed_v2:
        return compression_ == compress::Method::raw ? "MHHEA-sealed-v2"
                                                     : "MHHEA-sealed-v2-z";
      default: return "MHHEA";
    }
  }
  /// One-shot encryption straight into the caller's buffer through the
  /// core's final-sized block walk; sealed
  /// framing writes its 16-byte header in place ahead of the blocks, and
  /// sealed_v2 seals under nonce 0 (header + blocks + MAC trailer). The
  /// warmed path performs zero heap allocations.
  std::size_t encrypt_into(std::span<const std::uint8_t> msg,
                           std::span<std::uint8_t> out) override;
  /// For sealed framings, `msg_bytes` must agree with the header's message
  /// length (std::invalid_argument otherwise). sealed_v2 verifies the MAC in
  /// constant time BEFORE any decryption — MacError (an invalid_argument) on
  /// any tampered bit, so garbage plaintext is never produced.
  std::size_t decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                           std::span<std::uint8_t> out) override;
  /// Closed-form worst case: the engine's bound (Encryptor::max_cipher_bytes,
  /// from each pair's minimum scramble width min(d+1, H-d+1)) plus the
  /// constant container overhead of the sealed framings.
  [[nodiscard]] std::size_t max_ciphertext_size(std::size_t msg_bytes) const override;
  /// Analytical expected expansion for this key (src/core/analysis.hpp);
  /// excludes the constant container overhead in the sealed framings.
  [[nodiscard]] double expansion() const override { return expansion_; }

  // --- sealed_v2 entry points (std::logic_error under other framings) ---

  /// Compression pre-stage for outbound seals (src/compress): when not raw,
  /// seal_v2_into first compresses the message into a self-describing
  /// envelope and seals that instead — strictly-smaller-or-fallback, so a
  /// frame is never larger than its uncompressed twin and incompressible
  /// messages produce byte-identical uncompressed containers. Opening is
  /// always method-agnostic (the wire format self-describes), so this knob
  /// only shapes what THIS cipher sends. The cipher keeps only the method:
  /// the engines and envelope buffers are per-thread scratch in
  /// mhhea_cipher.cpp, wiped after every message and freed after one that
  /// grew a buffer past 64 KiB.
  void set_compression(compress::Method method);
  [[nodiscard]] compress::Method compression() const noexcept { return compression_; }

  /// Seal `msg` under an explicit `nonce`: v2 header + ciphertext blocks +
  /// MAC over everything before the tag, written into `out` (std::length_error
  /// when it cannot fit). Returns the container bytes. The cover is re-seeded
  /// from the schedule's per-nonce derivation, so distinct nonces never share
  /// keystream. Zero heap allocations once warmed.
  std::size_t seal_v2_into(std::span<const std::uint8_t> msg, std::uint64_t nonce,
                           std::span<std::uint8_t> out);
  /// Allocating seal, the mirror of open_v2_alloc: compresses first, then
  /// sizes the container from the bound over the body it seals (the
  /// envelope when compression wins), not over the message. The container
  /// is byte-identical to seal_v2_into's at the same nonce.
  [[nodiscard]] std::vector<std::uint8_t> seal_v2_alloc(std::span<const std::uint8_t> msg,
                                                        std::uint64_t nonce);
  /// The authenticated-but-not-yet-decrypted view of a v2 container.
  struct V2Opened {
    core::FrameHeader header;
    std::span<const std::uint8_t> payload;  // ciphertext blocks, MAC excluded
  };
  /// Structural parse + constant-time MAC verification, no decryption:
  /// std::invalid_argument on malformation or a v1 container, MacError on tag
  /// mismatch. What Session calls first so replay checks run on
  /// authenticated nonces only.
  [[nodiscard]] V2Opened open_v2_authenticate(std::span<const std::uint8_t> framed) const;
  /// Decrypt an authenticated container's payload into `out` (zero-padded to
  /// whole bytes), returning the plaintext bytes: ceil(message_bits/8) for an
  /// uncompressed container, the envelope's declared raw size after
  /// decompression for a compressed one. std::length_error when `out` is too
  /// small; std::invalid_argument on an unknown method tag, a tag/header
  /// mismatch or a corrupt envelope (all post-MAC — `out` is untouched).
  std::size_t decrypt_v2_payload(const V2Opened& opened, std::span<std::uint8_t> out);
  /// Allocating open of an authenticated container: sizes the plaintext from
  /// the header (or the envelope's raw size once decrypted) and returns it —
  /// what Session::open drives, since a compressed container's plaintext
  /// size is only known after the envelope is decrypted.
  [[nodiscard]] std::vector<std::uint8_t> open_v2_alloc(const V2Opened& opened);

  [[nodiscard]] const core::Key& key() const noexcept { return key_; }
  [[nodiscard]] const core::BlockParams& params() const noexcept { return params_; }
  [[nodiscard]] Framing framing() const noexcept { return framing_; }

 private:
  /// Delegation target of the public constructors: `schedule` is live only
  /// under Framing::sealed_v2.
  MhheaCipher(core::Key key, std::uint64_t seed, const V2KeySchedule& schedule,
              core::BlockParams params, Framing framing);

  /// Cover seed for sealed_v2 under `nonce` (other framings use seed_).
  [[nodiscard]] std::uint64_t v2_cover_seed(std::uint64_t nonce) const;
  /// Point the encryptor core at `nonce`'s derived cover seed. No-op when
  /// already there — repeated seals under one nonce (every encrypt_into
  /// runs under nonce 0) skip the derivation and the reseed.
  void set_nonce(std::uint64_t nonce);
  void require_v2(const char* what) const;
  /// The seal both seal_v2 forms share: encrypt `body` under `nonce`, write
  /// the v2 header (compression tag `method`) and the MAC trailer into `out`.
  std::size_t seal_body_into(std::span<const std::uint8_t> body, std::uint8_t method,
                             std::uint64_t nonce, std::span<std::uint8_t> out);

  core::Key key_;       // [[mhhea::secret]] the hiding key (self-wiping)
  std::uint64_t seed_;  // [[mhhea::secret]] v2 schedule master; a nonce otherwise
  core::BlockParams params_;
  Framing framing_;
  V2KeySchedule sched_;       // sealed_v2 only; zeroed otherwise
  std::uint64_t cur_nonce_ = 0;  // nonce core_ is seeded for
  core::Encryptor core_;  // encrypts (cover rewound per call) and decrypts
  compress::Method compression_ = compress::Method::raw;  // outbound, sealed_v2 only
  double expansion_;
};

}  // namespace mhhea::crypto
