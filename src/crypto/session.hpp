// Sealed-v2 sessions: one long-lived master secret, many authenticated
// messages.
//
// A Session owns the V2KeySchedule (mac.hpp) and an MhheaCipher in
// Framing::sealed_v2, and layers the two stateful guarantees the bare
// container cannot give:
//
//   * on seal, the 64-bit message counter becomes the container's nonce and
//     auto-increments, and the cover seed is re-derived per nonce — one key
//     seals 2^64 messages without ever reusing cover keystream;
//   * on open, the MAC is verified first (constant time, before any
//     decryption), then the authenticated nonce is checked against a
//     sliding replay window (IPsec/DTLS style: highest-seen counter plus a
//     kReplayWindow-wide seen-bitmap), and only then is the payload
//     decrypted. Replays and too-old nonces throw ReplayError; forged or
//     corrupted containers throw MacError — both before plaintext exists.
//
// The window commits only after full success, so a failed open (bad MAC,
// wrong size) never burns a nonce. Out-of-order delivery inside the window
// is accepted exactly once per nonce.
//
// Sessions are unidirectional: the sealing side and the opening side each
// hold their own Session (same master), mirroring how the counter/window
// pair is split in record protocols. One Session must not be shared between
// threads (the underlying cipher keeps reusable cores).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/mhhea_cipher.hpp"

namespace mhhea::crypto {

/// Thrown when an *authentic* container's nonce is rejected by the replay
/// window (already seen, or older than the window reaches). Distinct from
/// MacError so callers can tell forgery from replay, but still a
/// std::invalid_argument: either way the message must not be accepted.
class ReplayError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown by seal/seal_into when the session's nonce space is spent: the
/// counter has reached kNonceExhausted and sealing again would wrap back to
/// already-used nonces — keystream reuse under one key, the exact failure
/// the per-nonce V2KeySchedule derivation exists to prevent. The failed call
/// consumes nothing; the session stays usable for open().
class NonceExhaustedError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Session {
 public:
  /// Sliding replay-window width in messages: nonces older than
  /// `highest seen - kReplayWindow + 1` are rejected outright.
  static constexpr std::uint64_t kReplayWindow = 64;

  /// The seal counter's exhaustion sentinel: 2^64 - 1 is never used as a
  /// nonce, so `next_nonce_ == kNonceExhausted` unambiguously means "every
  /// usable nonce (0 .. 2^64 - 2) has been sealed" and the counter can never
  /// silently wrap to 0. Sealing in that state throws NonceExhaustedError.
  static constexpr std::uint64_t kNonceExhausted = ~std::uint64_t{0};

  /// Session over an explicit hiding key. `master` (non-empty) feeds the
  /// V2KeySchedule; `key` must fit `params`.
  Session(std::span<const std::uint8_t> master, core::Key key,
          core::BlockParams params = core::BlockParams::hardware());
  /// Context-separated variant: `context` (public bytes — e.g. a direction
  /// label plus a per-connection salt) is mixed into the key schedule, so
  /// sessions under one master but different contexts share no keystream and
  /// their containers do not cross-verify (V2KeySchedule::derive semantics).
  Session(std::span<const std::uint8_t> master, std::span<const std::uint8_t> context,
          core::Key key, core::BlockParams params = core::BlockParams::hardware());

  /// Derive everything from the master secret alone: the hiding key is drawn
  /// from a schedule-seeded deterministic RNG with `n_pairs` pairs, so both
  /// endpoints construct identical sessions from the shared master.
  [[nodiscard]] static Session from_master(
      std::span<const std::uint8_t> master, int n_pairs = 8,
      core::BlockParams params = core::BlockParams::hardware());
  /// Context-separated from_master: the context flows into the schedule AND
  /// the derived hiding key, so each (master, context) pair is an
  /// independent cipher. Both endpoints must pass identical context bytes.
  [[nodiscard]] static Session from_master(
      std::span<const std::uint8_t> master, std::span<const std::uint8_t> context,
      int n_pairs = 8, core::BlockParams params = core::BlockParams::hardware());

  /// Seal `msg` under the next counter value (the container carries it as
  /// the nonce). The counter increments only on success; once it reaches
  /// kNonceExhausted, sealing throws NonceExhaustedError before touching the
  /// cipher (no nonce is burned by the failed call). The buffer is sized
  /// after compression, from the body actually sealed
  /// (MhheaCipher::seal_v2_alloc); the container is byte-identical to
  /// seal_into()'s at the same nonce.
  [[nodiscard]] std::vector<std::uint8_t> seal(std::span<const std::uint8_t> msg);
  /// Span form: writes the container into `out` and returns its size
  /// (std::length_error when `out` is too small — the counter is not
  /// consumed). Size with max_sealed_size(). Same NonceExhaustedError
  /// contract as seal().
  std::size_t seal_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out);

  /// Fast-forward the seal counter to `nonce` — how a sealing session resumes
  /// after persistence or fails over to a replica that must not reuse its
  /// predecessor's nonces. Rewinding (nonce < next_nonce()) would re-derive
  /// already-used cover seeds and throws std::invalid_argument; advancing to
  /// kNonceExhausted is allowed and makes the next seal throw
  /// NonceExhaustedError. Doubles as the regression hook that makes the
  /// wrap-around contract testable without sealing 2^64 messages.
  void skip_to_nonce(std::uint64_t nonce);

  /// Authenticate, replay-check, then decrypt. Throws MacError on tag
  /// mismatch, ReplayError on a replayed/too-old nonce, std::invalid_argument
  /// on structural malformation — all before any plaintext is produced. On
  /// success the nonce is committed to the window.
  [[nodiscard]] std::vector<std::uint8_t> open(std::span<const std::uint8_t> framed);
  /// Span form of open: writes the message into `out`, returns its size.
  std::size_t open_into(std::span<const std::uint8_t> framed, std::span<std::uint8_t> out);

  /// Upper bound on seal output for an `msg_bytes`-byte message (cheap,
  /// nonce-independent — what a reusable arena is sized with).
  [[nodiscard]] std::size_t max_sealed_size(std::size_t msg_bytes) const {
    return cipher_.max_ciphertext_size(msg_bytes);
  }

  /// Compression method for outbound seals (compress-then-encrypt with
  /// automatic fallback — MhheaCipher::set_compression semantics). Opening
  /// is always method-agnostic, so peers only need to agree on what each
  /// SENDER uses; the server protocol negotiates it via the hello frame's
  /// supported-methods mask.
  void set_compression(compress::Method method) { cipher_.set_compression(method); }
  [[nodiscard]] compress::Method compression() const noexcept {
    return cipher_.compression();
  }

  /// The nonce the next seal() will use.
  [[nodiscard]] std::uint64_t next_nonce() const noexcept { return next_nonce_; }
  [[nodiscard]] const MhheaCipher& cipher() const noexcept { return cipher_; }

 private:
  /// The constructors' common target: `schedule` is already derived (the
  /// from_master path derives it once, for the hiding key and the cipher).
  Session(const V2KeySchedule& schedule, core::Key key, core::BlockParams params);

  /// Throws NonceExhaustedError when the seal counter sits at the sentinel.
  void require_nonce_available() const;
  /// Throws ReplayError unless `nonce` is fresh w.r.t. the window.
  void check_replay(std::uint64_t nonce) const;
  /// Marks an accepted nonce seen, sliding the window forward if needed.
  void commit_replay(std::uint64_t nonce);

  MhheaCipher cipher_;
  std::uint64_t next_nonce_ = 0;  // seal-side counter
  // Open-side window: bit i of seen_ covers nonce highest_ - i.
  std::uint64_t highest_ = 0;
  std::uint64_t seen_ = 0;
  bool any_seen_ = false;
};

}  // namespace mhhea::crypto
