#include "src/crypto/session.hpp"

#include <string_view>

#include "src/util/rng.hpp"

namespace mhhea::crypto {

namespace {

/// Deterministic hiding key drawn from the schedule, under its own domain
/// label so it is independent of the MAC and seed subkeys.
core::Key derive_hiding_key(const V2KeySchedule& sched, int n_pairs,
                            const core::BlockParams& params) {
  constexpr std::string_view label = "mhhea-v2 hiding key";
  const std::uint64_t seed = siphash64(
      sched.seed_key,
      std::span(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
  util::Xoshiro256 rng(seed);
  return core::Key::random(rng, n_pairs, params);
}

}  // namespace

Session::Session(std::span<const std::uint8_t> master, core::Key key,
                 core::BlockParams params)
    : Session(master, {}, std::move(key), params) {}

Session::Session(std::span<const std::uint8_t> master,
                 std::span<const std::uint8_t> context, core::Key key,
                 core::BlockParams params)
    : Session(V2KeySchedule::derive(master, context), std::move(key), params) {}

Session::Session(const V2KeySchedule& schedule, core::Key key, core::BlockParams params)
    : cipher_(std::move(key), schedule, params, MhheaCipher::Framing::sealed_v2) {}

Session Session::from_master(std::span<const std::uint8_t> master, int n_pairs,
                             core::BlockParams params) {
  return from_master(master, {}, n_pairs, params);
}

Session Session::from_master(std::span<const std::uint8_t> master,
                             std::span<const std::uint8_t> context, int n_pairs,
                             core::BlockParams params) {
  // The context feeds the schedule before the hiding key is drawn, so the
  // hiding key (not just the MAC/seed subkeys) differs per context too.
  const V2KeySchedule sched = V2KeySchedule::derive(master, context);
  return Session(sched, derive_hiding_key(sched, n_pairs, params), params);
}

void Session::require_nonce_available() const {
  // Checked BEFORE the cipher is touched: at the sentinel every usable nonce
  // has been consumed, and an unchecked ++next_nonce_ would wrap to 0 and
  // re-derive already-used cover seeds — keystream reuse under one key.
  if (next_nonce_ == kNonceExhausted) {
    throw NonceExhaustedError(
        "Session: nonce space exhausted — sealing again would wrap the counter and "
        "reuse keystream; rekey the session");
  }
}

void Session::skip_to_nonce(std::uint64_t nonce) {
  if (nonce < next_nonce_) {
    throw std::invalid_argument(
        "Session: skip_to_nonce cannot rewind — earlier nonces were already sealed");
  }
  next_nonce_ = nonce;
}

std::vector<std::uint8_t> Session::seal(std::span<const std::uint8_t> msg) {
  require_nonce_available();
  std::vector<std::uint8_t> out = cipher_.seal_v2_alloc(msg, next_nonce_);
  ++next_nonce_;  // only after the seal fully succeeded
  return out;
}

std::size_t Session::seal_into(std::span<const std::uint8_t> msg, std::span<std::uint8_t> out) {
  require_nonce_available();
  const std::size_t n = cipher_.seal_v2_into(msg, next_nonce_, out);
  ++next_nonce_;  // only after the seal fully succeeded
  return n;
}

void Session::check_replay(std::uint64_t nonce) const {
  if (!any_seen_) return;
  if (nonce > highest_) return;
  const std::uint64_t age = highest_ - nonce;
  if (age >= kReplayWindow) {
    throw ReplayError("Session: nonce older than the replay window");
  }
  if ((seen_ >> age) & 1u) throw ReplayError("Session: replayed nonce");
}

void Session::commit_replay(std::uint64_t nonce) {
  if (!any_seen_) {
    any_seen_ = true;
    highest_ = nonce;
    seen_ = 1;
    return;
  }
  if (nonce > highest_) {
    const std::uint64_t advance = nonce - highest_;
    seen_ = advance >= 64 ? 0 : seen_ << advance;
    seen_ |= 1;
    highest_ = nonce;
    return;
  }
  seen_ |= std::uint64_t{1} << (highest_ - nonce);
}

std::vector<std::uint8_t> Session::open(std::span<const std::uint8_t> framed) {
  const MhheaCipher::V2Opened opened = cipher_.open_v2_authenticate(framed);
  check_replay(opened.header.nonce);
  // open_v2_alloc sizes the plaintext itself: for a compressed container the
  // header counts envelope bits, not message bytes.
  std::vector<std::uint8_t> msg = cipher_.open_v2_alloc(opened);
  commit_replay(opened.header.nonce);
  return msg;
}

std::size_t Session::open_into(std::span<const std::uint8_t> framed,
                               std::span<std::uint8_t> out) {
  const MhheaCipher::V2Opened opened = cipher_.open_v2_authenticate(framed);
  check_replay(opened.header.nonce);
  const std::size_t n = cipher_.decrypt_v2_payload(opened, out);
  commit_replay(opened.header.nonce);
  return n;
}

}  // namespace mhhea::crypto
