// ctgrind-style constant-time harness (Langley 2010, adapted to
// MemorySanitizer): secret inputs are poisoned with __msan_poison, and MSan
// reports the moment a branch condition or a memory index is derived from
// them — exactly the two ways a timing side channel forms. The checks below
// therefore *prove*, on every MSan CI run, that
//
//   * constant_time_equal,
//   * SipHash-2-4 (64- and 128-bit finalization), and
//   * the sealed-v2 tag verification path (open_v2_authenticate)
//
// execute no secret-dependent branches or loads. The single sanctioned
// release is the accept/reject verdict, declassified inside
// constant_time_equal (see mac.cpp).
//
// Scope note: only the MAC subkey is poisoned. The hiding cipher itself is
// table-driven and *legitimately* not constant-time (the paper's design),
// so the seed subkey that drives the cover LFSR stays clean — poisoning it
// would flag the cipher's intended data-dependent control flow, not a bug.
//
// This is a plain main() binary, not a gtest suite: under MSan an
// uninstrumented googletest would drown the run in false positives. Without
// MSan (the default tier-1 build) the poison calls are no-ops and the same
// checks run as functional assertions; the banner says which mode is live.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/mhhea_cipher.hpp"

#if defined(__has_feature)
#if __has_feature(memory_sanitizer)
#include <sanitizer/msan_interface.h>
#define MHHEA_MSAN 1
#endif
#endif
#ifndef MHHEA_MSAN
#define MHHEA_MSAN 0
#endif

namespace {

using mhhea::crypto::constant_time_equal;
using mhhea::crypto::MacKey;
using mhhea::crypto::MacTag;
using mhhea::crypto::siphash128;
using mhhea::crypto::siphash64;

int g_failures = 0;

void check(bool ok, const char* name) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", name);
  if (!ok) ++g_failures;
}

// Mark `n` bytes at `p` as secret. Under MSan any branch on (or load indexed
// by) data derived from them aborts the harness with a report naming the
// poisoned origin; otherwise this is a no-op and the checks are functional.
void poison(void* p, std::size_t n) {
#if MHHEA_MSAN
  __msan_poison(p, n);
#else
  (void)p;
  (void)n;
#endif
}

// Re-admit bytes into the checked world so the harness itself may assert on
// them. Used only on *outputs* after the constant-time computation finished.
void unpoison(void* p, std::size_t n) {
#if MHHEA_MSAN
  __msan_unpoison(p, n);
#else
  (void)p;
  (void)n;
#endif
}

void test_constant_time_equal() {
  std::printf("constant_time_equal:\n");
  std::array<std::uint8_t, 16> a{};
  std::array<std::uint8_t, 16> b{};
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] = static_cast<std::uint8_t>(i * 7 + 1);

  // Both operands are secret: the comparison must reach its (declassified)
  // verdict without branching on any byte of either side.
  poison(a.data(), a.size());
  poison(b.data(), b.size());
  check(constant_time_equal(a, b), "equal inputs compare equal");

  unpoison(b.data(), b.size());
  b[0] ^= 0x01;
  poison(b.data(), b.size());
  check(!constant_time_equal(a, b), "first-byte difference detected");

  unpoison(b.data(), b.size());
  b[0] ^= 0x01;
  b[15] ^= 0x80;
  poison(b.data(), b.size());
  check(!constant_time_equal(a, b), "last-byte difference detected");

  // Lengths are public (the wire format fixes them); a mismatch is rejected
  // before any data is touched.
  check(!constant_time_equal(std::span(a).first(15), b), "length mismatch compares unequal");

  unpoison(a.data(), a.size());
  unpoison(b.data(), b.size());
}

void test_siphash() {
  std::printf("SipHash-2-4:\n");
  MacKey key;
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  std::vector<std::uint8_t> msg(15);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);

  // Reference values computed while everything is still clean.
  const std::uint64_t want64 = 0xa129ca6149be45e5ULL;  // SipHash paper, Appendix A
  const MacTag want128 = siphash128(key, msg);

  // The key is the secret; the message is attacker-visible ciphertext.
  poison(key.data(), key.size());
  std::uint64_t got64 = siphash64(key, msg);
  MacTag got128 = siphash128(key, msg);

  // The outputs are tainted only because they derive from the key — the
  // computation itself ran under poison without a report. Declassify them
  // to let the harness compare against the clean references.
  unpoison(&got64, sizeof(got64));
  unpoison(got128.data(), got128.size());
  unpoison(key.data(), key.size());
  check(got64 == want64, "64-bit paper test vector under poisoned key");
  check(got128 == want128, "128-bit tag matches clean-key reference");
}

void test_v2_tag_verify() {
  std::printf("sealed-v2 verify path:\n");
  using mhhea::crypto::MhheaCipher;

  auto sched = mhhea::crypto::V2KeySchedule::derive(0x5eed5eed5eed5eedULL);
  // Only the MAC subkey is secret-tagged here; the seed subkey drives the
  // cover LFSR whose data-dependent stepping is the cipher's design (see
  // scope note at the top of this file).
  poison(sched.mac_key.data(), sched.mac_key.size());

  // Explicit pairs, not Key::parse: keeps out-of-line std::string code
  // (uninstrumented under MSan) out of the harness.
  mhhea::core::Key key(std::vector<mhhea::core::KeyPair>{{1, 6}, {2, 5}, {3, 7}, {0, 4}});
  MhheaCipher cipher(std::move(key), sched, mhhea::core::BlockParams::paper(),
                     MhheaCipher::Framing::sealed_v2);

  const std::vector<std::uint8_t> msg(48, 0x5c);
  const std::uint64_t nonce = 7;
  std::vector<std::uint8_t> sealed(cipher.max_ciphertext_size(msg.size()));
  const std::size_t n = cipher.seal_v2_into(msg, nonce, sealed);
  check(n > 0 && n <= sealed.size(), "seal_v2_into fits the bound-sized buffer");
  sealed.resize(n);

  // Genuine container: the constant-time verify must accept, having branched
  // only on the declassified verdict.
  bool accepted = false;
  try {
    const auto opened = cipher.open_v2_authenticate(sealed);
    accepted = !opened.payload.empty();
  } catch (const std::exception&) {
    accepted = false;
  }
  check(accepted, "genuine container authenticates");

  // Tampered MAC trailer: rejection must come as MacError, again without a
  // secret-dependent branch (the flipped byte sits in the poisoned tag).
  sealed.back() ^= 0x01;
  poison(&sealed.back(), 1);
  bool rejected = false;
  try {
    (void)cipher.open_v2_authenticate(sealed);
  } catch (const mhhea::crypto::MacError&) {
    rejected = true;
  }
  check(rejected, "tampered trailer rejected with MacError");

  unpoison(sealed.data(), sealed.size());
}

}  // namespace

int main() {
  std::printf("constant-time harness mode: %s\n",
              MHHEA_MSAN ? "MemorySanitizer (ctgrind: secrets poisoned, "
                           "secret-dependent branches/loads abort)"
                         : "functional (MSan off: poison calls are no-ops)");
  test_constant_time_equal();
  test_siphash();
  test_v2_tag_verify();
  if (g_failures != 0) {
    std::printf("FAILED: %d check(s)\n", g_failures);
    return 1;
  }
  std::printf("all constant-time checks passed\n");
  return 0;
}
