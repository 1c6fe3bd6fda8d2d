// The span-based zero-allocation cipher surface: encrypt_into/decrypt_into
// bit-equivalence against the allocating APIs across every registry cipher,
// the upper-bound size query, buffer failure paths, YAEA-S in-place
// aliasing, and a counting-operator-new check that a warmed encrypt_into or
// decrypt_into loop is heap-allocation-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/mhhea.hpp"
#include "src/crypto/cipher.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/yaea.hpp"
#include "src/util/rng.hpp"

// ----------------------------------------------------------------------
// Counting global allocator: replaces the program-wide operator new/delete
// with malloc/free wrappers that count allocations, so the steady-state
// test below can assert a warmed encrypt_into loop never touches the heap.
// Counting is atomic: operator new may be called from any thread.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC inlines these replacements at STL call sites and then flags the
// malloc-backed new against the free-backed delete as a mismatch — but that
// pairing is exactly what a counting replacement allocator is.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mhhea::crypto {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

/// Log lines: compressible, so MHHEA-sealed-v2-z's lzss pre-stage engages
/// (random bytes fall back to the uncompressed layout and never reach it).
std::vector<std::uint8_t> log_text(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n + 64);
  while (out.size() < n) {
    const std::string line = "level=INFO msg=\"request sealed\" conn=" +
                             std::to_string(rng.below(1024)) + " status=ok\n";
    out.insert(out.end(), line.begin(), line.end());
  }
  out.resize(n);
  return out;
}

constexpr std::string_view kZCipher = "MHHEA-sealed-v2-z";

/// The acceptance sweep sizes: boundary lengths (empty, sub-frame, frame,
/// 1 KiB neighbours) up to 20000 bytes.
const std::vector<std::size_t>& sweep_lengths() {
  static const std::vector<std::size_t> lens = {
      0, 1, 2, 3, 15, 16, 17, 255, 256, 1000, 1023, 1024, 1025,
      2048, 4096, 8191, 10000, 16384, 20000};
  return lens;
}

class IntoApiTest : public ::testing::TestWithParam<std::string> {};

// encrypt_into / decrypt_into / max_ciphertext_size agree with the
// allocating APIs for every registry cipher x size, on a second
// instance so a reused core is checked against a fresh one.
TEST_P(IntoApiTest, IntoMatchesAllocatingAcrossSizes) {
  util::Xoshiro256 rng(0x1A70);
  const auto reference = CipherRegistry::builtin().make(GetParam(), 0xACE1);
  const auto cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1);
  for (const std::size_t len : sweep_lengths()) {
    const auto msg = random_message(rng, len);
    const auto ct = reference->encrypt(msg);
    ASSERT_GE(reference->max_ciphertext_size(len), ct.size())
        << GetParam() << " len=" << len;
    // Oversized buffer: encrypt_into must report the exact byte count.
    std::vector<std::uint8_t> buf(cipher->max_ciphertext_size(len) + 7, 0xEE);
    const std::size_t n = cipher->encrypt_into(msg, buf);
    ASSERT_EQ(n, ct.size()) << GetParam() << " len=" << len;
    ASSERT_TRUE(std::equal(ct.begin(), ct.end(), buf.begin())) << GetParam() << " len=" << len;
    // Exact-size buffer round-trips too.
    std::vector<std::uint8_t> exact(ct.size());
    ASSERT_EQ(cipher->encrypt_into(msg, exact), ct.size());
    ASSERT_EQ(exact, ct);
    std::vector<std::uint8_t> back(len + 3, 0xEE);
    ASSERT_EQ(cipher->decrypt_into(ct, len, back), len) << GetParam() << " len=" << len;
    ASSERT_TRUE(std::equal(msg.begin(), msg.end(), back.begin()))
        << GetParam() << " len=" << len;
  }
}

TEST_P(IntoApiTest, OutputBufferTooSmallThrows) {
  util::Xoshiro256 rng(0x0B5E);
  auto cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1);
  const auto msg = random_message(rng, 257);
  const auto ct = cipher->encrypt(msg);
  // One byte short, and the empty span, both fail loudly on encrypt...
  std::vector<std::uint8_t> small(ct.size() - 1);
  EXPECT_THROW((void)cipher->encrypt_into(msg, small), std::length_error);
  EXPECT_THROW((void)cipher->encrypt_into(msg, std::span<std::uint8_t>{}),
               std::length_error);
  // ...and on decrypt.
  std::vector<std::uint8_t> short_out(msg.size() - 1);
  EXPECT_THROW((void)cipher->decrypt_into(ct, msg.size(), short_out), std::length_error);
  EXPECT_THROW((void)cipher->decrypt_into(ct, msg.size(), std::span<std::uint8_t>{}),
               std::length_error);
  // The empty message needs no payload bytes — only sealed framing's header.
  std::vector<std::uint8_t> header(cipher->encrypt({}).size());
  EXPECT_EQ(cipher->encrypt_into({}, header), header.size());
  EXPECT_EQ(cipher->decrypt_into(header, 0, {}), 0u);
}

// The strict ciphertext contracts survive the `_into` route: truncation and
// trailing blocks throw std::invalid_argument.
TEST_P(IntoApiTest, StrictContractsThroughInto) {
  util::Xoshiro256 rng(0x57C7);
  const auto msg = random_message(rng, 4096);
  auto cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1);
  const auto ct = cipher->encrypt(msg);
  std::vector<std::uint8_t> out(msg.size());
  const std::size_t unit = GetParam() == "YAEA-S" ? 1 : 2;
  std::vector<std::uint8_t> shorter(ct.begin(), ct.end() - static_cast<long>(unit));
  EXPECT_THROW((void)cipher->decrypt_into(shorter, msg.size(), out), std::invalid_argument)
      << GetParam();
  std::vector<std::uint8_t> longer = ct;
  for (std::size_t i = 0; i < unit; ++i) longer.push_back(0);
  EXPECT_THROW((void)cipher->decrypt_into(longer, msg.size(), out), std::invalid_argument)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllCiphers, IntoApiTest,
                         ::testing::ValuesIn(CipherRegistry::builtin().names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// YAEA-S is a keystream XOR, so `in == out` must work: encrypt a buffer over
// itself, decrypt it over itself, recover the original message.
TEST(YaeaAliasing, InPlaceRoundTrip) {
  util::Xoshiro256 rng(0xA11A);
  auto cipher = CipherRegistry::builtin().make("YAEA-S", 0xACE1);
  for (const std::size_t len : {std::size_t{1}, std::size_t{7}, std::size_t{513},
                                std::size_t{4096}, std::size_t{20000}}) {
    const auto msg = random_message(rng, len);
    const auto expected_ct = cipher->encrypt(msg);
    std::vector<std::uint8_t> buf = msg;
    ASSERT_EQ(cipher->encrypt_into(buf, buf), len) << len;
    ASSERT_EQ(buf, expected_ct) << len;
    ASSERT_EQ(cipher->decrypt_into(buf, len, buf), len) << len;
    ASSERT_EQ(buf, msg) << len;
  }
}

// The headline contract of this surface: once warmed, an encrypt_into loop
// performs ZERO heap allocations for MHHEA, HHEA and YAEA-S (the adapters'
// resettable cores emit straight into the caller's buffer through resident
// scratch only).
TEST(ZeroAllocation, WarmedEncryptIntoLoop) {
  util::Xoshiro256 rng(0x0A11);
  const auto random = random_message(rng, 16384);
  const auto text = log_text(rng, 16384);
  // MHHEA-sealed-v2 rides the same contract: header write + SipHash trailer
  // stay on the stack, so authentication adds no allocations. The -z cipher
  // compresses into the thread's envelope buffer, kept between messages of
  // up to 64 KiB.
  for (const char* name : {"MHHEA", "HHEA", "YAEA-S", "MHHEA-sealed-v2", "MHHEA-sealed-v2-z"}) {
    const auto& msg = name == kZCipher ? text : random;
    auto cipher = CipherRegistry::builtin().make(name, 0xACE1);
    std::vector<std::uint8_t> out(cipher->max_ciphertext_size(msg.size()));
    // Warm: first calls may build the compression engine and grow scratch.
    const std::size_t expected = cipher->encrypt_into(msg, out);
    (void)cipher->encrypt_into(msg, out);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    std::size_t n = 0;
    for (int i = 0; i < 16; ++i) n = cipher->encrypt_into(msg, out);
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << name << ": warmed encrypt_into loop allocated";
    EXPECT_EQ(n, expected) << name;
    // An uncompressed hiding seal expands ~5x; under 2x means the envelope
    // was sealed.
    if (name == kZCipher) {
      EXPECT_LT(n, 2 * msg.size()) << name << ": text not compressed";
    }
  }
}

// The decrypt half of the same contract: a core warmed on a small message
// must decrypt a much longer one into the caller's buffer without touching
// the heap (no message-sized scratch is reserved per call).
TEST(ZeroAllocation, WarmedDecryptIntoLoop) {
  util::Xoshiro256 rng(0xDEC0);
  const auto small = random_message(rng, 64);
  const auto random = random_message(rng, 16384);
  const auto text = log_text(rng, 16384);
  for (const char* name : {"MHHEA", "MHHEA-sealed", "HHEA", "YAEA-S", "MHHEA-sealed-v2-z"}) {
    // The -z cipher decrypts its envelope into the thread's buffer, which
    // grows to the largest envelope seen: it warms on the measured message.
    const bool z = name == kZCipher;
    const auto& msg = z ? text : random;
    const auto& warm = z ? text : small;
    auto cipher = CipherRegistry::builtin().make(name, 0xACE1);
    const auto warm_ct = cipher->encrypt(warm);
    const auto ct = cipher->encrypt(msg);
    std::vector<std::uint8_t> out(msg.size());
    (void)cipher->decrypt_into(warm_ct, warm.size(), out);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    const std::size_t n = cipher->decrypt_into(ct, msg.size(), out);
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << name << ": warmed decrypt_into allocated";
    EXPECT_EQ(n, msg.size()) << name;
    EXPECT_EQ(out, msg) << name;
  }
}

// max_ciphertext_size is closed-form arithmetic over state built at
// construction: repeated calls on every registry cipher never allocate.
TEST(ZeroAllocation, MaxCiphertextSizeQueriesAcrossRegistry) {
  for (const auto& name : CipherRegistry::builtin().names()) {
    const auto cipher = CipherRegistry::builtin().make(name, 0xACE1);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    std::size_t total = 0;
    for (std::size_t len = 0; len <= 16384; len = len * 2 + 1) {
      total += cipher->max_ciphertext_size(len);
    }
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << name << ": max_ciphertext_size allocated";
    EXPECT_GT(total, 0u) << name;
  }
}

}  // namespace
}  // namespace mhhea::crypto
