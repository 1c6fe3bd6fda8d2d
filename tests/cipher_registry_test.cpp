// Property tests of the engine layer: every registered cipher round-trips
// through the uniform Cipher interface across randomized message lengths,
// instances are deterministic per seed, and the batch API is bit-equivalent
// to a sequential loop at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/frame.hpp"
#include "src/core/mhhea.hpp"
#include "src/crypto/batch.hpp"
#include "src/crypto/cipher.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/registry.hpp"
#include "src/util/rng.hpp"

namespace mhhea::crypto {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

/// Message lengths for the property sweep: all the boundary sizes plus
/// random lengths up to 4096 bytes.
std::vector<std::size_t> sweep_lengths(util::Xoshiro256& rng) {
  std::vector<std::size_t> lens = {0, 1, 2, 3, 15, 16, 17, 255, 256};
  for (int i = 0; i < 12; ++i) lens.push_back(static_cast<std::size_t>(rng.below(4097)));
  return lens;
}

TEST(CipherRegistry, BuiltinHasTheTableOneCiphers) {
  const auto& reg = CipherRegistry::builtin();
  EXPECT_GE(reg.size(), 4u);
  for (const char* name : {"MHHEA", "MHHEA-sealed", "HHEA", "YAEA-S"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(CipherRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)CipherRegistry::builtin().make("DES", 1), std::invalid_argument);
}

TEST(CipherRegistry, RegistrationValidates) {
  CipherRegistry reg;
  const auto factory = [](std::uint64_t seed) {
    return std::unique_ptr<Cipher>(CipherRegistry::builtin().make("MHHEA", seed));
  };
  EXPECT_THROW(reg.register_cipher("", factory), std::invalid_argument);
  EXPECT_THROW(reg.register_cipher("x", nullptr), std::invalid_argument);
  reg.register_cipher("x", factory);
  EXPECT_THROW(reg.register_cipher("x", factory), std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);
}

class RegisteredCipher : public ::testing::TestWithParam<std::string> {};

TEST_P(RegisteredCipher, RandomizedRoundTrip) {
  util::Xoshiro256 rng(0xC0FFEE);
  for (std::uint64_t seed : {1ull, 0xACE1ull, 0xFEEDFACEull}) {
    const auto cipher = CipherRegistry::builtin().make(GetParam(), seed);
    EXPECT_FALSE(cipher->name().empty());
    EXPECT_GE(cipher->expansion(), 1.0);
    for (std::size_t len : sweep_lengths(rng)) {
      const auto msg = random_message(rng, len);
      const auto ct = cipher->encrypt(msg);
      // The interface promise: ciphertext grows with the declared expansion
      // class (>= 2x for hiding ciphers, == 1x for stream ciphers).
      if (cipher->expansion() >= 2.0) {
        EXPECT_GE(ct.size(), msg.size() * 2) << len;
      } else {
        EXPECT_EQ(ct.size(), msg.size()) << len;
      }
      EXPECT_EQ(cipher->decrypt(ct, msg.size()), msg)
          << GetParam() << " seed=" << seed << " len=" << len;
    }
  }
}

TEST_P(RegisteredCipher, SameSeedSameCiphertext) {
  util::Xoshiro256 rng(7);
  const auto msg = random_message(rng, 257);
  const auto a = CipherRegistry::builtin().make(GetParam(), 42);
  const auto b = CipherRegistry::builtin().make(GetParam(), 42);
  const auto c = CipherRegistry::builtin().make(GetParam(), 43);
  EXPECT_EQ(a->encrypt(msg), b->encrypt(msg));
  EXPECT_NE(a->encrypt(msg), c->encrypt(msg));
  // Repeated calls on one instance are independent and deterministic.
  EXPECT_EQ(a->encrypt(msg), a->encrypt(msg));
}

TEST_P(RegisteredCipher, BatchMatchesSequential) {
  util::Xoshiro256 rng(0xBA7C4);
  std::vector<std::vector<std::uint8_t>> msgs;
  for (int i = 0; i < 64; ++i) msgs.push_back(random_message(rng, rng.below(513)));
  msgs.push_back(random_message(rng, 4096));
  msgs.push_back({});  // empty message rides along

  const auto maker = [&] { return CipherRegistry::builtin().make(GetParam(), 0xACE1); };
  auto sequential_cipher = maker();
  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& m : msgs) expected.push_back(sequential_cipher->encrypt(m));

  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(encrypt_batch(maker, msgs, threads), expected) << threads;
  }

  std::vector<std::size_t> sizes;
  for (const auto& m : msgs) sizes.push_back(m.size());
  for (int threads : {1, 4}) {
    EXPECT_EQ(decrypt_batch(maker, expected, sizes, threads), msgs) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, RegisteredCipher,
                         ::testing::ValuesIn(CipherRegistry::builtin().names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(Batch, EmptyBatchAndDefaultThreads) {
  const auto maker = [] { return CipherRegistry::builtin().make("MHHEA", 1); };
  EXPECT_TRUE(encrypt_batch(maker, {}, 0).empty());
  EXPECT_TRUE(decrypt_batch(maker, {}, {}, 0).empty());
  // n_threads = 0 resolves to hardware concurrency.
  util::Xoshiro256 rng(5);
  const std::vector<std::vector<std::uint8_t>> msgs = {random_message(rng, 100)};
  EXPECT_EQ(encrypt_batch(maker, msgs, 0).size(), 1u);
}

TEST(Batch, InvalidArgumentsThrow) {
  const auto maker = [] { return CipherRegistry::builtin().make("MHHEA", 1); };
  const std::vector<std::vector<std::uint8_t>> one_msg = {{0x42}};
  EXPECT_THROW((void)encrypt_batch(nullptr, one_msg, 1), std::invalid_argument);
  EXPECT_THROW((void)encrypt_batch(maker, one_msg, -2), std::invalid_argument);
  const std::vector<std::size_t> two_sizes = {1, 2};
  EXPECT_THROW((void)decrypt_batch(maker, one_msg, two_sizes, 1), std::invalid_argument);
}

TEST(Batch, NegativeThreadCountSaysWhatItEnforces) {
  // Regression: the error used to claim "n_threads must be >= 0", but 0 is
  // valid (it resolves to hardware concurrency) — the enforced condition is
  // >= 1 after that resolution, and the message must say so.
  const auto maker = [] { return CipherRegistry::builtin().make("MHHEA", 1); };
  const std::vector<std::vector<std::uint8_t>> one_msg = {{0x42}};
  const std::vector<std::size_t> one_size = {1};
  for (int threads : {-1, -7}) {
    try {
      (void)encrypt_batch(maker, one_msg, threads);
      FAIL() << "negative n_threads=" << threads << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(">= 1"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)decrypt_batch(maker, one_msg, one_size, threads),
                 std::invalid_argument);
  }
}

TEST(Batch, WorkerExceptionPropagates) {
  // A cipher that throws mid-batch must surface on the calling thread.
  util::Xoshiro256 rng(9);
  std::vector<std::vector<std::uint8_t>> msgs;
  for (int i = 0; i < 16; ++i) msgs.push_back(random_message(rng, 64));
  const auto maker = [] { return CipherRegistry::builtin().make("MHHEA", 0xACE1); };
  auto cipher = maker();
  auto cts = encrypt_batch(maker, msgs, 2);
  // Truncate every ciphertext so decryption runs out of blocks.
  for (auto& ct : cts) ct.resize(2);
  std::vector<std::size_t> sizes(msgs.size(), 64);
  EXPECT_THROW((void)decrypt_batch(maker, cts, sizes, 2), std::invalid_argument);
  EXPECT_THROW((void)decrypt_batch(maker, cts, sizes, 1), std::invalid_argument);
}

TEST(MhheaCipherAdapter, MatchesCoreOneShot) {
  // The adapter reuses one resettable core, but its bytes must equal the
  // one-shot core helpers — on every call, not just the first.
  util::Xoshiro256 rng(11);
  const auto params = core::BlockParams::paper();
  const core::Key key = core::Key::random(rng, 8, params);
  const auto msg = random_message(rng, 333);
  MhheaCipher cipher(key, 0xACE1, params);
  EXPECT_EQ(cipher.encrypt(msg), core::encrypt(msg, key, 0xACE1, params));
  EXPECT_EQ(cipher.encrypt(msg), core::encrypt(msg, key, 0xACE1, params));
  const auto other = random_message(rng, 100);
  EXPECT_EQ(cipher.encrypt(other), core::encrypt(other, key, 0xACE1, params));
  EXPECT_EQ(cipher.name(), "MHHEA");
  EXPECT_GE(cipher.expansion(), 2.0);
}

TEST(MhheaCipherAdapter, SealedFramingMatchesCoreSealOpen) {
  // The sealed adapter is the core::seal/open container through the Cipher
  // interface — byte-identical framed output.
  util::Xoshiro256 rng(12);
  const auto params = core::BlockParams::hardware();
  const core::Key key = core::Key::random(rng, 8, params);
  const auto msg = random_message(rng, 222);
  MhheaCipher cipher(key, 0xACE1, params, MhheaCipher::Framing::sealed);
  EXPECT_EQ(cipher.name(), "MHHEA-sealed");
  const auto ct = cipher.encrypt(msg);
  EXPECT_EQ(ct, core::seal(msg, key, 0xACE1, params));
  EXPECT_EQ(core::open(ct, key), msg);
  EXPECT_EQ(cipher.decrypt(ct, msg.size()), msg);
}

TEST(MhheaCipherAdapter, SealedRejectsLengthAndHeaderMismatch) {
  util::Xoshiro256 rng(13);
  const auto params = core::BlockParams::hardware();
  const core::Key key = core::Key::random(rng, 4, params);
  const auto msg = random_message(rng, 50);
  MhheaCipher cipher(key, 0xACE1, params, MhheaCipher::Framing::sealed);
  const auto ct = cipher.encrypt(msg);
  // Caller-declared length must agree with the header.
  EXPECT_THROW((void)cipher.decrypt(ct, msg.size() + 1), std::invalid_argument);
  // A raw (headerless) buffer is not a sealed frame.
  MhheaCipher raw(key, 0xACE1, params);
  const auto raw_ct = raw.encrypt(msg);
  EXPECT_THROW((void)cipher.decrypt(raw_ct, msg.size()), std::invalid_argument);
  // A sealed frame whose params disagree with the cipher's configuration.
  MhheaCipher continuous(key, 0xACE1, core::BlockParams::paper(),
                         MhheaCipher::Framing::sealed);
  const auto other_ct = continuous.encrypt(msg);
  EXPECT_THROW((void)cipher.decrypt(other_ct, msg.size()), std::invalid_argument);
}

}  // namespace
}  // namespace mhhea::crypto
