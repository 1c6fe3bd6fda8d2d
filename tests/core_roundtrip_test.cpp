// End-to-end encrypt/decrypt properties of the MHHEA library: round-trips
// across policies, vector sizes, key sizes and message lengths; nonce
// independence; steganography mode; failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

using Case = std::tuple<int /*vector_bits*/, FramePolicy, int /*key pairs*/, int /*msg len*/>;

class RoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(RoundTrip, DecryptRecoversMessage) {
  const auto [bits, policy, n_pairs, msg_len] = GetParam();
  const BlockParams params{bits, policy};
  util::Xoshiro256 rng(static_cast<std::uint64_t>(bits) * 1000003 +
                       static_cast<std::uint64_t>(n_pairs) * 131 +
                       static_cast<std::uint64_t>(msg_len));
  const Key key = Key::random(rng, n_pairs, params);
  const auto msg = random_message(rng, static_cast<std::size_t>(msg_len));
  const std::uint64_t seed = 0xACE1;

  const auto cipher = encrypt(msg, key, seed, params);
  // Expansion: every block carries at least 1 and at most half() bits.
  if (!msg.empty()) {
    EXPECT_GE(cipher.size(), msg.size() * 2u);
  }
  const auto back = decrypt(cipher, key, msg.size(), params);
  EXPECT_EQ(back, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTrip,
    ::testing::Combine(::testing::Values(16, 32, 64),
                       ::testing::Values(FramePolicy::continuous, FramePolicy::framed),
                       ::testing::Values(1, 2, 16),
                       ::testing::Values(0, 1, 2, 3, 4, 15, 16, 17, 64, 1000)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "N" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == FramePolicy::continuous ? "Cont" : "Framed") +
             "K" + std::to_string(std::get<2>(info.param)) + "Len" +
             std::to_string(std::get<3>(info.param));
    });

// Every tail of the word-wide message load and of the decrypt accumulator:
// short and near-256-byte messages round-trip through heap buffers sized
// exactly — the message for encrypt, the ciphertext itself and
// ceil(bits / 8) bytes for decrypt — so the sanitizer build flags any read
// or write past a buffer end.
template <class Window>
void round_trip_exact_buffers(const BlockParams& params) {
  util::Xoshiro256 rng(0x7A11 + static_cast<std::uint64_t>(params.vector_bits));
  const Key key = Key::random(rng, 5, params);
  BlockEncryptor<Window> enc(key, make_lfsr_cover(params.vector_bits, 0xACE1), params);
  BlockDecryptor<Window> dec(key, 0, params);
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 24; ++len) lens.push_back(len);
  for (const std::size_t len : {255, 256, 257}) lens.push_back(len);
  for (const std::size_t len : lens) {
    const std::vector<std::uint8_t> msg = random_message(rng, len);
    std::vector<std::uint8_t> bound(enc.max_cipher_bytes(static_cast<std::uint64_t>(len) * 8));
    const std::size_t n = enc.encrypt_into(msg, bound);
    std::vector<std::uint8_t> ct(n);
    ASSERT_EQ(enc.encrypt_into(msg, ct), n) << "len " << len;
    EXPECT_TRUE(std::equal(ct.begin(), ct.end(), bound.begin())) << "len " << len;
    std::vector<std::uint8_t> out((len * 8 + 7) / 8);
    ASSERT_EQ(dec.decrypt_into(ct, static_cast<std::uint64_t>(len) * 8, out), len);
    EXPECT_EQ(out, msg) << "len " << len;
  }
}

class ExactBuffers : public ::testing::TestWithParam<BlockParams> {};

TEST_P(ExactBuffers, ScrambledWindowRoundTripsEveryTail) {
  round_trip_exact_buffers<ScrambledWindow>(GetParam());
}

TEST_P(ExactBuffers, FixedWindowRoundTripsEveryTail) {
  round_trip_exact_buffers<FixedWindow>(GetParam());
}

/// The five block geometries of the reference-model sweep.
INSTANTIATE_TEST_SUITE_P(Params, ExactBuffers,
                         ::testing::Values(BlockParams::paper(), BlockParams::hardware(),
                                           BlockParams{32, FramePolicy::continuous},
                                           BlockParams{32, FramePolicy::framed},
                                           BlockParams{64, FramePolicy::framed}),
                         [](const ::testing::TestParamInfo<BlockParams>& info) {
                           std::string name = "v";
                           name += std::to_string(info.param.vector_bits);
                           name += info.param.policy == FramePolicy::framed ? "_framed"
                                                                            : "_continuous";
                           return name;
                         });

TEST(RoundTripEdge, EmptyMessageProducesNoBlocks) {
  const Key key = Key::parse("0-3");
  const auto cipher = encrypt({}, key, 1);
  EXPECT_TRUE(cipher.empty());
  EXPECT_TRUE(decrypt(cipher, key, 0).empty());
}

TEST(RoundTripEdge, DecryptDoesNotNeedTheSeed) {
  // The seed is a nonce: Decryptor is constructed from key + length only.
  util::Xoshiro256 rng(5);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  for (std::uint64_t seed : {0x1ull, 0xACE1ull, 0xFFFFull, 0x1234ull}) {
    const auto cipher = encrypt(msg, key, seed);
    EXPECT_EQ(decrypt(cipher, key, msg.size()), msg) << seed;
  }
}

TEST(RoundTripEdge, DifferentSeedsGiveDifferentCiphertext) {
  util::Xoshiro256 rng(6);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  EXPECT_NE(encrypt(msg, key, 0x1111), encrypt(msg, key, 0x2222));
}

TEST(RoundTripEdge, SameInputsAreDeterministic) {
  util::Xoshiro256 rng(7);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  EXPECT_EQ(encrypt(msg, key, 0xBEEF), encrypt(msg, key, 0xBEEF));
}

TEST(RoundTripEdge, WrongKeyGarblesMessage) {
  util::Xoshiro256 rng(8);
  const Key key = Key::parse("0-3,2-5,7-1,4-4");
  const Key wrong = Key::parse("1-3,2-5,7-1,4-4");
  const auto msg = random_message(rng, 256);
  const auto cipher = encrypt(msg, key, 0xACE1);
  // Wrong key may even misparse block widths; any path must NOT yield msg.
  try {
    const auto back = decrypt(cipher, wrong, msg.size());
    EXPECT_NE(back, msg);
  } catch (const std::invalid_argument&) {
    SUCCEED();  // ran out of blocks — also an acceptable failure mode
  }
}

TEST(RoundTripEdge, TruncatedCiphertextThrows) {
  util::Xoshiro256 rng(9);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 64);
  auto cipher = encrypt(msg, key, 0xACE1);
  cipher.resize(cipher.size() / 2);
  cipher.resize(cipher.size() & ~std::size_t{1});  // keep block alignment
  EXPECT_THROW((void)decrypt(cipher, key, msg.size()), std::invalid_argument);
}

TEST(RoundTripEdge, MisalignedCiphertextThrows) {
  const Key key = Key::parse("0-3");
  std::vector<std::uint8_t> cipher(3, 0);  // not a multiple of block_bytes
  EXPECT_THROW((void)decrypt(cipher, key, 1), std::invalid_argument);
}

TEST(RoundTripEdge, PolicyMismatchCorruptsBeyondFirstFrame) {
  // Continuous vs framed differ once a frame boundary truncates a block, so
  // decrypting framed ciphertext with continuous accounting must diverge for
  // messages long enough to cross a frame.
  util::Xoshiro256 rng(10);
  const Key key = Key::parse("0-7");  // wide pair: blocks usually carry >4 bits
  const auto msg = random_message(rng, 64);
  const BlockParams framed{16, FramePolicy::framed};
  const BlockParams cont{16, FramePolicy::continuous};
  const auto cipher = encrypt(msg, key, 0xACE1, framed);
  bool diverged = false;
  try {
    diverged = decrypt(cipher, key, msg.size(), cont) != msg;
  } catch (const std::invalid_argument&) {
    diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Steganography, BufferCoverRoundTrip) {
  // Stego mode: hide the message in "multimedia" cover blocks, recover it
  // with the key alone (the receiver never needs the cover).
  util::Xoshiro256 rng(11);
  const Key key = Key::parse("0-3,2-5");
  const auto msg = random_message(rng, 32);
  std::vector<std::uint64_t> cover_blocks(1000);
  for (auto& b : cover_blocks) b = rng.below(0x10000);

  Encryptor enc(key, std::make_unique<BufferCover>(cover_blocks));
  std::vector<std::uint8_t> ct(enc.max_cipher_bytes(msg.size() * 8));
  ct.resize(enc.encrypt_into(msg, ct));
  // Every stego block differs from its cover only in the low byte.
  for (std::size_t i = 0; i < ct.size() / 2; ++i) {
    EXPECT_EQ(ct[2 * i + 1], cover_blocks[i] >> 8) << i;
  }
  Decryptor dec(key, 0);
  std::vector<std::uint8_t> back(msg.size());
  ASSERT_EQ(dec.decrypt_into(ct, msg.size() * 8, back), msg.size());
  EXPECT_EQ(back, msg);
}

TEST(Steganography, ExhaustedCoverThrows) {
  const Key key = Key::parse("0-0");  // 1 bit per block: needs many blocks
  std::vector<std::uint64_t> tiny_cover = {0xAAAA, 0xBBBB};
  Encryptor enc(key, std::make_unique<BufferCover>(tiny_cover));
  const std::vector<std::uint8_t> msg(16, 0xFF);
  std::vector<std::uint8_t> out(msg.size() * 8 * 2);  // room for every block
  EXPECT_THROW((void)enc.encrypt_into(msg, out), std::runtime_error);
}

TEST(Encryptor, RejectsBadConstruction) {
  const Key key = Key::parse("0-3");
  EXPECT_THROW(Encryptor(key, nullptr), std::invalid_argument);
  // Key valid for N=32 but not for N=16.
  const BlockParams p32{32, FramePolicy::continuous};
  const Key wide = Key::parse("0-12", p32);
  EXPECT_THROW(Encryptor(wide, make_lfsr_cover(16, 1), BlockParams::paper()),
               std::invalid_argument);
}

TEST(Encryptor, ResetReplaysTheSameStream) {
  // A reused core rewinds its cover on every call, so repeated encryptions
  // of different messages are bit-identical to fresh construction each
  // time, in both framing policies — including after a message that ended
  // mid-frame.
  util::Xoshiro256 rng(14);
  const Key key = Key::random(rng, 8);
  for (auto policy : {FramePolicy::continuous, FramePolicy::framed}) {
    const BlockParams params{16, policy};
    Encryptor reused(key, make_lfsr_cover(16, 0xACE1), params);
    for (std::size_t len : {5u, 96u, 1u, 0u, 3u, 41u, 333u}) {
      const auto msg = random_message(rng, len);
      std::vector<std::uint8_t> got(reused.max_cipher_bytes(len * 8));
      got.resize(reused.encrypt_into(msg, got));
      EXPECT_EQ(got, encrypt(msg, key, 0xACE1, params)) << len;
    }
  }
}

TEST(Encryptor, ResetRewindsBufferCover) {
  // Steganography mode: every call must restart from the first cover block.
  util::Xoshiro256 rng(15);
  const Key key = Key::parse("0-3,2-5");
  std::vector<std::uint64_t> cover_blocks(300);
  for (auto& b : cover_blocks) b = rng.below(0x10000);
  const auto msg = random_message(rng, 16);
  Encryptor enc(key, std::make_unique<BufferCover>(cover_blocks));
  std::vector<std::uint8_t> first(enc.max_cipher_bytes(msg.size() * 8));
  first.resize(enc.encrypt_into(msg, first));
  std::vector<std::uint8_t> again(first.size());
  ASSERT_EQ(enc.encrypt_into(msg, again), again.size());
  EXPECT_EQ(again, first);
}

TEST(Decryptor, ResetDecodesANewMessageLength) {
  util::Xoshiro256 rng(17);
  const Key key = Key::random(rng, 8);
  Decryptor dec(key, 0);
  for (std::size_t len : {64u, 3u, 0u, 200u}) {
    const auto msg = random_message(rng, len);
    const auto ct = encrypt(msg, key, 0xBEEF);
    std::vector<std::uint8_t> back(len);
    ASSERT_EQ(dec.decrypt_into(ct, len * 8, back), len) << len;
    EXPECT_EQ(back, msg) << len;
  }
}

}  // namespace
}  // namespace mhhea::core
