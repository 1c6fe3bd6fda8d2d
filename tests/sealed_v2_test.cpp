// Sealed format v2 tamper matrix: every header byte, every MAC byte, sampled
// ciphertext bits, truncation at every boundary, and v1/v2 cross-version
// confusion — each rejected with a typed error before any decryption, never
// surfacing garbage plaintext.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/util/rng.hpp"

namespace mhhea::crypto {
namespace {

using core::FrameHeader;

struct V2Fixture {
  core::BlockParams params = core::BlockParams::hardware();
  core::Key key;
  MhheaCipher cipher;
  std::vector<std::uint8_t> msg;
  std::vector<std::uint8_t> sealed;

  V2Fixture()
      : key(make_key(params)),
        cipher(key, 0xACE1, params, MhheaCipher::Framing::sealed_v2) {
    util::Xoshiro256 rng(0x7a39);
    msg.resize(96);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
    sealed = cipher.encrypt(msg);  // seals under nonce 0
  }

  static core::Key make_key(const core::BlockParams& params) {
    util::Xoshiro256 rng(0x11d7);
    return core::Key::random(rng, 8, params);
  }

  // Opening must fail with `E` and must not touch the output buffer.
  template <typename E>
  void expect_rejected(const std::vector<std::uint8_t>& container,
                       const std::string& what) {
    std::vector<std::uint8_t> out(msg.size(), 0xCD);
    EXPECT_THROW((void)cipher.decrypt_into(container, msg.size(), out), E) << what;
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](std::uint8_t b) { return b == 0xCD; }))
        << what << ": output buffer written despite rejection";
  }
};

TEST(SealedV2, RoundTripThroughCipherInterface) {
  V2Fixture fx;
  // encrypt() is a bound-sized seal under nonce 0 shrunk to the container:
  // an exact-fit seal_v2_into reproduces it, one byte less cannot hold it.
  std::vector<std::uint8_t> exact(fx.sealed.size());
  ASSERT_EQ(fx.cipher.seal_v2_into(fx.msg, 0, exact), exact.size());
  EXPECT_EQ(exact, fx.sealed);
  exact.pop_back();
  EXPECT_THROW((void)fx.cipher.seal_v2_into(fx.msg, 0, exact), std::length_error);
  ASSERT_GE(fx.sealed.size(), FrameHeader::kOverheadV2);
  const FrameHeader h = core::frame_decode(fx.sealed, nullptr);
  EXPECT_EQ(h.version, 2);
  EXPECT_EQ(h.nonce, 0u);
  EXPECT_EQ(h.message_bits, static_cast<std::uint64_t>(fx.msg.size()) * 8);
  EXPECT_EQ(fx.cipher.decrypt(fx.sealed, fx.msg.size()), fx.msg);
}

TEST(SealedV2, ExplicitNonceRoundTrip) {
  V2Fixture fx;
  for (std::uint64_t nonce : {std::uint64_t{1}, std::uint64_t{77},
                              std::uint64_t{0xFFFFFFFFFFFFFFFFULL}}) {
    std::vector<std::uint8_t> out(fx.cipher.max_ciphertext_size(fx.msg.size()));
    out.resize(fx.cipher.seal_v2_into(fx.msg, nonce, out));
    const auto opened = fx.cipher.open_v2_authenticate(out);
    EXPECT_EQ(opened.header.nonce, nonce);
    std::vector<std::uint8_t> back(fx.msg.size());
    ASSERT_EQ(fx.cipher.decrypt_v2_payload(opened, back), fx.msg.size());
    EXPECT_EQ(back, fx.msg);
  }
}

TEST(SealedV2, EveryHeaderBitFlipIsRejected) {
  V2Fixture fx;
  for (std::size_t byte = 0; byte < FrameHeader::kSizeV2; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto t = fx.sealed;
      t[byte] ^= static_cast<std::uint8_t>(1u << bit);
      fx.expect_rejected<std::invalid_argument>(
          t, "header byte " + std::to_string(byte) + " bit " + std::to_string(bit));
    }
  }
}

TEST(SealedV2, NonceTamperFailsTheMacSpecifically) {
  // Bytes 16..23 are structurally unconstrained, so a flipped nonce must be
  // caught by the MAC itself, not by header validation.
  V2Fixture fx;
  for (std::size_t byte = FrameHeader::kSize; byte < FrameHeader::kSizeV2; ++byte) {
    auto t = fx.sealed;
    t[byte] ^= 0x01;
    fx.expect_rejected<MacError>(t, "nonce byte " + std::to_string(byte));
  }
}

TEST(SealedV2, EveryMacBitFlipIsRejected) {
  V2Fixture fx;
  const std::size_t tag_at = fx.sealed.size() - FrameHeader::kMacBytesV2;
  for (std::size_t byte = 0; byte < FrameHeader::kMacBytesV2; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto t = fx.sealed;
      t[tag_at + byte] ^= static_cast<std::uint8_t>(1u << bit);
      fx.expect_rejected<MacError>(
          t, "MAC byte " + std::to_string(byte) + " bit " + std::to_string(bit));
    }
  }
}

TEST(SealedV2, SampledCiphertextBitFlipsAreRejected) {
  // One rotating bit position per ciphertext byte, plus all eight bits of the
  // first and last payload bytes.
  V2Fixture fx;
  const std::size_t begin = FrameHeader::kSizeV2;
  const std::size_t end = fx.sealed.size() - FrameHeader::kMacBytesV2;
  ASSERT_GT(end, begin);
  for (std::size_t byte = begin; byte < end; ++byte) {
    auto t = fx.sealed;
    t[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
    fx.expect_rejected<MacError>(t, "ciphertext byte " + std::to_string(byte));
  }
  for (std::size_t byte : {begin, end - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      auto t = fx.sealed;
      t[byte] ^= static_cast<std::uint8_t>(1u << bit);
      fx.expect_rejected<MacError>(
          t, "ciphertext byte " + std::to_string(byte) + " bit " + std::to_string(bit));
    }
  }
}

TEST(SealedV2, TruncationAtEveryBoundaryIsRejected) {
  V2Fixture fx;
  for (std::size_t len = 0; len < fx.sealed.size(); ++len) {
    std::vector<std::uint8_t> t(fx.sealed.begin(),
                                fx.sealed.begin() + static_cast<std::ptrdiff_t>(len));
    fx.expect_rejected<std::invalid_argument>(t, "truncated to " + std::to_string(len));
  }
  // Trailing garbage is a malformation too, not extra ciphertext.
  auto t = fx.sealed;
  t.push_back(0x00);
  fx.expect_rejected<std::invalid_argument>(t, "one trailing byte");
}

TEST(SealedV2, CrossVersionConfusionIsRejected) {
  V2Fixture fx;
  MhheaCipher v1(fx.key, 0xBEEF, fx.params, MhheaCipher::Framing::sealed);
  const auto sealed_v1 = v1.encrypt(fx.msg);
  ASSERT_EQ(core::frame_decode(sealed_v1, nullptr).version, 1);
  // A v1-sealed container fed to the v2 cipher: structural version mismatch.
  fx.expect_rejected<std::invalid_argument>(sealed_v1, "v1 container, v2 cipher");
  EXPECT_THROW((void)fx.cipher.open_v2_authenticate(sealed_v1), std::invalid_argument);
  // A v2 container fed to the v1 cipher must not be opened unauthenticated.
  std::vector<std::uint8_t> out(fx.msg.size(), 0xCD);
  EXPECT_THROW((void)v1.decrypt_into(fx.sealed, fx.msg.size(), out),
               std::invalid_argument);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint8_t b) { return b == 0xCD; }));
  // And the keyless core::open refuses v2 outright.
  EXPECT_THROW((void)core::open(fx.sealed, fx.key), std::invalid_argument);
}

TEST(SealedV2, WrongScheduleFailsTheMac) {
  // Same hiding key, different master secret: parsing succeeds, the MAC does
  // not — there is no unauthenticated decryption path to fall through to.
  V2Fixture fx;
  MhheaCipher other(fx.key, 0xACE2, fx.params, MhheaCipher::Framing::sealed_v2);
  std::vector<std::uint8_t> out(fx.msg.size(), 0xCD);
  EXPECT_THROW((void)other.decrypt_into(fx.sealed, fx.msg.size(), out), MacError);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint8_t b) { return b == 0xCD; }));
}

TEST(SealedV2, DeclaredLengthMustMatchHeader) {
  V2Fixture fx;
  std::vector<std::uint8_t> out(fx.msg.size() + 1, 0xCD);
  EXPECT_THROW((void)fx.cipher.decrypt_into(fx.sealed, fx.msg.size() + 1, out),
               std::invalid_argument);
  EXPECT_THROW((void)fx.cipher.decrypt_into(fx.sealed, fx.msg.size() - 1, out),
               std::invalid_argument);
}

TEST(SealedV2, V2EntryPointsRequireV2Framing) {
  V2Fixture fx;
  MhheaCipher raw(fx.key, 0xBEEF, fx.params, MhheaCipher::Framing::raw);
  std::vector<std::uint8_t> out(raw.max_ciphertext_size(fx.msg.size()));
  EXPECT_THROW((void)raw.seal_v2_into(fx.msg, 1, out), std::logic_error);
  EXPECT_THROW((void)raw.open_v2_authenticate(fx.sealed), std::logic_error);
}

TEST(SealedV2, DistinctNoncesDistinctKeystream) {
  V2Fixture fx;
  std::vector<std::uint8_t> a(fx.cipher.max_ciphertext_size(fx.msg.size()));
  a.resize(fx.cipher.seal_v2_into(fx.msg, 5, a));
  std::vector<std::uint8_t> b(fx.cipher.max_ciphertext_size(fx.msg.size()));
  b.resize(fx.cipher.seal_v2_into(fx.msg, 6, b));
  std::span<const std::uint8_t> p1, p2;
  (void)core::frame_decode(a, &p1);
  (void)core::frame_decode(b, &p2);
  const bool same = p1.size() == p2.size() &&
                    std::equal(p1.begin(), p1.end(), p2.begin());
  EXPECT_FALSE(same);
}

}  // namespace
}  // namespace mhhea::crypto
