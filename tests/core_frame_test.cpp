// Tests of the self-describing ciphertext container (seal/open) and its
// failure modes.
#include "src/core/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/block.hpp"
#include "src/core/cover.hpp"
#include "src/core/mhhea.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

TEST(Frame, SealOpenRoundTrip) {
  util::Xoshiro256 rng(1);
  const Key key = Key::random(rng, 8);
  for (std::size_t len : {0u, 1u, 5u, 100u}) {
    const auto msg = random_message(rng, len);
    const auto framed = seal(msg, key, 0xACE1);
    EXPECT_EQ(open(framed, key), msg) << len;
  }
}

TEST(Frame, RoundTripAllParamCombos) {
  util::Xoshiro256 rng(2);
  for (int bits : {16, 32, 64}) {
    for (auto policy : {FramePolicy::continuous, FramePolicy::framed}) {
      const BlockParams params{bits, policy};
      const Key key = Key::random(rng, 4, params);
      const auto msg = random_message(rng, 40);
      const auto framed = seal(msg, key, 0x77, params);
      EXPECT_EQ(open(framed, key), msg) << bits;
      // Header survives the trip.
      std::span<const std::uint8_t> payload;
      const FrameHeader h = frame_decode(framed, &payload);
      EXPECT_EQ(h.params, params);
      EXPECT_EQ(h.message_bits, msg.size() * 8);
    }
  }
}

TEST(Frame, HeaderLayoutIsStable) {
  const Key key = Key::parse("0-3");
  const std::vector<std::uint8_t> msg = {0xAA};
  const auto framed = seal(msg, key, 1);
  ASSERT_GE(framed.size(), FrameHeader::kSize);
  EXPECT_EQ(framed[0], 'M');
  EXPECT_EQ(framed[1], 'H');
  EXPECT_EQ(framed[2], 'E');
  EXPECT_EQ(framed[3], 'A');
  EXPECT_EQ(framed[4], 1);    // version
  EXPECT_EQ(framed[8], 8);    // 8 bits, little-endian u64
  EXPECT_EQ(framed[9], 0);
}

TEST(Frame, RejectsBadMagicVersionReserved) {
  const Key key = Key::parse("0-3");
  const std::vector<std::uint8_t> msg = {0x42};
  auto framed = seal(msg, key, 1);

  auto corrupt = framed;
  corrupt[0] = 'X';
  EXPECT_THROW((void)open(corrupt, key), std::invalid_argument);

  corrupt = framed;
  corrupt[4] = 9;
  EXPECT_THROW((void)open(corrupt, key), std::invalid_argument);

  corrupt = framed;
  corrupt[6] = 1;
  EXPECT_THROW((void)open(corrupt, key), std::invalid_argument);
}

TEST(Frame, RejectsShortAndMisalignedBuffers) {
  const Key key = Key::parse("0-3");
  EXPECT_THROW((void)open(std::vector<std::uint8_t>(8, 0), key), std::invalid_argument);
  auto framed = seal(std::vector<std::uint8_t>{0x42}, key, 1);
  framed.push_back(0);  // breaks 2-byte block alignment
  EXPECT_THROW((void)open(framed, key), std::invalid_argument);
}

TEST(Frame, RejectsInconsistentLength) {
  const Key key = Key::parse("0-3");
  auto framed = seal(std::vector<std::uint8_t>{0x42}, key, 1);
  // Claim a message far larger than the payload could carry.
  framed[8] = 0xFF;
  framed[9] = 0xFF;
  EXPECT_THROW((void)open(framed, key), std::invalid_argument);
  // Claim zero bits while blocks are present.
  framed[8] = 0;
  framed[9] = 0;
  EXPECT_THROW((void)open(framed, key), std::invalid_argument);
}

TEST(Frame, RejectsReservedFlagBits) {
  // Bits 7..3 of the flags byte are reserved-zero; a parser that ignores
  // them would silently accept frames a future version means differently.
  const Key key = Key::parse("0-3");
  const auto framed = seal(std::vector<std::uint8_t>{0x42}, key, 1);
  for (int bit = 3; bit < 8; ++bit) {
    auto corrupt = framed;
    corrupt[5] = static_cast<std::uint8_t>(corrupt[5] | (1u << bit));
    EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument) << bit;
  }
}

TEST(Frame, RejectsBadVectorSizeCode) {
  const Key key = Key::parse("0-3");
  auto framed = seal(std::vector<std::uint8_t>{0x42}, key, 1);
  framed[5] = static_cast<std::uint8_t>((framed[5] & ~0x06) | (0x3 << 1));  // code 3
  EXPECT_THROW((void)frame_decode(framed, nullptr), std::invalid_argument);
}

TEST(Frame, MalformedHeaderFuzz) {
  // Systematic malformation sweep: every single-byte corruption of a
  // strictly structural header byte (magic, version, reserved) must throw.
  // Byte 5 (flags) is covered separately — its low bits encode legitimate
  // parameter variation.
  util::Xoshiro256 rng(17);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 33);
  const auto framed = seal(msg, key, 0xACE1);
  for (std::size_t pos : {0u, 1u, 2u, 3u, 4u, 6u, 7u}) {
    for (int delta = 1; delta < 256; ++delta) {
      auto corrupt = framed;
      corrupt[pos] = static_cast<std::uint8_t>(corrupt[pos] ^ delta);
      if (pos == 4 && corrupt[4] == 2) {
        // Version 2 is a valid wire version: this payload is long enough to
        // parse structurally as v2, but the keyless open must reject it —
        // decrypting a v2 container without MAC verification would defeat
        // the authenticated format.
        EXPECT_THROW((void)open(corrupt, key), std::invalid_argument);
        continue;
      }
      EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument)
          << "pos=" << pos << " delta=" << delta;
    }
  }
}

TEST(Frame, TruncatedHeaderFuzz) {
  // Every prefix shorter than the 16-byte header must be rejected, not read
  // out of bounds or misparsed.
  util::Xoshiro256 rng(18);
  const Key key = Key::random(rng, 4);
  const auto framed = seal(random_message(rng, 20), key, 0xACE1);
  for (std::size_t len = 0; len < FrameHeader::kSize; ++len) {
    const std::vector<std::uint8_t> prefix(framed.begin(),
                                           framed.begin() + static_cast<long>(len));
    EXPECT_THROW((void)frame_decode(prefix, nullptr), std::invalid_argument) << len;
  }
}

TEST(Frame, LengthFieldFuzz) {
  // Randomly perturbed message-length fields must never round-trip: either
  // the header bounds check, the trailing-block check or the
  // too-short check fires.
  util::Xoshiro256 rng(19);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 40);
  const auto framed = seal(msg, key, 0xACE1);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupt = framed;
    const std::uint64_t bogus = rng.next();
    for (int i = 0; i < 8; ++i) {
      corrupt[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((bogus >> (8 * i)) & 0xFF);
    }
    if (bogus == msg.size() * 8) continue;  // astronomically unlikely
    EXPECT_THROW((void)open(corrupt, key), std::invalid_argument) << bogus;
  }
}

TEST(Frame, TruncatedPayloadThrows) {
  util::Xoshiro256 rng(3);
  const Key key = Key::random(rng, 4);
  const auto msg = random_message(rng, 50);
  auto framed = seal(msg, key, 0xACE1);
  framed.resize(framed.size() - 2);  // drop the last block, keep alignment
  EXPECT_THROW((void)open(framed, key), std::invalid_argument);
}

// A structurally valid v2 container shell: 24-byte header + `body` zero
// blocks + 16-byte (unverified here — frame_decode is keyless) MAC trailer.
std::vector<std::uint8_t> v2_shell(std::uint64_t message_bits, std::size_t body,
                                   std::uint64_t nonce) {
  FrameHeader h;
  h.version = 2;
  h.nonce = nonce;
  h.message_bits = message_bits;
  std::vector<std::uint8_t> buf(FrameHeader::kSizeV2 + body + FrameHeader::kMacBytesV2);
  frame_encode_header(h, buf);
  return buf;
}

TEST(FrameV2, HeaderRoundTrip) {
  const auto buf = v2_shell(/*message_bits=*/16, /*body=*/8, /*nonce=*/0x0123456789ABCDEF);
  std::span<const std::uint8_t> payload;
  const FrameHeader h = frame_decode(buf, &payload);
  EXPECT_EQ(h.version, 2);
  EXPECT_EQ(h.nonce, 0x0123456789ABCDEFu);
  EXPECT_EQ(h.message_bits, 16u);
  EXPECT_EQ(payload.size(), 8u);  // the MAC trailer is not part of the payload
  EXPECT_EQ(payload.data(), buf.data() + FrameHeader::kSizeV2);
}

TEST(FrameV2, LayoutIsStable) {
  const auto buf = v2_shell(16, 8, 0xAABBCCDDEEFF0011);
  EXPECT_EQ(buf[4], 2);     // version
  EXPECT_EQ(buf[8], 16);    // message bits, little-endian u64
  EXPECT_EQ(buf[16], 0x11); // nonce, little-endian u64 at offset 16
  EXPECT_EQ(buf[17], 0x00);
  EXPECT_EQ(buf[18], 0xFF);
  EXPECT_EQ(buf[23], 0xAA);
}

TEST(FrameV2, RejectsBufferShorterThanOverhead) {
  // Everything from empty up to one byte short of header+MAC must throw —
  // there is no valid v2 container below kOverheadV2 bytes.
  const auto buf = v2_shell(16, 8, 7);
  for (std::size_t len = 0; len < FrameHeader::kOverheadV2; ++len) {
    const std::vector<std::uint8_t> prefix(buf.begin(),
                                           buf.begin() + static_cast<long>(len));
    EXPECT_THROW((void)frame_decode(prefix, nullptr), std::invalid_argument) << len;
  }
}

TEST(FrameV2, StructuralChecksStillApply) {
  // The v1 structural sweep (reserved bits/bytes, vector code, alignment,
  // length bounds) applies unchanged to v2 buffers.
  auto corrupt = v2_shell(16, 8, 7);
  corrupt[6] = 1;
  EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument);
  corrupt = v2_shell(16, 8, 7);
  corrupt[5] |= 0x08;
  EXPECT_THROW((void)frame_decode(corrupt, nullptr), std::invalid_argument);
  // Misaligned body: one extra byte between blocks and MAC.
  auto misaligned = v2_shell(16, 9, 7);
  EXPECT_THROW((void)frame_decode(misaligned, nullptr), std::invalid_argument);
  // Length bounds: more message bits than the blocks can carry.
  auto bogus = v2_shell(16 * 64, 8, 7);
  EXPECT_THROW((void)frame_decode(bogus, nullptr), std::invalid_argument);
}

TEST(FrameV2, CoreOpenRejectsV2) {
  // The keyless convenience open never decrypts v2 — it cannot verify the
  // MAC, and returning unauthenticated plaintext is the bug this format
  // exists to fix.
  const Key key = Key::parse("0-3");
  const auto buf = v2_shell(16, 8, 7);
  EXPECT_THROW((void)open(buf, key), std::invalid_argument);
}

TEST(FrameV2, EncodeRejectsBadVersionAndV1Nonce) {
  FrameHeader h;
  h.version = 3;
  std::vector<std::uint8_t> buf(FrameHeader::kSizeV2);
  EXPECT_THROW(frame_encode_header(h, buf), std::invalid_argument);
  h.version = 1;
  h.nonce = 5;  // v1 has no nonce field to carry it
  EXPECT_THROW(frame_encode_header(h, buf), std::invalid_argument);
}

TEST(Frame, ExceptionTypeConvention) {
  // Pin the error-type convention across encode/decode: malformed *input* is
  // std::invalid_argument; an *output* buffer too small for the request is
  // std::length_error. (Regression guard — the two were at risk of drifting
  // as v2 added paths.)
  FrameHeader h;
  std::vector<std::uint8_t> small(FrameHeader::kSize - 1);
  EXPECT_THROW(frame_encode_header(h, small), std::length_error);
  h.version = 2;
  std::vector<std::uint8_t> small2(FrameHeader::kSizeV2 - 1);
  EXPECT_THROW(frame_encode_header(h, small2), std::length_error);
  EXPECT_THROW((void)frame_decode(small, nullptr), std::invalid_argument);
}

TEST(Frame, OpenZeroesSlackBits) {
  // A message whose bit length is not a whole number of bytes: the slack
  // bits past message_bits in the final byte must come back zero even when
  // every fed bit was 1 (open() must not leak stale high bits).
  util::Xoshiro256 rng(23);
  const Key key = Key::random(rng, 4);
  // The byte-oriented encryptors only take whole bytes, so the 13 one-bits
  // are embedded here block by block with the per-block transform.
  LfsrCover cover(BlockParams::paper().vector_bits, 0xACE1);
  std::vector<std::uint8_t> ct;
  std::uint64_t word = 0x1FFF;
  int remaining = 13;
  for (int i = 0; remaining > 0; ++i) {
    const KeyPair& pair = key.pair(i % key.size());
    const std::uint64_t v = cover.next_block(16);
    const ScrambledRange r = scramble_range(v, pair);
    const int w = std::min(r.width(), remaining);
    const std::uint64_t block = embed_bits(v, r, pair, word, w);
    ct.push_back(static_cast<std::uint8_t>(block & 0xFF));
    ct.push_back(static_cast<std::uint8_t>(block >> 8));
    word >>= w;
    remaining -= w;
  }
  FrameHeader h;
  h.message_bits = 13;
  const auto framed = frame_encode(h, ct);
  const auto msg = open(framed, key);
  ASSERT_EQ(msg.size(), 2u);
  EXPECT_EQ(msg[0], 0xFF);
  EXPECT_EQ(msg[1] & 0x1F, 0x1F);  // the 5 real bits survive
  EXPECT_EQ(msg[1] & 0xE0, 0);     // the 3 slack bits are zero
}

}  // namespace
}  // namespace mhhea::core
