// Pins the repo-wide error-type convention at every public entry point:
//
//   * std::length_error  — the caller's output buffer is too small; the
//     message says so ("output buffer ... too small"), and the input was
//     never the problem. Retry with a bigger buffer.
//   * std::invalid_argument — the *input* is malformed (truncated, misaligned,
//     wrong header, bad parameters). MacError and ReplayError derive from it,
//     so a generic reject-on-invalid_argument handler is always safe, while
//     authentication-aware callers can still distinguish forgery from replay.
//
// tools/lint.py enforces the same convention statically at throw sites; this
// suite enforces it dynamically across every registry cipher's encrypt_into /
// decrypt_into, the sealed-v2 entry points, the frame codec, and Session.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/session.hpp"

namespace {

using namespace mhhea;

// The message convention tools/lint.py checks statically: length_error must
// name the buffer, invalid_argument must not masquerade as a buffer problem.
bool bufferish(std::string_view what) {
  return what.find("output buffer") != std::string_view::npos ||
         what.find("buffer too small") != std::string_view::npos;
}

template <typename Fn>
void expect_length_error(Fn&& fn, const std::string& ctx) {
  try {
    std::forward<Fn>(fn)();
    ADD_FAILURE() << ctx << ": expected std::length_error, nothing thrown";
  } catch (const std::length_error& e) {
    EXPECT_TRUE(bufferish(e.what()))
        << ctx << ": length_error message must name the output buffer, got: " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << ctx << ": expected std::length_error, got " << typeid(e).name() << ": "
                  << e.what();
  }
}

template <typename Fn>
void expect_invalid_argument(Fn&& fn, const std::string& ctx) {
  try {
    std::forward<Fn>(fn)();
    ADD_FAILURE() << ctx << ": expected std::invalid_argument, nothing thrown";
  } catch (const std::length_error& e) {
    // Sibling of invalid_argument under logic_error — reaching here means a
    // malformed *input* was misreported as a buffer problem.
    ADD_FAILURE() << ctx << ": malformed input reported as std::length_error: " << e.what();
  } catch (const std::invalid_argument& e) {
    EXPECT_FALSE(bufferish(e.what()))
        << ctx << ": invalid_argument must not claim a buffer problem, got: " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << ctx << ": expected std::invalid_argument, got " << typeid(e).name() << ": "
                  << e.what();
  }
}

std::vector<std::uint8_t> test_message(std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  std::iota(msg.begin(), msg.end(), std::uint8_t{1});
  return msg;
}

// ---------------------------------------------------------------------------
// Every registry cipher, both datapath directions.

TEST(ErrorConvention, RegistrySweepEncryptAndDecryptInto) {
  const auto& reg = crypto::CipherRegistry::builtin();
  const auto msg = test_message(96);
  for (const auto& name : reg.names()) {
    SCOPED_TRACE(name);
    auto cipher = reg.make(name, /*seed=*/0xfeedfaceULL);

    // The exact size is what a control encrypt_into reports into a
    // bound-sized buffer; an exact-fit buffer must then succeed too.
    std::vector<std::uint8_t> ct(cipher->max_ciphertext_size(msg.size()));
    const std::size_t need = cipher->encrypt_into(msg, ct);
    ct.resize(need);
    ASSERT_EQ(cipher->encrypt_into(msg, ct), need) << "exact-fit encryption failed";

    // Short output buffer, encrypt side.
    expect_length_error(
        [&] { (void)cipher->encrypt_into(msg, std::span(ct).first(need - 1)); },
        name + ": encrypt_into short out");

    // Short output buffer, decrypt side (ciphertext itself is pristine).
    std::vector<std::uint8_t> out(msg.size());
    expect_length_error(
        [&] { (void)cipher->decrypt_into(ct, msg.size(), std::span(out).first(msg.size() - 1)); },
        name + ": decrypt_into short out");

    // Truncated ciphertext is malformed input, never a buffer problem.
    expect_invalid_argument(
        [&] { (void)cipher->decrypt_into(std::span(ct).first(need - 1), msg.size(), out); },
        name + ": decrypt_into truncated ciphertext");

    // Control: the pristine path still round-trips after the failures above.
    ASSERT_EQ(cipher->decrypt_into(ct, msg.size(), out), msg.size());
    EXPECT_EQ(out, msg);
  }
}

TEST(ErrorConvention, RegistryConstructionErrors) {
  const auto& reg = crypto::CipherRegistry::builtin();
  expect_invalid_argument([&] { (void)reg.make("no-such-cipher", 1); },
                          "registry: unknown name");
}

// ---------------------------------------------------------------------------
// Sealed-v2 explicit entry points.

class SealedV2Errors : public ::testing::Test {
 protected:
  crypto::MhheaCipher cipher_{core::Key::parse("1-6,2-5,3-7,0-4"),
                              crypto::V2KeySchedule::derive(0x77ULL),
                              core::BlockParams::paper(),
                              crypto::MhheaCipher::Framing::sealed_v2};
  std::vector<std::uint8_t> msg_ = test_message(64);
  std::uint64_t nonce_ = 9;

  // A control seal into a bound-sized buffer, shrunk to the container.
  std::vector<std::uint8_t> seal() {
    std::vector<std::uint8_t> out(cipher_.max_ciphertext_size(msg_.size()));
    out.resize(cipher_.seal_v2_into(msg_, nonce_, out));
    return out;
  }
};

TEST_F(SealedV2Errors, SealIntoShortBuffer) {
  std::vector<std::uint8_t> out(seal().size());
  EXPECT_EQ(cipher_.seal_v2_into(msg_, nonce_, out), out.size()) << "exact fit";
  out.pop_back();
  expect_length_error([&] { (void)cipher_.seal_v2_into(msg_, nonce_, out); },
                      "seal_v2_into short out");
}

TEST_F(SealedV2Errors, OpenAuthenticateMalformations) {
  const auto sealed = seal();

  expect_invalid_argument([&] { (void)cipher_.open_v2_authenticate({}); },
                          "open_v2_authenticate empty");
  expect_invalid_argument(
      [&] { (void)cipher_.open_v2_authenticate(std::span(sealed).first(sealed.size() - 1)); },
      "open_v2_authenticate truncated");

  auto bad_magic = sealed;
  bad_magic[0] ^= 0xff;
  expect_invalid_argument([&] { (void)cipher_.open_v2_authenticate(bad_magic); },
                          "open_v2_authenticate bad magic");

  // A v1 container must be rejected structurally — opening it unauthenticated
  // would defeat the format.
  const auto v1 = core::seal(msg_, cipher_.key(), /*seed=*/5, cipher_.params());
  expect_invalid_argument([&] { (void)cipher_.open_v2_authenticate(v1); },
                          "open_v2_authenticate v1 container");
}

TEST_F(SealedV2Errors, TamperIsMacErrorAndAnInvalidArgument) {
  auto sealed = seal();
  sealed[sealed.size() / 2] ^= 0x01;
  EXPECT_THROW((void)cipher_.open_v2_authenticate(sealed), crypto::MacError);
  // The derivation MacError -> invalid_argument is part of the convention:
  // generic malformed-input handling rejects forged containers too.
  expect_invalid_argument([&] { (void)cipher_.open_v2_authenticate(sealed); },
                          "tampered container as invalid_argument");
}

TEST_F(SealedV2Errors, DecryptPayloadShortBuffer) {
  const auto sealed = seal();
  const auto opened = cipher_.open_v2_authenticate(sealed);
  std::vector<std::uint8_t> out(msg_.size() - 1);
  expect_length_error([&] { (void)cipher_.decrypt_v2_payload(opened, out); },
                      "decrypt_v2_payload short out");
}

// ---------------------------------------------------------------------------
// Frame codec.

TEST(ErrorConvention, FrameCodec) {
  const core::Key key = core::Key::parse("1-6,2-5");
  const auto msg = test_message(32);
  const auto framed = core::seal(msg, key, /*seed=*/3);

  core::FrameHeader h{};
  std::array<std::uint8_t, core::FrameHeader::kSize - 1> small{};
  expect_length_error([&] { core::frame_encode_header(h, small); },
                      "frame_encode_header short out");

  std::span<const std::uint8_t> payload;
  expect_invalid_argument([&] { (void)core::frame_decode({}, &payload); },
                          "frame_decode empty");
  expect_invalid_argument(
      [&] { (void)core::frame_decode(std::span(framed).first(core::FrameHeader::kSize - 1), &payload); },
      "frame_decode short header");

  auto bad = framed;
  bad[0] ^= 0xff;
  expect_invalid_argument([&] { (void)core::frame_decode(bad, &payload); },
                          "frame_decode bad magic");
  expect_invalid_argument([&] { (void)core::open(std::span(framed).first(framed.size() - 1), key); },
                          "core::open truncated");
}

// ---------------------------------------------------------------------------
// Session: the stateful layer keeps the same vocabulary.

TEST(ErrorConvention, Session) {
  const std::array<std::uint8_t, 16> master = {1, 2,  3,  4,  5,  6,  7,  8,
                                               9, 10, 11, 12, 13, 14, 15, 16};
  expect_invalid_argument([&] { (void)crypto::Session::from_master({}); },
                          "Session: empty master");

  auto sender = crypto::Session::from_master(master);
  auto receiver = crypto::Session::from_master(master);
  const auto msg = test_message(40);

  // Short seal buffer: length_error, and the counter must NOT burn a nonce.
  const std::uint64_t nonce_before = sender.next_nonce();
  std::vector<std::uint8_t> tiny(4);
  expect_length_error([&] { (void)sender.seal_into(msg, tiny); }, "Session::seal_into short out");
  EXPECT_EQ(sender.next_nonce(), nonce_before) << "failed seal consumed a nonce";

  const auto sealed = sender.seal(msg);

  // Forgery: MacError (an invalid_argument), window not committed.
  auto tampered = sealed;
  tampered.back() ^= 0x01;
  EXPECT_THROW((void)receiver.open(tampered), crypto::MacError);
  expect_invalid_argument([&] { (void)receiver.open(tampered); },
                          "Session: tampered container");

  // The genuine container still opens after the rejected forgery...
  EXPECT_EQ(receiver.open(sealed), msg);

  // ...and replaying it is ReplayError, also an invalid_argument.
  EXPECT_THROW((void)receiver.open(sealed), crypto::ReplayError);
  expect_invalid_argument([&] { (void)receiver.open(sealed); }, "Session: replayed nonce");

  std::vector<std::uint8_t> out(msg.size());
  expect_invalid_argument(
      [&] { (void)receiver.open_into(std::span(sealed).first(sealed.size() - 1), out); },
      "Session::open_into truncated");
}

// ---------------------------------------------------------------------------
// Construction-time validation stays invalid_argument everywhere.

TEST(ErrorConvention, ConstructionValidation) {
  expect_invalid_argument([&] { (void)core::Key::parse(""); }, "Key::parse empty");
  expect_invalid_argument([&] { (void)core::Key::parse("9-9"); },
                          "Key::parse value out of range");
  expect_invalid_argument(
      [&] {
        (void)crypto::MhheaCipher(core::Key::parse("1-6"), /*seed=*/0,
                                  core::BlockParams::paper());
      },
      "MhheaCipher zero seed (raw framing)");
  expect_invalid_argument(
      [&] {
        (void)crypto::MhheaCipher(core::Key::parse("1-6"),
                                  crypto::V2KeySchedule::derive(0x1ULL),
                                  core::BlockParams::paper(),
                                  crypto::MhheaCipher::Framing::sealed);
      },
      "MhheaCipher schedule with non-v2 framing");
  expect_invalid_argument([&] { (void)crypto::V2KeySchedule::derive(std::span<const std::uint8_t>{}); },
                          "V2KeySchedule empty master");
}

}  // namespace
