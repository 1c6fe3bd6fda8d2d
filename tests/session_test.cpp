// crypto::Session — the stateful layer over sealed format v2: counter
// nonces, per-nonce cover seeds, and the sliding replay window.
#include "src/crypto/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/util/rng.hpp"

namespace mhhea::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

/// Log lines: compressible, so the lzss and huffman pre-stages engage.
std::vector<std::uint8_t> log_text(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::string line = "level=INFO msg=\"request sealed\" conn=" +
                             std::to_string(rng.below(1024)) + " status=ok\n";
    out.insert(out.end(), line.begin(), line.end());
  }
  out.resize(n);
  return out;
}

const std::vector<std::uint8_t> kMaster = bytes_of("a long-lived session master secret");

Session make_pair_session() { return Session::from_master(kMaster); }

TEST(Session, RoundTripManyMessages) {
  Session sealer = make_pair_session();
  Session opener = make_pair_session();
  util::Xoshiro256 rng(0x5e55);
  for (std::size_t len : {0u, 1u, 7u, 100u, 1000u}) {
    const auto msg = random_message(rng, len);
    const auto sealed = sealer.seal(msg);
    EXPECT_EQ(opener.open(sealed), msg) << len;
  }
  EXPECT_EQ(sealer.next_nonce(), 5u);
}

TEST(Session, FromMasterIsDeterministic) {
  // Both endpoints derive identical sessions from the master alone.
  Session a = Session::from_master(kMaster);
  Session b = Session::from_master(kMaster);
  const auto msg = bytes_of("hello");
  EXPECT_EQ(a.seal(msg), b.seal(msg));
  // A different master produces a different container.
  Session c = Session::from_master(bytes_of("another master"));
  EXPECT_NE(c.seal(msg), Session::from_master(kMaster).seal(msg));
}

TEST(SessionContext, ContextDomainSeparatesSessionsUnderOneMaster) {
  const auto ctx_a = bytes_of("mhhea-conn c2s" "\x01\x02\x03\x04");
  const auto ctx_b = bytes_of("mhhea-conn s2c" "\x01\x02\x03\x04");
  Session a = Session::from_master(kMaster, ctx_a);
  Session b = Session::from_master(kMaster, ctx_b);
  const auto msg = bytes_of("same master, different context");

  // Same context on both endpoints interoperates exactly like from_master.
  Session a_peer = Session::from_master(kMaster, ctx_a);
  const auto sealed = a.seal(msg);
  EXPECT_EQ(a_peer.open(sealed), msg);

  // Different contexts share no keys: both sessions sit at nonce 0, yet the
  // containers differ and do not cross-verify (MacError, not ReplayError —
  // the cross-context container is a forgery there, not a reused nonce).
  const auto sealed_b = b.seal(msg);
  EXPECT_NE(sealed, sealed_b);
  Session b_peer = Session::from_master(kMaster, ctx_b);
  EXPECT_THROW((void)b_peer.open(sealed), MacError);

  // Empty context is exactly the legacy derivation.
  Session plain = Session::from_master(kMaster);
  Session empty_ctx = Session::from_master(kMaster, std::span<const std::uint8_t>{});
  EXPECT_EQ(plain.seal(msg), empty_ctx.seal(msg));
}

TEST(SessionContext, ScheduleContextChangesEverySubkey) {
  const auto ctx = bytes_of("any public context");
  const V2KeySchedule base = V2KeySchedule::derive(kMaster);
  const V2KeySchedule mixed = V2KeySchedule::derive(kMaster, ctx);
  const V2KeySchedule mixed_again = V2KeySchedule::derive(kMaster, ctx);
  EXPECT_NE(static_cast<const MacKey&>(base.mac_key),
            static_cast<const MacKey&>(mixed.mac_key));
  EXPECT_NE(static_cast<const MacKey&>(base.seed_key),
            static_cast<const MacKey&>(mixed.seed_key));
  EXPECT_EQ(static_cast<const MacKey&>(mixed.mac_key),
            static_cast<const MacKey&>(mixed_again.mac_key));
  EXPECT_NE(base.cover_seed(0, 61), mixed.cover_seed(0, 61));
}

TEST(Session, CounterBecomesNonceAndAdvances) {
  Session sealer = make_pair_session();
  const auto msg = bytes_of("x");
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sealer.next_nonce(), i);
    const auto sealed = sealer.seal(msg);
    const core::FrameHeader h = core::frame_decode(sealed, nullptr);
    EXPECT_EQ(h.version, 2);
    EXPECT_EQ(h.nonce, i);
  }
}

TEST(Session, DistinctNoncesProduceDistinctCiphertext) {
  // The whole point of per-nonce cover seeds: sealing the same message
  // twice must not reuse keystream, so the ciphertext blocks differ.
  Session sealer = make_pair_session();
  const auto msg = bytes_of("the same message, twice");
  const auto first = sealer.seal(msg);
  const auto second = sealer.seal(msg);
  ASSERT_EQ(core::frame_decode(first, nullptr).nonce, 0u);
  ASSERT_EQ(core::frame_decode(second, nullptr).nonce, 1u);
  // Compare payload blocks only (sizes can legitimately differ — the cover
  // determines per-block capacity).
  std::span<const std::uint8_t> p1, p2;
  (void)core::frame_decode(first, &p1);
  (void)core::frame_decode(second, &p2);
  const bool same = p1.size() == p2.size() &&
                    std::equal(p1.begin(), p1.end(), p2.begin());
  EXPECT_FALSE(same);
}

TEST(Session, SealIntoOpenIntoSpanForms) {
  Session sealer = make_pair_session();
  Session opener = make_pair_session();
  util::Xoshiro256 rng(0x51);
  const auto msg = random_message(rng, 300);
  std::vector<std::uint8_t> buf(sealer.max_sealed_size(msg.size()));
  const std::size_t n = sealer.seal_into(msg, buf);
  ASSERT_LE(n, buf.size());
  std::vector<std::uint8_t> back(msg.size(), 0xEE);
  const std::size_t m = opener.open_into(std::span(buf).first(n), back);
  EXPECT_EQ(m, msg.size());
  EXPECT_EQ(back, msg);
  // A too-small seal buffer throws length_error and does NOT burn the nonce.
  const std::uint64_t before = sealer.next_nonce();
  std::vector<std::uint8_t> tiny(8);
  EXPECT_THROW((void)sealer.seal_into(msg, tiny), std::length_error);
  EXPECT_EQ(sealer.next_nonce(), before);
}

// seal() sizes its buffer after compression, from the body it seals; the
// container is byte-identical to seal_into's at the same nonce under every
// compression method, with the counter advancing in step.
TEST(Session, SealMatchesSealIntoAtTheSameNonce) {
  for (const compress::Method method :
       {compress::Method::raw, compress::Method::lzss, compress::Method::huffman}) {
    const int tag = static_cast<int>(method);
    Session alloc = make_pair_session();
    Session into = make_pair_session();
    alloc.set_compression(method);
    into.set_compression(method);
    util::Xoshiro256 rng(0x5EA1);
    for (const std::size_t len : {0u, 1u, 95u, 96u, 300u, 16384u}) {
      const auto msg = log_text(rng, len);
      const auto sealed = alloc.seal(msg);
      std::vector<std::uint8_t> buf(into.max_sealed_size(len));
      buf.resize(into.seal_into(msg, buf));
      EXPECT_EQ(sealed, buf) << "method " << tag << " len " << len;
      EXPECT_EQ(alloc.next_nonce(), into.next_nonce()) << "method " << tag << " len " << len;
      if (len == 16384) {
        // The compressed path is exercised, not just the fallback.
        EXPECT_EQ(core::frame_decode(sealed, nullptr).compression, tag) << "len " << len;
      }
    }
    EXPECT_EQ(alloc.next_nonce(), 6u) << "method " << tag;
  }
}

TEST(Session, RejectsReplayedNonce) {
  Session sealer = make_pair_session();
  Session opener = make_pair_session();
  const auto sealed = sealer.seal(bytes_of("once only"));
  EXPECT_EQ(opener.open(sealed), bytes_of("once only"));
  EXPECT_THROW((void)opener.open(sealed), ReplayError);
}

TEST(Session, AcceptsOutOfOrderWithinWindow) {
  Session sealer = make_pair_session();
  Session opener = make_pair_session();
  std::vector<std::vector<std::uint8_t>> sealed;
  for (int i = 0; i < 8; ++i) {
    sealed.push_back(sealer.seal(bytes_of("msg " + std::to_string(i))));
  }
  // Deliver newest first, then the stragglers — all accepted exactly once.
  for (int i = 7; i >= 0; --i) {
    EXPECT_EQ(opener.open(sealed[static_cast<std::size_t>(i)]),
              bytes_of("msg " + std::to_string(i)))
        << i;
  }
  // Every replay is now caught.
  for (const auto& s : sealed) EXPECT_THROW((void)opener.open(s), ReplayError);
}

TEST(Session, RejectsNonceOlderThanWindow) {
  Session sealer = make_pair_session();
  Session opener = make_pair_session();
  std::vector<std::vector<std::uint8_t>> sealed;
  const auto n = static_cast<int>(Session::kReplayWindow) + 2;
  for (int i = 0; i < n; ++i) sealed.push_back(sealer.seal(bytes_of("m")));
  // Open the newest; nonce 0 and 1 are now beyond the 64-wide window.
  (void)opener.open(sealed.back());
  EXPECT_THROW((void)opener.open(sealed[0]), ReplayError);
  EXPECT_THROW((void)opener.open(sealed[1]), ReplayError);
  // The oldest nonce still inside the window is accepted.
  EXPECT_EQ(opener.open(sealed[2]), bytes_of("m"));
}

TEST(Session, FailedOpenDoesNotCommitNonce) {
  Session sealer = make_pair_session();
  Session opener = make_pair_session();
  auto sealed = sealer.seal(bytes_of("deliver me"));
  auto tampered = sealed;
  tampered[tampered.size() - 1] ^= 1;  // break the MAC
  EXPECT_THROW((void)opener.open(tampered), MacError);
  // The authentic container still opens: the failed attempt burned nothing.
  EXPECT_EQ(opener.open(sealed), bytes_of("deliver me"));
}

TEST(Session, TamperedContainerThrowsBeforeDecryption) {
  Session sealer = make_pair_session();
  Session opener = make_pair_session();
  const auto sealed = sealer.seal(bytes_of("authentic"));
  for (std::size_t pos = 0; pos < sealed.size(); ++pos) {
    auto tampered = sealed;
    tampered[pos] ^= 0x10;
    EXPECT_THROW((void)opener.open(tampered), std::invalid_argument) << pos;
  }
}

TEST(Session, ExplicitKeyConstructor) {
  util::Xoshiro256 rng(0x991);
  const auto params = core::BlockParams::hardware();
  const core::Key key = core::Key::random(rng, 6, params);
  Session a(kMaster, key, params);
  Session b(kMaster, key, params);
  const auto msg = bytes_of("explicit key");
  EXPECT_EQ(b.open(a.seal(msg)), msg);
}

// ------------------------------------------------------- nonce exhaustion
//
// The PR-9 bugfix: the seal counter must never wrap from 2^64-1 back to 0 —
// that would re-derive cover seeds already used under this key (keystream
// reuse). skip_to_nonce is the regression hook that makes the boundary
// reachable without sealing 2^64 messages.

TEST(SessionNonceWrap, LastUsableNonceSealsAndWrapThrows) {
  Session sealer = make_pair_session();
  const auto msg = bytes_of("the last message under this key");
  sealer.skip_to_nonce(Session::kNonceExhausted - 1);
  // 2^64 - 2 is the last usable nonce: it must seal normally...
  const auto last = sealer.seal(msg);
  EXPECT_EQ(sealer.next_nonce(), Session::kNonceExhausted);
  // ...and the next seal must throw BEFORE consuming anything — pre-fix the
  // counter silently wrapped to 0 and reused nonce 0's cover seed.
  EXPECT_THROW((void)sealer.seal(msg), NonceExhaustedError);
  EXPECT_EQ(sealer.next_nonce(), Session::kNonceExhausted);  // not burned, no wrap

  // seal_into obeys the same contract.
  std::vector<std::uint8_t> out(sealer.max_sealed_size(msg.size()));
  EXPECT_THROW((void)sealer.seal_into(msg, out), NonceExhaustedError);
  EXPECT_EQ(sealer.next_nonce(), Session::kNonceExhausted);

  // The failed calls poisoned nothing: the message sealed at the boundary
  // still opens (replay window accepts the huge counter jump).
  Session opener = make_pair_session();
  EXPECT_EQ(opener.open(last), msg);
}

TEST(SessionNonceWrap, ExhaustedErrorIsInvalidArgument) {
  // Callers catching the repo-wide std::invalid_argument convention must
  // see exhaustion too, while specific handlers can still distinguish it.
  Session sealer = make_pair_session();
  sealer.skip_to_nonce(Session::kNonceExhausted);
  EXPECT_THROW((void)sealer.seal(bytes_of("x")), std::invalid_argument);
}

TEST(SessionNonceWrap, SkipToNonceIsForwardOnly) {
  Session sealer = make_pair_session();
  const auto msg = bytes_of("forward only");
  (void)sealer.seal(msg);
  (void)sealer.seal(msg);
  EXPECT_EQ(sealer.next_nonce(), 2u);
  // Rewinding would re-derive used cover seeds — rejected outright.
  EXPECT_THROW(sealer.skip_to_nonce(1), std::invalid_argument);
  EXPECT_THROW(sealer.skip_to_nonce(0), std::invalid_argument);
  EXPECT_EQ(sealer.next_nonce(), 2u);
  // Skipping to the current value is a no-op, and forward skips land
  // exactly where asked (failover semantics).
  sealer.skip_to_nonce(2);
  sealer.skip_to_nonce(1000);
  EXPECT_EQ(sealer.next_nonce(), 1000u);
  Session opener = make_pair_session();
  EXPECT_EQ(opener.open(sealer.seal(msg)), msg);
  EXPECT_EQ(sealer.next_nonce(), 1001u);
}

}  // namespace
}  // namespace mhhea::crypto
