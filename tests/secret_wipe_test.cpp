// Secret-hygiene tests: key material must be zeroed when its owner dies.
//
// Two mechanisms are pinned:
//   * stack/embedded storage — objects are placement-new'd into a caller
//     buffer, destroyed, and the raw buffer is scanned for leftovers;
//   * heap storage — a controlled global allocator (operator new/delete
//     replaced with malloc/free wrappers, the into_api_test idiom) watches
//     one specific allocation and records, at free time, whether the owner
//     wiped it before release. Private storage is picked out by size: the
//     next allocation of an armed size becomes the watched one.
//
// Together they prove the secure_wipe barrier survives optimization: if the
// compiler elided the "dead" stores, these scans would find the key bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/session.hpp"
#include "src/crypto/yaea.hpp"
#include "src/lfsr/lfsr.hpp"
#include "src/lfsr/polynomials.hpp"
#include "src/util/rng.hpp"
#include "src/util/secret.hpp"

// ---------------------------------------------------------------------------
// Controlled allocator: malloc/free wrappers plus a single watched region.
// Arm it with the address/size of a live secret's heap storage; at free time
// the hook records whether the region was all-zero. Atomics because other
// suites in this binary may run worker threads.
namespace {

std::atomic<const void*> g_watch_ptr{nullptr};
std::atomic<std::size_t> g_watch_len{0};
// -1: watched block not freed yet; 1: freed all-zero; 0: freed with content.
std::atomic<int> g_watch_zeroed{-1};
// Nonzero: watch the next allocation of exactly this many bytes.
std::atomic<std::size_t> g_watch_next_len{0};

void watch(const void* p, std::size_t len) {
  g_watch_zeroed.store(-1, std::memory_order_relaxed);
  g_watch_len.store(len, std::memory_order_relaxed);
  g_watch_ptr.store(p, std::memory_order_release);
}

void watch_next_allocation(std::size_t len) {
  watch(nullptr, 0);
  g_watch_next_len.store(len, std::memory_order_release);
}

void watch_if_armed(void* p, std::size_t n) noexcept {
  std::size_t want = n;
  if (g_watch_next_len.compare_exchange_strong(want, 0)) watch(p, n);
}

void check_freed(void* p) noexcept {
  if (p == nullptr || p != g_watch_ptr.load(std::memory_order_acquire)) return;
  const std::size_t len = g_watch_len.load(std::memory_order_relaxed);
  const auto* bytes = static_cast<const unsigned char*>(p);
  int all_zero = 1;
  for (std::size_t i = 0; i < len; ++i) {
    if (bytes[i] != 0) {
      all_zero = 0;
      break;
    }
  }
  g_watch_zeroed.store(all_zero, std::memory_order_relaxed);
  g_watch_ptr.store(nullptr, std::memory_order_release);
}

}  // namespace

// GCC inlines these replacements at STL call sites and then flags the
// malloc-backed new against the free-backed delete as a mismatch — but that
// pairing is exactly what a watching replacement allocator is (the
// into_api_test idiom).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    watch_if_armed(p, n);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept {
  check_freed(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }

namespace mhhea {
namespace {

bool all_zero(const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

// --- secure_wipe / SecretBytes units ---------------------------------------

TEST(SecureWipe, ZeroesEveryByte) {
  unsigned char buf[257];
  std::memset(buf, 0xA5, sizeof(buf));
  util::secure_wipe(buf, sizeof(buf));
  EXPECT_TRUE(all_zero(buf, sizeof(buf)));
}

TEST(SecureWipe, ZeroLengthIsANoOp) {
  util::secure_wipe(nullptr, 0);  // must not crash
  unsigned char b = 0x5A;
  util::secure_wipe(&b, 0);
  EXPECT_EQ(b, 0x5A);
}

TEST(SecretBytes, DestructorWipesStorage) {
  alignas(util::SecretBytes<32>) unsigned char buf[sizeof(util::SecretBytes<32>)];
  auto* s = new (buf) util::SecretBytes<32>();
  for (std::size_t i = 0; i < s->size(); ++i) (*s)[i] = static_cast<std::uint8_t>(i + 1);
  ASSERT_FALSE(all_zero(buf, sizeof(buf)));
  s->~SecretBytes<32>();
  EXPECT_TRUE(all_zero(buf, sizeof(buf)));
}

TEST(SecretBytes, MoveWipesTheSource) {
  util::SecretBytes<16> src;
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint8_t>(0x40 + i);
  const util::SecretBytes<16> dst = std::move(src);
  EXPECT_EQ(dst[0], 0x40);
  EXPECT_TRUE(all_zero(src.data(), src.size()));  // NOLINT(bugprone-use-after-move)
}

TEST(SecretBytes, ArrayInteropAndEquality) {
  std::array<std::uint8_t, 16> raw{};
  raw.fill(0x77);
  util::SecretBytes<16> s = raw;
  EXPECT_TRUE(s == raw);
  const std::array<std::uint8_t, 16>& view = s;
  EXPECT_EQ(view[3], 0x77);
}

// --- V2KeySchedule: subkeys wiped on destruction ---------------------------

TEST(SecretWipe, V2KeyScheduleSubkeysWipedOnDestruction) {
  using crypto::V2KeySchedule;
  alignas(V2KeySchedule) unsigned char buf[sizeof(V2KeySchedule)];
  auto* sched = new (buf) V2KeySchedule(V2KeySchedule::derive(0xFEEDFACE12345678ull));
  // 256-bit subkey material: the odds of an honest all-zero derivation are
  // negligible, so a zero scan before destruction means the test is broken.
  ASSERT_FALSE(all_zero(buf, sizeof(buf)));
  sched->~V2KeySchedule();
  EXPECT_TRUE(all_zero(buf, sizeof(buf)));
}

// --- core::Key: heap pair storage wiped before the vector frees it ---------

TEST(SecretWipe, KeyHeapStorageZeroedAtFree) {
  {
    auto* key = new core::Key(core::Key::parse("1-6,2-5,3-7,0-4"));
    watch(key->pairs().data(), key->pairs().size() * sizeof(core::KeyPair));
    delete key;
  }
  EXPECT_EQ(g_watch_zeroed.load(), 1) << "key pair storage reached free() unwiped";
}

TEST(SecretWipe, KeyCopyAssignWipesTheOldStorage) {
  core::Key key = core::Key::parse("1-6,2-5,3-7,0-4");
  const core::Key other = core::Key::parse("0-7");
  watch(key.pairs().data(), key.pairs().size() * sizeof(core::KeyPair));
  key = other;  // 4 pairs -> 1 pair: libstdc++ keeps capacity, so if the
                // buffer was reused nothing was freed and the watch is moot —
                // but a reallocating implementation must free it wiped.
  if (g_watch_zeroed.load() != -1) {
    EXPECT_EQ(g_watch_zeroed.load(), 1);
  } else {
    // Buffer reused: the dead tail past the new size must already be zero.
    const auto* base = reinterpret_cast<const unsigned char*>(key.pairs().data());
    EXPECT_TRUE(all_zero(base + key.pairs().size() * sizeof(core::KeyPair),
                         (4 - key.pairs().size()) * sizeof(core::KeyPair)));
    watch(nullptr, 0);
  }
}

// --- block engine cores: per-pair ranges and K1 patterns wiped -------------

// The cores' pair contexts (range tables, K1 patterns, K1) are one heap
// block of L PairCtx entries; it must reach free() zeroed, whether the core
// dies or a move-assignment replaces it.
constexpr std::size_t kPairTableBytes = 4 * sizeof(core::detail::PairCtx);

template <class Core, class... Args>
void expect_pair_tables_wiped_at_destruction(Args&&... args) {
  watch_next_allocation(kPairTableBytes);
  std::optional<Core> core;
  core.emplace(std::forward<Args>(args)...);
  ASSERT_NE(g_watch_ptr.load(), nullptr) << "no pair-table allocation seen";
  ASSERT_FALSE(all_zero(static_cast<const unsigned char*>(g_watch_ptr.load()), kPairTableBytes));
  core.reset();
  EXPECT_EQ(g_watch_zeroed.load(), 1) << "pair tables reached free() unwiped";
}

TEST(SecretWipe, CorePairTablesZeroedAtFree) {
  const core::Key key = core::Key::parse("1-6,2-5,3-7,0-4");
  expect_pair_tables_wiped_at_destruction<core::Encryptor>(key,
                                                           core::make_lfsr_cover(16, 0xACE1));
  expect_pair_tables_wiped_at_destruction<core::Decryptor>(key, 0);
  expect_pair_tables_wiped_at_destruction<core::BlockEncryptor<core::FixedWindow>>(
      key, core::make_lfsr_cover(16, 0xACE1));
  expect_pair_tables_wiped_at_destruction<core::BlockDecryptor<core::FixedWindow>>(key, 0);
}

TEST(SecretWipe, CorePairTablesZeroedWhenMoveAssignmentReplacesThem) {
  watch_next_allocation(kPairTableBytes);
  core::Decryptor dec(core::Key::parse("1-6,2-5,3-7,0-4"), 0);
  ASSERT_NE(g_watch_ptr.load(), nullptr) << "no pair-table allocation seen";
  dec = core::Decryptor(core::Key::parse("0-7"), 0);
  EXPECT_EQ(g_watch_zeroed.load(), 1) << "replaced pair tables reached free() unwiped";
}

// --- GeffeKeystream / Yaea: register states and seeds wiped ----------------

// Scan a dead object's raw storage for an 8-byte little-endian word.
bool buffer_contains_word(const unsigned char* buf, std::size_t len, std::uint64_t w) {
  unsigned char needle[8];
  std::memcpy(needle, &w, 8);
  for (std::size_t off = 0; off + 8 <= len; ++off) {
    if (std::memcmp(buf + off, needle, 8) == 0) return true;
  }
  return false;
}

TEST(LfsrWipe, WipeStateZeroesTheRegister) {
  lfsr::Lfsr reg(17, 0x1ACE);
  reg.advance(8);
  ASSERT_NE(reg.state(), 0u);
  reg.wipe_state();
  EXPECT_EQ(reg.state(), 0u);
}

TEST(SecretWipe, GeffeRegisterStatesWipedOnDestruction) {
  using crypto::GeffeKeystream;
  alignas(GeffeKeystream) unsigned char buf[sizeof(GeffeKeystream)];
  auto* ks = new (buf) GeffeKeystream(0x1ACE, 0x2BEEF, 0x3CAFE);
  (void)ks->next_byte();  // each register advances 8 steps
  ks->~GeffeKeystream();
  // Compute the exact state words the dead object held (each next_byte()
  // steps every component register 8 times) and make sure none of them —
  // nor the original seeds — survive anywhere in the raw storage. Scanning
  // for the specific values keeps public constants (polynomial masks, table
  // pointers) out of the verdict.
  const int degrees[3] = {GeffeKeystream::kDegreeA, GeffeKeystream::kDegreeB,
                          GeffeKeystream::kDegreeC};
  const std::uint64_t seeds[3] = {0x1ACE, 0x2BEEF, 0x3CAFE};
  for (int r = 0; r < 3; ++r) {
    lfsr::Lfsr ref(degrees[r], seeds[r]);
    for (int i = 0; i < 8; ++i) (void)ref.step();
    EXPECT_FALSE(buffer_contains_word(buf, sizeof(buf), ref.state()))
        << "register " << r << " state survived destruction";
    EXPECT_FALSE(buffer_contains_word(buf, sizeof(buf), seeds[r]))
        << "register " << r << " seed survived destruction";
  }
}

TEST(SecretWipe, YaeaKeySeedsWipedOnDestruction) {
  using crypto::Yaea;
  alignas(Yaea) unsigned char buf[sizeof(Yaea)];
  auto* cipher = new (buf) Yaea({0x1ACE, 0x2BEEF, 0x3CAFE});
  std::vector<std::uint8_t> msg(64, 0xAB);
  std::vector<std::uint8_t> out(64);
  (void)cipher->encrypt_into(msg, out);
  cipher->~Yaea();
  // The KeyType seeds and the pristine prototype's register states all hold
  // these three exact values; none may survive in the dead object (scanned
  // at every byte offset, 4-byte little-endian).
  const std::uint32_t seeds[3] = {0x1ACE, 0x2BEEF, 0x3CAFE};
  bool leaked = false;
  for (std::uint32_t seed : seeds) {
    unsigned char needle[4];
    std::memcpy(needle, &seed, 4);
    for (std::size_t off = 0; off + 4 <= sizeof(buf); ++off) {
      if (std::memcmp(buf + off, needle, 4) == 0) leaked = true;
    }
  }
  EXPECT_FALSE(leaked);
}

// --- end-to-end: a dead Session leaves no schedule bytes behind ------------

TEST(SecretWipe, SessionLeavesNoSubkeysInFreedCipherState) {
  using crypto::Session;
  const std::vector<std::uint8_t> master = {'t', 'o', 'p', ' ', 's', 'e', 'c', 'r', 'e', 't'};
  // Recover the subkeys a session of this master uses, then make sure those
  // exact bytes are gone from the Session's storage after destruction.
  const crypto::V2KeySchedule sched = crypto::V2KeySchedule::derive(master);
  const std::array<std::uint8_t, crypto::kMacKeyBytes> mac_key = sched.mac_key;

  alignas(Session) unsigned char buf[sizeof(Session)];
  auto* session = new (buf) Session(Session::from_master(master));
  const std::vector<std::uint8_t> payload(48, 0x5C);
  const std::vector<std::uint8_t> sealed = session->seal(payload);
  EXPECT_FALSE(sealed.empty());
  session->~Session();

  const auto* raw = static_cast<const unsigned char*>(static_cast<const void*>(buf));
  for (std::size_t off = 0; off + crypto::kMacKeyBytes <= sizeof(buf); ++off) {
    EXPECT_NE(0, std::memcmp(raw + off, mac_key.data(), crypto::kMacKeyBytes))
        << "MAC subkey survived in the dead Session at offset " << off;
  }
}

// --- compression scratch: a large envelope buffer freed, zeroed -----------

// The thread's envelope buffers hold plaintext-derived bytes. A message whose
// envelope buffer outgrows the 64 KiB keep limit must free it before the call
// returns, and it must reach free() all zeros — on the sealing side (sized by
// the compressor's worst case) and on the opening side (the envelope).
TEST(SecretWipe, LargeEnvelopeBuffersFreedZeroedDuringTheCall) {
  using crypto::Session;
  std::vector<std::uint8_t> msg;
  for (int i = 0; msg.size() < std::size_t{128} << 10; ++i) {
    const std::string line = "level=INFO msg=\"request sealed\" conn=" +
                             std::to_string(i * 7919 % 1024) + " status=ok\n";
    msg.insert(msg.end(), line.begin(), line.end());
  }
  msg.resize(std::size_t{128} << 10);
  const std::vector<std::uint8_t> master(32, 0x77);
  Session sealer = Session::from_master(master);
  Session opener = Session::from_master(master);
  // Huffman keeps this text's envelope above 64 KiB (LZSS would not).
  sealer.set_compression(compress::Method::huffman);
  const std::size_t seal_buf =
      1 + compress::varint_size(msg.size()) +
      compress::make_compressor(compress::Method::huffman)->max_compressed_size(msg.size());

  watch_next_allocation(seal_buf);
  const std::vector<std::uint8_t> sealed = sealer.seal(msg);
  EXPECT_EQ(g_watch_next_len.load(), 0u) << "no sealing envelope buffer allocation seen";
  EXPECT_EQ(g_watch_zeroed.load(), 1) << "sealing envelope buffer not freed zeroed in the call";
  watch(nullptr, 0);

  std::span<const std::uint8_t> payload;
  const core::FrameHeader h = core::frame_decode(sealed, &payload);
  ASSERT_NE(h.compression, 0) << "the text was not compressed";
  const auto env_bytes = static_cast<std::size_t>(h.message_bits / 8);
  ASSERT_GT(env_bytes, std::size_t{64} << 10) << "the envelope fits the keep limit";
  watch_next_allocation(env_bytes);
  EXPECT_EQ(opener.open(sealed), msg);
  EXPECT_EQ(g_watch_next_len.load(), 0u) << "no opening envelope buffer allocation seen";
  EXPECT_EQ(g_watch_zeroed.load(), 1) << "opening envelope buffer not freed zeroed in the call";
  watch(nullptr, 0);
}

}  // namespace
}  // namespace mhhea
