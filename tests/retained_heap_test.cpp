// Retained-heap bounds: what long-lived objects keep on the heap between
// messages. A counting global allocator (the into_api_test idiom, counting
// live bytes instead of calls) measures the bytes an object still holds
// after construction and after it has handled a message:
//   * a Session holds one key and one core (one table set, no cover
//     prefetch buffer), and a message — raw or compressed, small or large —
//     leaves nothing behind in it: keystream tables are process-wide and
//     compression scratch is per thread;
//   * a thread's compression scratch is back under its bound once its
//     sessions are gone: one engine per method and two envelope buffers of
//     at most 64 KiB;
//   * a thread that only opens builds no engine: decoding keeps no state;
//   * a compressed Session::seal allocates for the body it seals, not for
//     the message (counting allocated bytes rather than live ones);
//   * a registry YAEA-S instance holds its key and nothing else;
//   * an LZSS compressor's match-search scratch is bounded by its window,
//     not by the largest input it has seen.
//   * a frame parser keeps at most 64 KiB once it has yielded every frame
//     it buffered, however large they were.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/core/frame.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/session.hpp"
#include "src/server/protocol.hpp"
#include "src/util/rng.hpp"

// ----------------------------------------------------------------------
// Live-bytes allocator: malloc/free wrappers that add each block's usable
// size on allocation and subtract it on release. Atomic because operator
// new may be called from any thread.
namespace {
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_allocated_bytes{0};  // never decremented

void* counted_malloc(std::size_t n) noexcept {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p != nullptr) {
    const auto usable = static_cast<std::int64_t>(malloc_usable_size(p));
    g_live_bytes.fetch_add(usable, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(usable, std::memory_order_relaxed);
  }
  return p;
}

std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }
std::int64_t allocated_bytes() { return g_allocated_bytes.load(std::memory_order_relaxed); }
}  // namespace

// GCC inlines these replacements at STL call sites and then flags the
// malloc-backed new against the free-backed delete as a mismatch — but that
// pairing is exactly what a counting replacement allocator is.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }

namespace mhhea {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// Log lines: compressible, so the lzss and huffman pre-stages engage.
std::vector<std::uint8_t> log_text(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n + 64);
  while (out.size() < n) {
    const std::string line = "level=INFO msg=\"request sealed\" conn=" +
                             std::to_string(rng.below(1024)) +
                             " latency_us=" + std::to_string(rng.below(10000)) + " status=ok\n";
    out.insert(out.end(), line.begin(), line.end());
  }
  out.resize(n);
  return out;
}

const std::vector<std::uint8_t> kMaster(32, 0x42);

TEST(RetainedHeap, RawSessionHoldsOneCoreIdleAndAfterAMessage) {
  using crypto::Session;
  const std::vector<std::uint8_t>& master = kMaster;
  const auto msg = random_bytes(16384, 0x5E55);
  // Process-wide state built on first use (backend dispatch, polynomial
  // tables) is not the session's: build it on a throwaway session first.
  {
    Session warm = Session::from_master(master);
    const auto sealed = warm.seal(msg);
    ASSERT_EQ(warm.open(sealed), msg);
  }
  const std::int64_t base = live_bytes();
  std::optional<Session> session;
  session.emplace(Session::from_master(master));
  const std::int64_t idle = live_bytes() - base;
  {
    const auto sealed = session->seal(msg);
    ASSERT_EQ(session->open(sealed), msg);
  }
  const std::int64_t used = live_bytes() - base;
  session.reset();
  const std::int64_t left = live_bytes() - base;
  // Checked only now: a failed expectation allocates its report.
  // One 8-pair key and its one table set (8 x 528 B) plus the cover.
  EXPECT_LE(idle, 8 * 1024) << "bytes held by an idle raw Session";
  // The cover's lane-stride tables are process-wide, so a message long
  // enough to use lanes adds nothing.
  EXPECT_EQ(used, idle) << "bytes held by a raw Session after a 16 KiB seal and open";
  EXPECT_EQ(left, 0) << "bytes a dead Session left behind";
}

/// Live bytes of a sealer/opener Session pair — what mhhead keeps per
/// connection, compression `method` set on the sealer — idle and after one
/// seal and open of `msg`.
struct PairHeap {
  std::int64_t idle = 0;
  std::int64_t used = 0;
  bool round_trip = false;
};

PairHeap session_pair_heap(compress::Method method, const std::vector<std::uint8_t>& msg) {
  const std::int64_t base = live_bytes();
  crypto::Session sealer = crypto::Session::from_master(kMaster);
  crypto::Session opener = crypto::Session::from_master(kMaster);
  sealer.set_compression(method);
  PairHeap h;
  h.idle = live_bytes() - base;
  {
    const auto sealed = sealer.seal(msg);
    h.round_trip = opener.open(sealed) == msg;
  }
  h.used = live_bytes() - base;
  return h;
}

TEST(RetainedHeap, SessionPairHoldsItsIdleHeapAndTheThreadBoundedScratch) {
  constexpr compress::Method kMethods[] = {compress::Method::raw, compress::Method::lzss,
                                           compress::Method::huffman};
  constexpr std::size_t kSizes[] = {std::size_t{16} << 10, std::size_t{1} << 20};
  struct Row {
    compress::Method method;
    std::size_t size;
    PairHeap heap;
  };
  std::vector<Row> rows;
  rows.reserve(std::size(kMethods) * std::size(kSizes));
  std::int64_t scratch = 0;
  // Process-wide state (backend dispatch, keystream tables) is built here,
  // off the measured thread.
  (void)session_pair_heap(compress::Method::raw, random_bytes(16384, 1));
  // A fresh thread, so its compression scratch is counted from before its
  // first compressed message.
  std::thread([&] {
    const std::int64_t base = live_bytes();
    for (const compress::Method method : kMethods) {
      for (const std::size_t size : kSizes) {
        const auto msg = log_text(size, 0x7E47 + size);
        // The first pair brings the thread's scratch to where this message
        // leaves it; the second must then hold exactly its idle heap.
        (void)session_pair_heap(method, msg);
        rows.push_back({method, size, session_pair_heap(method, msg)});
      }
    }
    scratch = live_bytes() - base;
  }).join();
  // Checked only now: a failed expectation allocates its report.
  for (const Row& r : rows) {
    EXPECT_TRUE(r.heap.round_trip) << compress::method_name(r.method) << " " << r.size;
    EXPECT_EQ(r.heap.used, r.heap.idle)
        << "bytes a Session pair gained from one " << compress::method_name(r.method) << " "
        << r.size << " B seal and open (idle " << r.heap.idle << " B)";
  }
  // One LZSS engine (~48 KiB), the Huffman engine and two envelope buffers
  // of at most 64 KiB each.
  EXPECT_LE(scratch, 192 * 1024) << "bytes the thread's compression scratch holds";
}

TEST(RetainedHeap, OpenOnlyThreadBuildsNoEncoder) {
  const auto msg = log_text(16384, 0x0BE7);
  crypto::Session sealer = crypto::Session::from_master(kMaster);
  crypto::Session opener = crypto::Session::from_master(kMaster);
  sealer.set_compression(compress::Method::lzss);
  const auto first = sealer.seal(msg);
  const auto second = sealer.seal(msg);
  // Process-wide state, built on this thread.
  ASSERT_EQ(opener.open(first), msg);
  std::int64_t scratch = 0;
  bool round_trip = false;
  std::thread([&] {
    const std::int64_t base = live_bytes();
    round_trip = opener.open(second) == msg;
    scratch = live_bytes() - base;
  }).join();
  EXPECT_TRUE(round_trip);
  // The opening envelope buffer (~3 KiB here) and no LZSS engine (~48 KiB).
  EXPECT_LE(scratch, 8 * 1024) << "bytes an open-only thread holds after a 16 KiB lzss open";
}

TEST(RetainedHeap, CompressedSealAllocatesForTheEnvelope) {
  const auto msg = log_text(16384, 0x5EA1);
  crypto::Session sealer = crypto::Session::from_master(kMaster);
  sealer.set_compression(compress::Method::lzss);
  (void)sealer.seal(msg);  // this thread's compression scratch
  const std::int64_t before = allocated_bytes();
  const auto sealed = sealer.seal(msg);
  const std::int64_t allocated = allocated_bytes() - before;
  ASSERT_EQ(core::frame_decode(sealed, nullptr).compression,
            static_cast<std::uint8_t>(compress::Method::lzss));
  // The bound over the ~3 KiB envelope, not the 131,112 B bound over the
  // 16 KiB message.
  EXPECT_LE(allocated, 32 * 1024) << "bytes one 16 KiB lzss Session::seal allocates";
}

TEST(RetainedHeap, RegistryYaeaHoldsOnlyItsKey) {
  const auto msg = random_bytes(16384, 0x7AEA);
  std::vector<std::uint8_t> out(msg.size());
  const auto& registry = crypto::CipherRegistry::builtin();
  // Process-wide state (the registry, backend dispatch, Geffe tables).
  (void)registry.make("YAEA-S", 0xACE1)->encrypt_into(msg, out);
  const std::int64_t base = live_bytes();
  auto cipher = registry.make("YAEA-S", 0xACE1);
  const std::int64_t idle = live_bytes() - base;
  (void)cipher->encrypt_into(msg, out);
  const std::int64_t used = live_bytes() - base;
  EXPECT_LE(idle, 1024) << "bytes held by an idle registry YAEA-S";
  EXPECT_LE(used, 1024) << "bytes held by a registry YAEA-S after a 16 KiB encrypt";
}

TEST(RetainedHeap, LzssScratchIsBoundedByTheWindow) {
  const auto in = random_bytes(std::size_t{1} << 20, 0x1A55);
  std::vector<std::uint8_t> out(
      compress::make_compressor(compress::Method::lzss)->max_compressed_size(in.size()));
  const std::int64_t base = live_bytes();
  auto lzss = compress::make_compressor(compress::Method::lzss);
  (void)lzss->compress_into(in, out);
  // The compressor with its hash heads (32 KiB) and one window of previous
  // links (16 KiB).
  EXPECT_LE(live_bytes() - base, 64 * 1024)
      << "bytes an LZSS compressor holds after a 1 MiB compress_into";
}

TEST(RetainedHeap, FrameParserReleasesALargeFrame) {
  // A request of exactly the default cap, fed in socket-sized reads.
  const auto frame = server::encode_request(
      server::Op::kSeal, random_bytes(server::kMaxFrameDefault - 1, 0xF4A3));
  const std::int64_t base = live_bytes();
  server::FrameParser parser(server::kMaxFrameDefault);
  constexpr std::size_t kRead = 16 * 1024;
  for (std::size_t off = 0; off < frame.size(); off += kRead) {
    parser.feed(std::span(frame).subspan(off, std::min(kRead, frame.size() - off)));
  }
  const bool yielded = parser.next().has_value();  // the frame itself is freed here
  const std::int64_t held = live_bytes() - base;
  // Checked only now: a failed expectation allocates its report.
  ASSERT_TRUE(yielded);
  EXPECT_LE(held, 64 * 1024) << "bytes a FrameParser holds after yielding one 1 MiB frame";
}

}  // namespace
}  // namespace mhhea
