// Retained-heap bounds: what long-lived objects keep on the heap between
// messages. A counting global allocator (the into_api_test idiom, counting
// live bytes instead of calls) measures the bytes an object still holds
// after construction and after it has handled a message:
//   * a raw-compression Session holds one key and one core (one table set,
//     no cover prefetch buffer), and a message does not leave
//     message-sized scratch behind;
//   * an LZSS compressor's match-search scratch is bounded by its window,
//     not by the largest input it has seen.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/crypto/session.hpp"
#include "src/util/rng.hpp"

// ----------------------------------------------------------------------
// Live-bytes allocator: malloc/free wrappers that add each block's usable
// size on allocation and subtract it on release. Atomic because operator
// new may be called from any thread.
namespace {
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_malloc(std::size_t n) noexcept {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

std::int64_t live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }
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

TEST(RetainedHeap, RawSessionHoldsOneCoreIdleAndAfterAMessage) {
  using crypto::Session;
  const std::vector<std::uint8_t> master(32, 0x42);
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
  // The same, plus the cover's lane-stride tables (built on the first
  // message long enough to use lanes).
  EXPECT_LE(used, 16 * 1024) << "bytes held by a raw Session after a 16 KiB seal and open";
  EXPECT_EQ(left, 0) << "bytes a dead Session left behind";
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

}  // namespace
}  // namespace mhhea
