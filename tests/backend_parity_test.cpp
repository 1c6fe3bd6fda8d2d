// Backend seam tests: dispatch rules (cpuid gating, MHHEA_BACKEND override,
// graceful fallback), and differential parity between the forced scalar and
// SIMD engines — raw Lfsr block generation, the Geffe keystream (bulk,
// fused-XOR, serial interleaving), and every registry cipher across sizes
// with cross-backend encrypt/decrypt. SIMD-side cases skip cleanly when the
// host (or build) has no AVX2 engine, so the suite is green on any runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/backend/backend.hpp"
#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/yaea.hpp"
#include "src/lfsr/lfsr.hpp"
#include "src/util/rng.hpp"

namespace mhhea {
namespace {

/// Force an engine for one scope, restoring the previously active engine on
/// exit (whatever it was — tests must not leak a forced engine).
class ScopedBackend {
 public:
  explicit ScopedBackend(std::string_view name) : prev_(backend::active().name()) {
    ok_ = backend::set_active(name);
  }
  ~ScopedBackend() { backend::set_active(prev_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  std::string_view prev_;
  bool ok_ = false;
};

bool avx2_usable() { return backend::by_name("avx2") != nullptr; }

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

// ------------------------------------------------------------- dispatch

TEST(BackendDispatch, ResolveChoiceRules) {
  const bool compiled = backend::avx2_compiled();
  // Auto (unset, empty, explicit) picks the widest usable engine.
  for (const char* env : {static_cast<const char*>(nullptr), "", "auto"}) {
    EXPECT_EQ(backend::resolve_backend_choice(env, true),
              compiled ? "avx2" : "scalar");
    EXPECT_EQ(backend::resolve_backend_choice(env, false), "scalar");
  }
  // Forcing scalar always honored.
  EXPECT_EQ(backend::resolve_backend_choice("scalar", true), "scalar");
  EXPECT_EQ(backend::resolve_backend_choice("scalar", false), "scalar");
  // Forcing avx2 degrades gracefully when the host cannot run it.
  EXPECT_EQ(backend::resolve_backend_choice("avx2", true),
            compiled ? "avx2" : "scalar");
  EXPECT_EQ(backend::resolve_backend_choice("avx2", false), "scalar");
  // Unknown values resolve like auto (with a stderr note, not a throw).
  EXPECT_EQ(backend::resolve_backend_choice("neon", false), "scalar");
}

TEST(BackendDispatch, ByNameIsCpuidGated) {
  ASSERT_NE(backend::by_name("scalar"), nullptr);
  EXPECT_EQ(backend::by_name("scalar")->name(), "scalar");
  EXPECT_EQ(backend::by_name("sse9"), nullptr);
  const backend::Backend* v = backend::by_name("avx2");
  if (backend::cpu_has_avx2() && backend::avx2_compiled()) {
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->name(), "avx2");
  } else {
    // No AVX2 host/build: the engine must be unreachable, never crash-y.
    EXPECT_EQ(v, nullptr);
  }
}

TEST(BackendDispatch, SetActiveForcesAndRejects) {
  const std::string prev(backend::active().name());
  EXPECT_TRUE(backend::set_active("scalar"));
  EXPECT_EQ(backend::active().name(), "scalar");
  EXPECT_FALSE(backend::set_active("bogus"));
  EXPECT_EQ(backend::active().name(), "scalar");  // unchanged on failure
  EXPECT_EQ(backend::set_active("avx2"), avx2_usable());
  EXPECT_TRUE(backend::set_active("auto"));
  EXPECT_TRUE(backend::set_active(prev));
}

TEST(BackendDispatch, EnvOverrideHonored) {
  // Meaningful under the CI forced-backend jobs: when MHHEA_BACKEND is set
  // and no test forced an engine first, lazy resolution must have applied
  // the documented rule. (ScopedBackend restores whatever was active, so
  // test order cannot break this.)
  const char* env = std::getenv("MHHEA_BACKEND");
  if (env == nullptr) GTEST_SKIP() << "MHHEA_BACKEND not set";
  EXPECT_EQ(backend::active().name(),
            backend::resolve_backend_choice(env, backend::cpu_has_avx2()));
}

// ------------------------------------------------------------- lfsr lanes

TEST(BackendParity, LfsrNextBlocksMatchesSerialOnBothEngines) {
  // Every block count 0..520 — spans shorter than one row of kMaxLanes
  // lanes, the serial first row alone, and whole rows followed by every
  // leftover count — then long spans; degrees cover 2..4 state bytes.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 520; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {2048, 4099, 10000});
  for (const int degree : {16, 17, 23, 32}) {
    // Serial reference: next_block() one at a time.
    const lfsr::Lfsr proto(degree, 0xACE1);
    lfsr::Lfsr serial = proto;
    std::vector<std::uint64_t> ref(sizes.back());
    for (auto& b : ref) b = serial.next_block();
    for (const char* engine : {"scalar", "avx2"}) {
      if (engine == std::string_view("avx2") && !avx2_usable()) continue;
      ScopedBackend forced(engine);
      ASSERT_TRUE(forced.ok());
      for (const std::size_t n : sizes) {
        lfsr::Lfsr reg = proto;
        std::vector<std::uint64_t> got(n);
        reg.next_blocks(got);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin()))
            << "degree=" << degree << " n=" << n << " " << engine;
        // The state left behind must match too (bulk/serial interleaving):
        // a block is the register state after it.
        ASSERT_EQ(reg.state(), n == 0 ? proto.state() : ref[n - 1])
            << "degree=" << degree << " n=" << n << " " << engine;
      }
    }
  }
}

// ------------------------------------------------------------- geffe lanes

TEST(BackendParity, GeffeKeystreamMatchesBitSerialOnBothEngines) {
  // Every byte length 0..2064 — runs under one row of kMaxLanes units,
  // whole rows followed by every leftover unit count and every sub-unit
  // tail — then runs of many rows.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 2064; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {16384, 20000});
  // Bit-serial reference, one byte past the longest run for interleaving.
  std::vector<std::uint8_t> ref(sizes.back() + 1);
  crypto::GeffeKeystream serial(0x1ACE, 0x2BEEF, 0x3CAFE);
  for (auto& b : ref) b = serial.next_byte();
  for (const char* engine : {"scalar", "avx2"}) {
    if (engine == std::string_view("avx2") && !avx2_usable()) continue;
    ScopedBackend forced(engine);
    ASSERT_TRUE(forced.ok());
    crypto::GeffeKeystream proto(0x1ACE, 0x2BEEF, 0x3CAFE);
    for (const std::size_t n : sizes) {
      crypto::GeffeKeystream ks = proto;
      std::vector<std::uint8_t> got(n);
      ks.next_bytes(got);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin())) << "n=" << n << " " << engine;
      // Bulk then serial: the registers must sit exactly where the
      // bit-serial generator's do.
      ASSERT_EQ(ks.next_byte(), ref[n]) << "n=" << n << " " << engine;
      // xor_bytes == next_bytes XOR input, in place.
      util::Xoshiro256 rng(0xF00D + n);
      std::vector<std::uint8_t> msg = random_message(rng, n);
      std::vector<std::uint8_t> inplace = msg;
      crypto::GeffeKeystream fused = proto;
      fused.xor_bytes(inplace, inplace);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(inplace[i], static_cast<std::uint8_t>(msg[i] ^ ref[i]))
            << "i=" << i << " n=" << n << " " << engine;
      }
    }
  }
}

TEST(BackendParity, GeffeXorBytesRejectsMismatchedSpans) {
  crypto::GeffeKeystream ks(1, 2, 3);
  std::vector<std::uint8_t> in(8), out(9);
  EXPECT_THROW(ks.xor_bytes(in, out), std::invalid_argument);
}

// ------------------------------------------------------------- ciphers

TEST(BackendParity, RegistryCiphersBitIdenticalAcrossEngines) {
  if (!avx2_usable()) GTEST_SKIP() << "no avx2 engine on this host/build";
  const auto& reg = crypto::CipherRegistry::builtin();
  const std::size_t sizes[] = {0, 64, 1024, 4096, 20000};
  for (const std::string& name : reg.names()) {
    for (const std::size_t len : sizes) {
      util::Xoshiro256 rng(0xC0FFEE ^ len);
      const auto msg = random_message(rng, len);
      std::vector<std::uint8_t> ct_scalar;
      {
        ScopedBackend forced("scalar");
        ct_scalar = reg.make(name, 0xD00D)->encrypt(msg);
      }
      std::vector<std::uint8_t> ct_vec;
      {
        ScopedBackend forced("avx2");
        ct_vec = reg.make(name, 0xD00D)->encrypt(msg);
      }
      EXPECT_EQ(ct_vec, ct_scalar) << name << " len=" << len;
      // Cross-engine round trips: bytes sealed by one engine open under the
      // other, in both directions.
      {
        ScopedBackend forced("scalar");
        EXPECT_EQ(reg.make(name, 0xD00D)->decrypt(ct_vec, len), msg) << name << " len=" << len;
      }
      {
        ScopedBackend forced("avx2");
        EXPECT_EQ(reg.make(name, 0xD00D)->decrypt(ct_scalar, len), msg)
            << name << " len=" << len;
      }
    }
  }
}

}  // namespace
}  // namespace mhhea
