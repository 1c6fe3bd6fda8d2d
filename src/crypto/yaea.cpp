#include "src/crypto/yaea.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/backend/backend.hpp"
#include "src/util/secret.hpp"

namespace mhhea::crypto {
namespace {

/// The backend Geffe kernel's maps, built once per process: per component
/// register the 64-step window update U = M^64 and the lane-stride seeding
/// map M^(64 * backend::kGeffeLaneUnits), plus the registers' process-wide
/// degree-leap tables, packaged as the kernel argument. Public data: they
/// depend on the fixed polynomials only, never on the key.
struct GeffeTables {
  backend::LinearMapTables upd[3];
  backend::LinearMapTables lane[3];
  backend::GeffeKernel kernel{};

  GeffeTables() {
    const int degrees[3] = {GeffeKeystream::kDegreeA, GeffeKeystream::kDegreeB,
                            GeffeKeystream::kDegreeC};
    for (int r = 0; r < 3; ++r) {
      const lfsr::Lfsr reg(degrees[r], 1);
      upd[r] = reg.power_tables(64);
      lane[r] = reg.power_tables(64 * backend::kGeffeLaneUnits);
      kernel.deg[r] = &reg.leap_tables();
      kernel.upd[r] = &upd[r];
      kernel.degree[r] = degrees[r];
    }
  }
};

const GeffeTables& geffe_tables() {
  static const GeffeTables tables;
  return tables;
}

}  // namespace

GeffeKeystream::~GeffeKeystream() {
  a_.wipe_state();
  b_.wipe_state();
  c_.wipe_state();
}

GeffeKeystream::GeffeKeystream(std::uint32_t seed_a, std::uint32_t seed_b,
                               std::uint32_t seed_c)
    : a_(kDegreeA, seed_a), b_(kDegreeB, seed_b), c_(kDegreeC, seed_c) {}

bool GeffeKeystream::next_bit() noexcept {
  const bool a = a_.step();
  const bool b = b_.step();
  const bool c = c_.step();
  return (a && b) || (!a && c);
}

std::uint8_t GeffeKeystream::next_byte() noexcept {
  std::uint8_t v = 0;
  for (int i = 0; i < 8; ++i) v = static_cast<std::uint8_t>(v | (next_bit() << i));
  return v;
}

void GeffeKeystream::next_bytes(std::span<std::uint8_t> out) { run(nullptr, out); }

void GeffeKeystream::xor_bytes(std::span<const std::uint8_t> in,
                               std::span<std::uint8_t> out) {
  if (in.size() != out.size()) {
    throw std::invalid_argument("GeffeKeystream::xor_bytes: span sizes differ");
  }
  run(in.data(), out);
}

void GeffeKeystream::run(const std::uint8_t* in, std::span<std::uint8_t> out) {
  static_assert(kDegreeA <= 24 && kDegreeB <= 24 && kDegreeC <= 24,
                "the backend Geffe kernel applies three state bytes");
  const GeffeTables& tables = geffe_tables();
  const backend::Backend& be = backend::active();
  constexpr std::size_t kPassBytes = backend::kGeffeLaneUnits * 8;
  std::uint32_t a[backend::kMaxLanes] = {static_cast<std::uint32_t>(a_.state())};
  std::uint32_t b[backend::kMaxLanes] = {static_cast<std::uint32_t>(b_.state())};
  std::uint32_t c[backend::kMaxLanes] = {static_cast<std::uint32_t>(c_.state())};
  std::size_t done = 0;
  // Full lane passes: split the run into contiguous lane-pass ranges and
  // step all lanes' registers in lockstep. Worth it from two lane-passes up;
  // engages at 2 KiB runs and covers a 16 KiB message with exactly two full
  // 8-lane passes.
  if (be.lanes() > 1) {
    while (out.size() - done >= 2 * kPassBytes) {
      const std::size_t lanes = std::min(be.lanes(), (out.size() - done) / kPassBytes);
      // Lane l starts where lane l-1 will end: one lane-stride application
      // per register, exact by GF(2) linearity.
      for (std::size_t l = 1; l < lanes; ++l) {
        a[l] = tables.lane[0].apply<3>(a[l - 1]);
        b[l] = tables.lane[1].apply<3>(b[l - 1]);
        c[l] = tables.lane[2].apply<3>(c[l - 1]);
      }
      be.geffe_units(tables.kernel, a, b, c, lanes, in != nullptr ? in + done : nullptr,
                     out.data() + done, backend::kGeffeLaneUnits);
      a[0] = a[lanes - 1];
      b[0] = b[lanes - 1];
      c[0] = c[lanes - 1];
      done += lanes * kPassBytes;
    }
  }
  // Every remaining whole 8-byte unit: one single-lane pass from the
  // registers' own states.
  const std::size_t units = (out.size() - done) / 8;
  be.geffe_units(tables.kernel, a, b, c, 1, in != nullptr ? in + done : nullptr,
                 out.data() + done, units);
  a_.set_state(a[0]);
  b_.set_state(b[0]);
  c_.set_state(c[0]);
  // The tail under 8 bytes: the normative bit-serial generator.
  for (done += units * 8; done < out.size(); ++done) {
    const std::uint8_t k = next_byte();
    out[done] = in != nullptr ? static_cast<std::uint8_t>(in[done] ^ k) : k;
  }
}

Yaea::Yaea(KeyType key)
    : key_(key),
      // Constructing the prototype validates the seeds eagerly (the registry
      // contract: bad configurations fail at construction, not mid-sweep).
      ks_proto_(key.seed_a, key.seed_b, key.seed_c) {}

Yaea::~Yaea() { util::secure_wipe_object(key_); }

std::size_t Yaea::encrypt_into(std::span<const std::uint8_t> msg,
                               std::span<std::uint8_t> out) {
  if (out.size() < msg.size()) {
    throw std::length_error("Yaea::encrypt_into: output buffer too small");
  }
  // Fused keystream-XOR straight between the caller's spans (no staging
  // buffer): every kernel reads its input word before writing the output
  // word at the same offset, so `out` may alias `msg` exactly.
  GeffeKeystream ks = ks_proto_;
  ks.xor_bytes(msg, out.first(msg.size()));
  return msg.size();
}

std::size_t Yaea::decrypt_into(std::span<const std::uint8_t> cipher, std::size_t msg_bytes,
                               std::span<std::uint8_t> out) {
  if (cipher.size() < msg_bytes) {
    throw std::invalid_argument("Yaea::decrypt: ciphertext shorter than message length");
  }
  if (cipher.size() > msg_bytes) {
    throw std::invalid_argument("Yaea::decrypt: trailing ciphertext bytes after message end");
  }
  return encrypt_into(cipher, out);  // XOR stream cipher: decrypt == encrypt
}

}  // namespace mhhea::crypto
