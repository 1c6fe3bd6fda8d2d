#include "src/crypto/yaea.hpp"

#include <stdexcept>

#include "src/backend/backend.hpp"
#include "src/backend/kernels.hpp"
#include "src/util/bits.hpp"
#include "src/util/secret.hpp"

namespace mhhea::crypto {
namespace {

/// The backend Geffe kernel's maps, built once per process: per component
/// register the 64-step unit map U = M^64 that seeds the lanes and the row
/// stride M^(64 * backend::kMaxLanes) that steps them, plus the registers'
/// process-wide degree-leap tables, packaged as the kernel argument. Public
/// data: they depend on the fixed polynomials only, never on the key.
struct GeffeTables {
  backend::LinearMapTables upd[3];
  backend::LinearMapTables row[3];
  backend::GeffeKernel kernel{};

  GeffeTables() {
    const int degrees[3] = {GeffeKeystream::kDegreeA, GeffeKeystream::kDegreeB,
                            GeffeKeystream::kDegreeC};
    for (int r = 0; r < 3; ++r) {
      const lfsr::Lfsr reg(degrees[r], 1);
      upd[r] = reg.power_tables(64);
      row[r] = reg.power_tables(64 * backend::kMaxLanes);
      kernel.deg[r] = &reg.leap_tables();
      kernel.row[r] = &row[r];
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
  constexpr std::size_t kLanes = backend::kMaxLanes;
  const std::size_t units = out.size() / 8;
  if (units > 0) {
    const GeffeTables& t = geffe_tables();
    lfsr::Lfsr* const regs[3] = {&a_, &b_, &c_};
    // Unit k of the span comes from lane k % kLanes: lane l's registers start
    // at unit l, seeded from lane l - 1 by the 64-step map.
    const std::size_t whole = units / kLanes * kLanes;
    std::uint32_t s[3][kLanes]{};
    for (int r = 0; r < 3; ++r) s[r][0] = static_cast<std::uint32_t>(regs[r]->state());
    if (whole > 0) {
      for (int r = 0; r < 3; ++r) {
        for (std::size_t l = 1; l < kLanes; ++l) s[r][l] = t.upd[r].apply<3>(s[r][l - 1]);
      }
      backend::active().geffe_units(t.kernel, s[0], s[1], s[2], in, out.data(), whole / kLanes);
    }
    // Lane 0 now sits at unit `whole`. The units after the last whole row
    // (all of a span under one row) run serially from it, a unit and a
    // 64-step map each, and the registers resume at the first unit not
    // emitted.
    std::uint32_t z[3] = {s[0][0], s[1][0], s[2][0]};
    for (std::size_t k = whole; k < units; ++k) {
      std::uint64_t u = backend::geffe_unit(t.kernel, z[0], z[1], z[2]);
      for (int r = 0; r < 3; ++r) z[r] = t.upd[r].apply<3>(z[r]);
      if (in != nullptr) u ^= util::load_le(in + k * 8, 8);
      util::store_le(out.data() + k * 8, u, 8);
    }
    for (int r = 0; r < 3; ++r) regs[r]->set_state(z[r]);
  }
  // The tail under 8 bytes: the normative bit-serial generator.
  for (std::size_t i = units * 8; i < out.size(); ++i) {
    const std::uint8_t k = next_byte();
    out[i] = in != nullptr ? static_cast<std::uint8_t>(in[i] ^ k) : k;
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
