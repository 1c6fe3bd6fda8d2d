#include "src/lfsr/lfsr.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/backend/backend.hpp"
#include "src/util/bits.hpp"
#include "src/util/secret.hpp"

namespace mhhea::lfsr {
namespace {

/// Expand transition-matrix columns (basis[b] = image of state bit b) to
/// per-byte XOR tables by linearity: T[v] = T[v minus lowest bit] XOR
/// basis[lowest bit]. Shared by the degree-leap and arbitrary-power builds.
void expand_columns(const std::array<std::uint32_t, 32>& basis, int degree,
                    backend::LinearMapTables& tables) {
  for (int byte = 0; byte < 4; ++byte) {
    auto& t = tables.t[static_cast<std::size_t>(byte)];
    t[0] = 0;
    for (unsigned v = 1; v < 256; ++v) {
      const int bit = byte * 8 + std::countr_zero(v);
      const std::uint32_t col = bit < degree ? basis[static_cast<std::size_t>(bit)] : 0;
      t[v] = t[v & (v - 1)] ^ col;
    }
  }
}

}  // namespace

Lfsr::Lfsr(Polynomial poly, std::uint64_t seed)
    : poly_(poly),
      fib_mask_(poly.mask & util::mask64(poly.degree)),
      state_(seed & util::mask64(poly.degree)) {
  if (poly.degree < 2 || poly.degree > 32 || util::get_bit(poly.mask, 0) == 0 ||
      util::get_bit(poly.mask, poly.degree) == 0) {
    throw std::invalid_argument("Lfsr: malformed feedback polynomial");
  }
  if (state_ == 0) {
    throw std::invalid_argument("Lfsr: seed must be non-zero in the low degree bits");
  }
}

bool Lfsr::step() noexcept {
  const bool out = (state_ & 1) != 0;
  const std::uint64_t fb = util::parity64(state_ & fib_mask_);
  state_ = (state_ >> 1) | (fb << (poly_.degree - 1));
  return out;
}

void Lfsr::advance(std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) (void)step();
}

const Lfsr::StepMatrix& Lfsr::step_matrix() {
  if (step_m_ == nullptr) {
    // Column b: where basis state 1<<b lands after a single step() — probing
    // the register keeps the map bit-exact with it. Cached and shared by
    // copies like the leap tables.
    auto m = std::make_shared<StepMatrix>();
    for (int b = 0; b < poly_.degree; ++b) {
      Lfsr probe(poly_, std::uint64_t{1} << b);
      (void)probe.step();
      (*m)[static_cast<std::size_t>(b)] = static_cast<std::uint32_t>(probe.state_);
    }
    step_m_ = std::move(m);
  }
  return *step_m_;
}

std::uint32_t Lfsr::mat_vec(const StepMatrix& a, std::uint32_t v, int d) noexcept {
  std::uint32_t r = 0;
  while (v != 0) {
    const int b = std::countr_zero(v);
    if (b >= d) break;  // state is confined to the low d bits
    r ^= a[static_cast<std::size_t>(b)];
    v &= v - 1;
  }
  return r;
}

backend::LinearMapTables Lfsr::power_tables(std::uint64_t steps) {
  const int d = poly_.degree;
  StepMatrix m = step_matrix();
  // Square-and-multiply on whole matrices: r starts as the identity and
  // accumulates M^(2^k) for each set bit of `steps`.
  std::array<std::uint32_t, 32> r{};
  for (int b = 0; b < d; ++b) r[static_cast<std::size_t>(b)] = std::uint32_t{1} << b;
  while (steps != 0) {
    if ((steps & 1) != 0) {
      for (int j = 0; j < d; ++j) {
        r[static_cast<std::size_t>(j)] = mat_vec(m, r[static_cast<std::size_t>(j)], d);
      }
    }
    steps >>= 1;
    if (steps != 0) {
      StepMatrix sq{};
      for (int j = 0; j < d; ++j) {
        sq[static_cast<std::size_t>(j)] = mat_vec(m, m[static_cast<std::size_t>(j)], d);
      }
      m = sq;
    }
  }
  backend::LinearMapTables out;
  expand_columns(r, d, out);
  return out;
}

const Lfsr::LeapTables& Lfsr::leap_tables() {
  if (leap_ == nullptr) {
    auto tables = std::make_shared<LeapTables>();
    // Column b of the degree-step transition matrix: the state a single-bit
    // start state reaches after `degree` plain steps. Deriving the tables
    // from step() itself guarantees bit-exactness.
    std::array<std::uint32_t, 32> basis{};
    for (int b = 0; b < poly_.degree; ++b) {
      Lfsr probe(poly_, std::uint64_t{1} << b);
      probe.advance(static_cast<std::uint64_t>(poly_.degree));
      basis[static_cast<std::size_t>(b)] = static_cast<std::uint32_t>(probe.state_);
    }
    expand_columns(basis, poly_.degree, *tables);
    leap_ = std::move(tables);
  }
  return *leap_;
}

std::shared_ptr<const backend::LinearMapTables> Lfsr::shared_leap_tables() {
  (void)leap_tables();
  return leap_;
}

std::uint64_t Lfsr::next_block() {
  const LeapTables& t = leap_tables();
  const auto s = static_cast<std::uint32_t>(state_);
  state_ = poly_.degree <= 16 ? t.apply<2>(s) : t.apply<4>(s);
  return state_;
}

void Lfsr::next_blocks(std::span<std::uint64_t> out) {
  const LeapTables& t = leap_tables();
  const backend::Backend& be = backend::active();
  constexpr std::size_t kPass = backend::kLfsrLaneBlocks;
  std::uint32_t states[backend::kMaxLanes] = {static_cast<std::uint32_t>(state_)};
  std::size_t done = 0;
  // Full lane passes from two lane-passes up (below that the seeding
  // application per lane outweighs the lockstep win).
  if (be.lanes() > 1 && out.size() >= 2 * kPass) {
    if (lane_adv_ == nullptr) {
      lane_adv_ = std::make_shared<const LeapTables>(
          power_tables(kPass * static_cast<std::uint64_t>(poly_.degree)));
    }
    while (out.size() - done >= 2 * kPass) {
      const std::size_t lanes = std::min(be.lanes(), (out.size() - done) / kPass);
      // Lane l starts where lane l-1 will end: one lane-stride application
      // per seed, exact by GF(2) linearity (no replay).
      for (std::size_t l = 1; l < lanes; ++l) states[l] = lane_adv_->apply(states[l - 1]);
      be.lfsr_blocks(t, poly_.degree, states, lanes, out.data() + done, kPass);
      states[0] = states[lanes - 1];  // final block of the last lane
      done += lanes * kPass;
    }
  }
  // The rest is one single-lane pass from the register's own state.
  be.lfsr_blocks(t, poly_.degree, states, 1, out.data() + done, out.size() - done);
  state_ = states[0];
}

void Lfsr::set_state(std::uint64_t state) {
  state &= util::mask64(poly_.degree);
  if (state == 0) {
    throw std::invalid_argument("Lfsr: state must be non-zero in the low degree bits");
  }
  state_ = state;
}

void Lfsr::wipe_state() noexcept { util::secure_wipe_object(state_); }

Lfsr make_hiding_vector_lfsr(std::uint16_t seed) {
  return Lfsr(primitive_polynomial(16), seed);
}

}  // namespace mhhea::lfsr
