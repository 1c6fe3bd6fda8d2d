#include "src/lfsr/lfsr.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <stdexcept>

#include "src/backend/backend.hpp"
#include "src/lfsr/polynomials.hpp"
#include "src/util/bits.hpp"
#include "src/util/secret.hpp"

namespace mhhea::lfsr {
namespace {

/// Columns of a transition matrix: column b is the image of state bit b.
using Columns = std::array<std::uint32_t, 32>;

std::uint64_t step_state(std::uint64_t s, std::uint64_t fib_mask, int degree) noexcept {
  const std::uint64_t fb = util::parity64(s & fib_mask);
  return (s >> 1) | (fb << (degree - 1));
}

/// M applied to v: the XOR of the columns of v's set bits.
std::uint32_t mat_vec(const Columns& a, std::uint32_t v, int d) noexcept {
  std::uint32_t r = 0;
  while (v != 0) {
    const int b = std::countr_zero(v);
    if (b >= d) break;  // state is confined to the low d bits
    r ^= a[static_cast<std::size_t>(b)];
    v &= v - 1;
  }
  return r;
}

/// Byte tables of M^steps from the one-step columns `step`: square-and-
/// multiply on whole matrices (r starts as the identity and accumulates
/// M^(2^k) for each set bit of `steps`), then expanded per state byte by
/// linearity: T[v] = T[v minus lowest bit] XOR column[lowest bit].
backend::LinearMapTables power_of(const Columns& step, int d, std::uint64_t steps) {
  Columns m = step;
  Columns r{};
  for (int b = 0; b < d; ++b) r[static_cast<std::size_t>(b)] = std::uint32_t{1} << b;
  while (steps != 0) {
    if ((steps & 1) != 0) {
      for (int j = 0; j < d; ++j) {
        r[static_cast<std::size_t>(j)] = mat_vec(m, r[static_cast<std::size_t>(j)], d);
      }
    }
    steps >>= 1;
    if (steps != 0) {
      Columns sq{};
      for (int j = 0; j < d; ++j) {
        sq[static_cast<std::size_t>(j)] = mat_vec(m, m[static_cast<std::size_t>(j)], d);
      }
      m = sq;
    }
  }
  backend::LinearMapTables out;
  for (int byte = 0; byte < 4; ++byte) {
    auto& t = out.t[static_cast<std::size_t>(byte)];
    t[0] = 0;
    for (unsigned v = 1; v < 256; ++v) {
      const int bit = byte * 8 + std::countr_zero(v);
      t[v] = t[v & (v - 1)] ^ (bit < d ? r[static_cast<std::size_t>(bit)] : 0);
    }
  }
  return out;
}

}  // namespace

/// What every register of one degree shares: the one-step matrix probed from
/// step(), the degree leap M^degree (one next_block) and the row stride
/// M^(kMaxLanes * degree) that steps next_blocks' interleaved lanes. All
/// depend on the public polynomial only.
struct Lfsr::DegreeTables {
  std::uint64_t fib_mask;  // the polynomial's feedback taps
  Columns step;
  backend::LinearMapTables leap;
  backend::LinearMapTables row_stride;
};

const Lfsr::DegreeTables& Lfsr::tables_for(int degree) {
  const Polynomial poly = primitive_polynomial(degree);  // range-checks degree
  struct Slot {
    std::once_flag once;
    DegreeTables tables;
  };
  static Slot slots[33];
  Slot& slot = slots[degree];
  std::call_once(slot.once, [&] {
    DegreeTables& t = slot.tables;
    // Column b: where basis state 1<<b lands after a single step() — probing
    // the register keeps every map bit-exact with it.
    t.fib_mask = poly.mask & util::mask64(degree);
    for (int b = 0; b < degree; ++b) {
      t.step[static_cast<std::size_t>(b)] =
          static_cast<std::uint32_t>(step_state(std::uint64_t{1} << b, t.fib_mask, degree));
    }
    t.leap = power_of(t.step, degree, static_cast<std::uint64_t>(degree));
    t.row_stride =
        power_of(t.step, degree, backend::kMaxLanes * static_cast<std::uint64_t>(degree));
  });
  return slot.tables;
}

Lfsr::Lfsr(int degree, std::uint64_t seed)
    : tables_(&tables_for(degree)),
      state_(seed & util::mask64(degree)),
      degree_(degree) {
  if (state_ == 0) {
    throw std::invalid_argument("Lfsr: seed must be non-zero in the low degree bits");
  }
}

bool Lfsr::step() noexcept {
  const bool out = (state_ & 1) != 0;
  state_ = step_state(state_, tables_->fib_mask, degree_);
  return out;
}

void Lfsr::advance(std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) (void)step();
}

const backend::LinearMapTables& Lfsr::leap_tables() const noexcept { return tables_->leap; }

backend::LinearMapTables Lfsr::power_tables(std::uint64_t steps) const {
  return power_of(tables_->step, degree_, steps);
}

std::uint64_t Lfsr::next_block() noexcept {
  const auto s = static_cast<std::uint32_t>(state_);
  state_ = degree_ <= 16 ? tables_->leap.apply<2>(s) : tables_->leap.apply<4>(s);
  return state_;
}

void Lfsr::next_blocks(std::span<std::uint64_t> out) {
  constexpr std::size_t kLanes = backend::kMaxLanes;
  const std::size_t rows = out.size() / kLanes;
  // The first row runs serially (the whole span when it is shorter), and
  // its blocks seed the lanes: block k of the span comes from lane
  // k % kLanes.
  std::size_t k = std::min(out.size(), kLanes);
  for (std::size_t i = 0; i < k; ++i) out[i] = next_block();
  if (rows > 1) {
    std::uint32_t states[kLanes]{};
    std::copy_n(out.begin(), kLanes, states);
    backend::active().lfsr_blocks(tables_->row_stride, degree_, states, out.data() + kLanes,
                                  rows - 1);
    state_ = states[kLanes - 1];  // the last block of the last row
    k = rows * kLanes;
  }
  // Fewer than one row left: serially from the last block.
  for (; k < out.size(); ++k) out[k] = next_block();
}

void Lfsr::set_state(std::uint64_t state) {
  state &= util::mask64(degree_);
  if (state == 0) {
    throw std::invalid_argument("Lfsr: state must be non-zero in the low degree bits");
  }
  state_ = state;
}

void Lfsr::wipe_state() noexcept { util::secure_wipe_object(state_); }

}  // namespace mhhea::lfsr
