// Linear Feedback Shift Register (Fibonacci form).
//
// This is the paper's "Random Number Generator" module (§3.6): the hiding
// vector V is read from a maximal-length LFSR. The bit-serial step() is the
// normative register; every faster path (the degree-leap next_block, the
// power maps the backend kernels gather from) is derived from it by probing
// step() on basis states, so all of them are bit-exact with it by
// construction — the differential reference model and the KAT fixtures pin
// that.
//
// Stepping convention (derived from the polynomial, see lfsr_test.cpp):
//   state bit i holds sequence element s_{n+i}; the oldest bit (s_n) is
//   bit 0 and is emitted by step(); the new bit s_{n+d} enters at bit d-1,
//   s_{n+d} = parity(state & (mask & ~x^d term)).
// The sequence's period is the order of x mod the polynomial — 2^d - 1 when
// the polynomial is primitive.
#pragma once

#include <cstdint>
#include <span>

#include "src/backend/tables.hpp"

namespace mhhea::lfsr {

class Lfsr {
 public:
  /// The degree-`degree` register on its table polynomial
  /// (primitive_polynomial(degree)) with a non-zero seed (low `degree` bits
  /// are used). Throws std::invalid_argument on a zero seed (an LFSR parked
  /// at state 0 never leaves it) and std::out_of_range on a degree outside
  /// 2..32.
  Lfsr(int degree, std::uint64_t seed);

  /// Shift once; returns the output bit (the oldest state bit).
  bool step() noexcept;

  /// Advance `n` steps, discarding output.
  void advance(std::uint64_t n) noexcept;

  /// Advance `degree` steps and return the new state — one "fresh" block.
  /// This is the hiding-vector source: for the paper's 16-bit LFSR, each
  /// call yields the next V ("Generate 16-bit randomly and set them in V").
  ///
  /// Implemented as a GF(2) leap: the `degree`-step transition is linear, so
  /// it collapses to a handful of byte-indexed table lookups in the
  /// process-wide tables of this degree (leap_tables()). Bit-identical to
  /// advance(degree) — the tables are derived by running step() on basis
  /// states.
  [[nodiscard]] std::uint64_t next_block() noexcept;

  /// Fill `out` with successive next_block() values (the word-at-a-time
  /// hiding-vector port).
  ///
  /// Spans of two or more rows of backend::kMaxLanes blocks run as
  /// interleaved lanes: the first row is stepped serially, block k then
  /// comes from lane k % kMaxLanes, and the active backend's lfsr_blocks
  /// kernel steps every lane by this degree's row stride
  /// (M^(kMaxLanes * degree)), emitting whole rows of contiguous blocks.
  /// Fewer than a row of blocks left over, and spans shorter than two rows,
  /// run serially. Bit-identical to repeated next_block() for every span
  /// size and backend, including the state left behind.
  void next_blocks(std::span<std::uint64_t> out);

  /// Jump to an explicit state (low `degree` bits; must be non-zero after
  /// masking, or std::invalid_argument). Lets a resettable cover source
  /// re-seed in place.
  void set_state(std::uint64_t state);

  /// Zero the register state with a non-elidable store (util::secure_wipe).
  /// For key-bearing registers (the Geffe components, whose seeds ARE the
  /// YAEA-S key) the owner calls this on destruction; cover registers don't
  /// need it — their seed is a nonce, not key material (see cover.hpp). The
  /// register is unusable afterwards (state 0 is the parked state) until
  /// set_state() re-seeds it.
  void wipe_state() noexcept;

  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }
  [[nodiscard]] int degree() const noexcept { return degree_; }

  /// Maximum period for this degree: 2^degree - 1.
  [[nodiscard]] std::uint64_t max_period() const noexcept {
    return (std::uint64_t{1} << degree_) - 1;
  }

  /// The degree-step leap tables — what the backend kernels gather from.
  /// Every register of one degree shares one immutable copy, built on the
  /// first construction of that degree in the process and alive until exit.
  /// The paper's normative register is still step(): these tables are
  /// derived from it, never the reverse.
  [[nodiscard]] const backend::LinearMapTables& leap_tables() const noexcept;

  /// Byte tables of the `steps`-step transition map M^steps, built by
  /// square-and-multiply on the probed one-step matrix — the general form
  /// of the leap tables (steps == degree). The single-step transition is
  /// GF(2)-linear and the matrix is derived by probing step() on basis
  /// states, so applying the tables is bit-identical to advance(steps).
  /// This is how the Geffe kernel's 64-step update map is made; each call
  /// builds fresh tables (callers cache what they keep).
  [[nodiscard]] backend::LinearMapTables power_tables(std::uint64_t steps) const;

 private:
  /// The public per-degree maps (defined in lfsr.cpp): one slot per degree,
  /// filled once per process.
  struct DegreeTables;
  [[nodiscard]] static const DegreeTables& tables_for(int degree);

  const DegreeTables* tables_;
  std::uint64_t state_;
  int degree_;
};

}  // namespace mhhea::lfsr
