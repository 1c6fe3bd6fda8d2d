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

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "src/backend/tables.hpp"
#include "src/lfsr/polynomials.hpp"

namespace mhhea::lfsr {

class Lfsr {
 public:
  /// Construct with a feedback polynomial and a non-zero seed (low `degree`
  /// bits are used). Throws std::invalid_argument on a zero seed or a
  /// malformed polynomial (an LFSR parked at state 0 never leaves it).
  Lfsr(Polynomial poly, std::uint64_t seed);

  /// Shift once; returns the output bit (the oldest state bit).
  bool step() noexcept;

  /// Advance `n` steps, discarding output.
  void advance(std::uint64_t n) noexcept;

  /// Advance `degree` steps and return the new state — one "fresh" block.
  /// This is the hiding-vector source: for the paper's 16-bit LFSR, each
  /// call yields the next V ("Generate 16-bit randomly and set them in V").
  ///
  /// Implemented as a GF(2) leap: the `degree`-step transition is linear, so
  /// it collapses to a handful of byte-indexed table lookups (built lazily on
  /// first use and shared across copies). Bit-identical to advance(degree) —
  /// the table is derived by running step() on basis states.
  [[nodiscard]] std::uint64_t next_block();

  /// Fill `out` with successive next_block() values (the word-at-a-time
  /// hiding-vector port: one table-lookup chain per block, one backend
  /// call per pass).
  ///
  /// Every block comes from the active backend's lfsr_blocks kernel. Spans
  /// of at least two lane-passes (2 * backend::kLfsrLaneBlocks blocks) on a
  /// multi-lane engine first run full passes: the span is split into
  /// contiguous lanes, each lane's start state seeded by one application of
  /// the precomputed lane-stride map (M^(kLfsrLaneBlocks * degree)), and
  /// all lanes stepped in lockstep — 8 per AVX2 register. The rest (all of
  /// it on the scalar engine) is one single-lane pass starting at the
  /// register's own state. Bit-identical to repeated next_block() for every
  /// span size and backend, including the state left behind.
  void next_blocks(std::span<std::uint64_t> out);

  /// Jump to an explicit state (low `degree` bits; must be non-zero after
  /// masking, or std::invalid_argument). Lets a resettable cover source
  /// re-seed without rebuilding the leap tables.
  void set_state(std::uint64_t state);

  /// Zero the register state with a non-elidable store (util::secure_wipe).
  /// For key-bearing registers (the Geffe components, whose seeds ARE the
  /// YAEA-S key) the owner calls this on destruction; cover registers don't
  /// need it — their seed is a nonce, not key material (see cover.hpp). The
  /// register is unusable afterwards (state 0 is the parked state) until
  /// set_state() re-seeds it.
  void wipe_state() noexcept;

  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }
  [[nodiscard]] int degree() const noexcept { return poly_.degree; }
  [[nodiscard]] const Polynomial& polynomial() const noexcept { return poly_; }

  /// Maximum period for this degree: 2^degree - 1.
  [[nodiscard]] std::uint64_t max_period() const noexcept {
    return (std::uint64_t{1} << poly_.degree) - 1;
  }

  /// The degree-step leap tables as shared plain data — what the backend
  /// kernels gather from. Built lazily (first call pays the probe +
  /// expansion; copies share the result). The paper's normative register is
  /// still step(): these tables are derived from it, never the reverse.
  [[nodiscard]] std::shared_ptr<const backend::LinearMapTables> shared_leap_tables();

  /// Byte tables of the `steps`-step transition map M^steps, built by
  /// square-and-multiply on the probed one-step matrix — the general form
  /// of the leap tables (steps == degree). The single-step transition is
  /// GF(2)-linear and the matrix is derived by probing step() on basis
  /// states, so applying the tables is bit-identical to advance(steps).
  /// This is how the Geffe kernel's 64-step update map and the lane-stride
  /// seeding maps are made; each call builds fresh tables (callers cache
  /// what they keep).
  [[nodiscard]] backend::LinearMapTables power_tables(std::uint64_t steps);

 private:
  /// Per-byte leap tables: state after `degree` steps is the XOR of
  /// leap[b][byte b of state] over the (up to 4) state bytes.
  using LeapTables = backend::LinearMapTables;
  /// Columns of the one-step transition matrix (power_tables' starting
  /// point).
  using StepMatrix = std::array<std::uint32_t, 32>;

  const LeapTables& leap_tables();
  const StepMatrix& step_matrix();
  /// M applied to basis columns: r[j] <- a * v for each state bit j.
  static std::uint32_t mat_vec(const StepMatrix& a, std::uint32_t v, int d) noexcept;

  Polynomial poly_;
  std::uint64_t fib_mask_;  // taps for the feedback parity
  std::uint64_t state_;
  std::shared_ptr<const LeapTables> leap_;    // built lazily, shared by copies
  std::shared_ptr<const StepMatrix> step_m_;  // built lazily, shared by copies
  /// Lane seeding map M^(backend::kLfsrLaneBlocks * degree) for multi-lane
  /// next_blocks; built lazily on the first span large enough to use it.
  std::shared_ptr<const LeapTables> lane_adv_;
};

/// The paper's hiding-vector generator: degree-16 primitive LFSR. Seed must
/// be non-zero in the low 16 bits.
[[nodiscard]] Lfsr make_hiding_vector_lfsr(std::uint16_t seed);

}  // namespace mhhea::lfsr
