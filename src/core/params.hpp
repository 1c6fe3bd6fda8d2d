// Block geometry for the (generalized) MHHEA cipher.
//
// The paper's design uses a 16-bit hiding vector: the low byte receives the
// hidden message bits, the high byte is the location-scrambling source and is
// never modified. §VI explicitly calls out that "the size of the hiding
// vector registers [can] be varied — increasing the register size leads to a
// higher security level". BlockParams captures that extension: the vector is
// N bits (N in {16, 32, 64}), locations live in the low N/2 bits, the
// scramble field is read from the high N/2 bits, and key values are
// log2(N/2)-bit integers. N = 16 reproduces the paper exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "src/util/bits.hpp"

namespace mhhea::core {

/// How message bits are framed into hiding-vector blocks (DESIGN.md §3).
enum class FramePolicy {
  /// Paper pseudocode: the message bit index m streams continuously across
  /// blocks until EOF.
  continuous,
  /// Hardware semantics: the message is processed in half-vector-sized
  /// frames (16 bits for N=16, matching the Message Alignment buffer); the
  /// last block of a frame embeds only the frame's remaining bits.
  framed,
};

struct BlockParams {
  /// Hiding-vector width N in bits. Must be 16, 32 or 64.
  int vector_bits = 16;
  FramePolicy policy = FramePolicy::continuous;

  /// The paper's configuration: 16-bit vector, pseudocode framing.
  [[nodiscard]] static constexpr BlockParams paper() noexcept { return {}; }
  /// The micro-architecture's configuration: 16-bit vector, framed.
  [[nodiscard]] static constexpr BlockParams hardware() noexcept {
    return {16, FramePolicy::framed};
  }

  /// Width of the location space (and of the message frame): N/2.
  [[nodiscard]] constexpr int half() const noexcept { return vector_bits / 2; }
  /// Bits per key integer: log2(N/2) — 3 for the paper's N=16.
  [[nodiscard]] constexpr int loc_bits() const noexcept {
    return util::clog2(static_cast<std::uint64_t>(half()));
  }
  /// Largest legal key value: N/2 - 1 (7 in the paper).
  [[nodiscard]] constexpr int max_key_value() const noexcept { return half() - 1; }
  /// Bytes per ciphertext block.
  [[nodiscard]] constexpr int block_bytes() const noexcept { return vector_bits / 8; }

  /// Framed policy: the bit budget of a frame opened with `remaining`
  /// message bits left — vector_bits, except the short final frame. One
  /// frame always fits a 64-bit word, which is what lets the frame-batched
  /// paths move a whole frame's message bits per pass. Shared by the
  /// encryptor/decryptor cores and HHEA so the frame walk cannot drift
  /// between them.
  [[nodiscard]] constexpr int frame_budget(std::uint64_t remaining) const noexcept {
    return static_cast<int>(std::min<std::uint64_t>(
        remaining, static_cast<std::uint64_t>(vector_bits)));
  }

  void validate() const {
    if (vector_bits != 16 && vector_bits != 32 && vector_bits != 64) {
      throw std::invalid_argument("BlockParams: vector_bits must be 16, 32 or 64");
    }
  }

  friend constexpr bool operator==(const BlockParams&, const BlockParams&) = default;
};

}  // namespace mhhea::core
