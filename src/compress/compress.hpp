// Compression pre-stage for the sealed-v2 pipeline.
//
// MHHEA's stego framing hides each plaintext bit inside a cover block, so a
// sealed message expands ~5.3x on the wire. Shrinking the bits fed to the
// hiding stage is the cheapest bandwidth win available: compress-then-encrypt
// with a self-describing envelope embedded as the sealed message
//
//   [1 byte method tag][LEB128 varint raw size][method-specific stream]
//
// while the sealed-v2 header carries the same method tag (flag bit 3 of the
// flags byte + header byte 6, MAC'd with everything else — frame.hpp). The
// cipher adapter falls back to the uncompressed layout whenever the envelope
// would not be strictly smaller than the message, so a compressed frame is
// never larger than its uncompressed twin and incompressible traffic ships
// byte-identical to a compression-disabled build.
//
// Engines (one byte tag each, stable wire values):
//
//   raw     (0)  passthrough — the "compression off" tag; never appears in a
//                frame header (the flag bit is simply left clear).
//   lzss    (1)  LZ77-family byte matcher: groups of eight items behind a
//                flag byte (bit set = literal byte, clear = a 2-byte match
//                token of 12-bit distance-1 and 4-bit length-3 covering
//                matches of 3..18 bytes inside a 4 KiB window). Greedy
//                hash-chain search over 48 KiB of per-instance scratch that
//                no call clears: heads hold offset-stamped positions, so
//                an earlier call's entries read as empty. Matches extend
//                8 bytes per compare, and a candidate that differs at the
//                current best length is skipped unmeasured.
//   huffman (2)  order-0 canonical Huffman: a 128-byte packed-nibble table of
//                per-symbol code lengths (limited to 15 bits, zlib-style
//                overflow redistribution) followed by the MSB-first bitstream,
//                decoded through a 10-bit primary lookup table with a
//                bit-serial walk for longer codes.
//
// Encoding mirrors the cipher `_into` span API: exact and worst-case size
// queries, std::length_error ("output buffer too small") when the caller's
// buffer cannot hold the result, and zero heap allocations once an
// engine's scratch is warmed. An engine keeps reusable scratch and must not
// be shared between threads (same contract as crypto::Cipher). Decoding
// keeps no state: decompress_into is a free function on the stack, safe on
// any thread, and throws std::invalid_argument on a corrupt stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

namespace mhhea::compress {

/// Wire-stable method tags (the envelope's first byte and the sealed-v2
/// header's method byte).
enum class Method : std::uint8_t {
  raw = 0,
  lzss = 1,
  huffman = 2,
};

inline constexpr std::size_t kMethodCount = 3;

/// Bitmask advertising every method this build can open (bit i = tag i) —
/// what the server's hello frame carries during negotiation.
inline constexpr std::uint8_t kMethodMaskAll = 0x07;

[[nodiscard]] constexpr bool method_known(std::uint8_t tag) noexcept {
  return tag < kMethodCount;
}

/// Stable lowercase name for CLI flags and bench labels.
[[nodiscard]] const char* method_name(Method method) noexcept;
/// Inverse of method_name; std::invalid_argument on an unknown name.
[[nodiscard]] Method method_from_name(std::string_view name);

// --- LEB128 varint (the envelope's raw-size field) -------------------------

/// Encoded bytes of `v` (1..10).
[[nodiscard]] std::size_t varint_size(std::uint64_t v) noexcept;
/// Encode `v` into the front of `out`, returning the bytes written.
/// std::length_error when `out` cannot hold it.
std::size_t varint_encode(std::uint64_t v, std::span<std::uint8_t> out);
/// Decode from the front of `in` into `*value`, returning the bytes
/// consumed. std::invalid_argument on truncation or a value overflowing 64
/// bits.
std::size_t varint_decode(std::span<const std::uint8_t> in, std::uint64_t* value);

/// Cheap sampled distinct-byte-count probe: false means `in` is almost
/// certainly incompressible (near-uniform bytes) and the compression attempt
/// should be skipped outright — this is what bounds the overhead on random
/// payloads. False negatives only cost ratio (a structured-but-high-entropy
/// input skips compression); correctness never depends on the answer because
/// the sealer's fallback compares actual sizes.
[[nodiscard]] bool probably_compressible(std::span<const std::uint8_t> in) noexcept;

/// Upper bound on the decoded size any well-formed `stream_bytes`-byte
/// `method` stream can declare — the sanity cap an opener checks a received
/// raw size against before allocating.
[[nodiscard]] std::size_t max_decoded_size(Method method, std::size_t stream_bytes) noexcept;

/// Decompress a `method` stream that must decode to exactly `raw_size`
/// bytes. std::invalid_argument on an unknown method, a truncated/corrupt
/// stream or a size mismatch; std::length_error when `out` is shorter than
/// `raw_size`. Returns `raw_size`.
std::size_t decompress_into(Method method, std::span<const std::uint8_t> in,
                            std::size_t raw_size, std::span<std::uint8_t> out);

/// One compression engine with reusable per-instance scratch.
class Compressor {
 public:
  virtual ~Compressor() = default;
  Compressor() = default;
  Compressor(const Compressor&) = delete;
  Compressor& operator=(const Compressor&) = delete;

  [[nodiscard]] virtual Method method() const noexcept = 0;

  /// Cheap closed-form worst case for an `n`-byte input: a buffer this size
  /// always holds compress_into's stream, whose exact size is its return.
  [[nodiscard]] virtual std::size_t max_compressed_size(std::size_t n) const noexcept = 0;

  /// Compress `in` into `out`, returning the stream bytes written.
  /// std::length_error when `out` is too small (size it with
  /// max_compressed_size).
  virtual std::size_t compress_into(std::span<const std::uint8_t> in,
                                    std::span<std::uint8_t> out) = 0;
  /// The free decompress_into for this engine's method; uses none of the
  /// engine's scratch.
  std::size_t decompress_into(std::span<const std::uint8_t> in, std::size_t raw_size,
                              std::span<std::uint8_t> out) const {
    return compress::decompress_into(method(), in, raw_size, out);
  }
};

/// Fresh engine for `method`; std::invalid_argument on an unknown tag.
[[nodiscard]] std::unique_ptr<Compressor> make_compressor(Method method);

}  // namespace mhhea::compress
