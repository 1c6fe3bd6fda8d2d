#include "src/compress/compress.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace mhhea::compress {

namespace {

[[noreturn]] void throw_out_too_small(const char* who) {
  throw std::length_error(std::string(who) + ": output buffer too small");
}

// ---------------------------------------------------------------------------
// raw: the identity engine. Kept as a real Compressor so the method axis is
// uniform in tests and benches; the sealer never embeds a raw envelope (it
// just leaves the header's compression flag clear).

class RawCompressor final : public Compressor {
 public:
  [[nodiscard]] Method method() const noexcept override { return Method::raw; }

  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const noexcept override {
    return n;
  }

  std::size_t compress_into(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) override {
    if (out.size() < in.size()) throw_out_too_small("RawCompressor::compress_into");
    if (!in.empty()) std::memcpy(out.data(), in.data(), in.size());
    return in.size();
  }
};

std::size_t raw_decode(std::span<const std::uint8_t> in, std::size_t raw_size,
                       std::span<std::uint8_t> out) {
  if (in.size() != raw_size) {
    throw std::invalid_argument("raw: stream size does not match declared size");
  }
  if (out.size() < raw_size) throw_out_too_small("raw decode");
  if (raw_size != 0) std::memcpy(out.data(), in.data(), raw_size);
  return raw_size;
}

// ---------------------------------------------------------------------------
// LZSS: flag-grouped literals/matches over a 4 KiB window.
//
// Stream grammar: repeated groups of up to eight items behind one flag byte;
// bit i (LSB first) set means item i is a literal byte, clear means a 2-byte
// match token — low byte = distance-1 bits 0..7, high byte = distance-1 bits
// 8..11 in its low nibble and length-3 in its high nibble (lengths 3..18,
// distances 1..4096). The final group may hold fewer than eight items; the
// declared raw size tells the decoder where to stop.
//
// Matching is greedy with a hash-chain search (image_comp/smac-style): 3-byte
// hash heads plus a window-sized ring of previous links (zlib's
// prev[pos & wmask]), both fixed-size per-instance scratch that no call
// clears (entries carry an offset stamp), chain walks capped so worst-case
// inputs stay linear.

constexpr std::size_t kWindow = 4096;  // 12-bit distances
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 18;  // kMinMatch + 4-bit length

class LzssCompressor final : public Compressor {
 public:
  [[nodiscard]] Method method() const noexcept override { return Method::lzss; }

  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const noexcept override {
    // All-literal stream: n literal bytes plus one flag byte per 8 items.
    return n + (n + 7) / 8;
  }

  std::size_t compress_into(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) override {
    const std::size_t n = in.size();
    // This call stamps position pos as base + pos. The base moves on by at
    // least a window per call, before anything can throw, so every entry an
    // earlier call left sits below it and reads as empty. Only when the
    // stamps would wrap 32 bits are the heads cleared.
    const std::size_t advance = std::max(n, kWindow);
    if (advance > std::numeric_limits<std::uint32_t>::max() - base_) {
      head_.fill(0);
      base_ = 1;
    }
    const std::uint32_t base = base_;
    base_ += static_cast<std::uint32_t>(advance);

    const std::uint8_t* const src = in.data();
    std::size_t op = 0;
    const auto put = [&](std::uint8_t b) {
      if (op >= out.size()) throw_out_too_small("LzssCompressor::compress_into");
      out[op++] = b;
    };
    const auto insert = [&](std::size_t pos) {
      const std::uint32_t stamp = base + static_cast<std::uint32_t>(pos);
      const std::uint32_t h = hash3(src + pos);
      prev_[stamp & (kWindow - 1)] = head_[h];
      head_[h] = stamp;
    };

    std::size_t ip = 0;
    std::size_t flag_pos = 0;
    std::uint8_t flag = 0;
    int items = 0;
    while (ip < n) {
      if (items == 0) {
        flag_pos = op;
        flag = 0;
        put(0);  // patched at group end
      }
      std::size_t best_len = 0;
      std::size_t best_dist = 0;
      if (ip + kMinMatch <= n) {
        const std::uint8_t* const p = src + ip;
        const std::size_t limit = std::min(kMaxMatch, n - ip);
        // Word compares read up to kWordSpan bytes from p; nearer the end,
        // compare bytes.
        const bool words = ip + kWordSpan <= n;
        const std::uint32_t cur = base + static_cast<std::uint32_t>(ip);
        std::uint32_t cand = head_[hash3(p)];
        for (int chain = kMaxChain; chain > 0; --chain, cand = prev_[cand & (kWindow - 1)]) {
          // Chains are position-ordered. In the window, cand's ring slot is
          // not yet reused: the next to reuse it is cand + kWindow >= cur.
          if (cand < base || cur - cand > kWindow) break;
          const std::size_t dist = cur - cand;
          const std::uint8_t* const q = p - dist;
          // A candidate that differs at best_len cannot beat it; it still
          // counts against the chain cap.
          if (q[best_len] != p[best_len]) continue;
          const std::size_t len = words ? match_words(p, q) : match_bytes(p, q, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = dist;
            if (len == limit) break;
          }
        }
      }
      if (best_len >= kMinMatch) {
        const std::uint32_t dist1 = static_cast<std::uint32_t>(best_dist - 1);
        const std::uint32_t len3 = static_cast<std::uint32_t>(best_len - kMinMatch);
        put(static_cast<std::uint8_t>(dist1 & 0xFF));
        put(static_cast<std::uint8_t>((dist1 >> 8) | (len3 << 4)));
        // Every covered position with kMinMatch bytes left to hash.
        const std::size_t stop = std::min(ip + best_len, n - kMinMatch + 1);
        for (std::size_t pos = ip; pos < stop; ++pos) insert(pos);
        ip += best_len;
      } else {
        flag |= static_cast<std::uint8_t>(1u << items);
        put(in[ip]);
        if (ip + kMinMatch <= n) insert(ip);
        ++ip;
      }
      if (++items == 8) {
        out[flag_pos] = flag;
        items = 0;
      }
    }
    if (items != 0) out[flag_pos] = flag;
    return op;
  }

 private:
  static constexpr std::size_t kHashBits = 13;
  static constexpr int kMaxChain = 32;
  // Bytes the word compare may read from a match start: kMaxMatch rounded
  // up to whole 8-byte words.
  static constexpr std::size_t kWordSpan = (kMaxMatch + 7) / 8 * 8;

  static std::uint32_t hash3(const std::uint8_t* p) noexcept {
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 0x9E3779B1u) >> (32 - kHashBits);
  }

  static std::uint64_t load64(const std::uint8_t* p) noexcept {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
  }

  /// Common prefix of p and q, capped at kMaxMatch; reads kWordSpan bytes.
  static std::size_t match_words(const std::uint8_t* p, const std::uint8_t* q) noexcept {
    for (std::size_t len = 0; len < kMaxMatch; len += 8) {
      const std::uint64_t diff = load64(p + len) ^ load64(q + len);
      if (diff != 0) {
        const int bit = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                   : std::countl_zero(diff);
        return std::min(len + static_cast<std::size_t>(bit) / 8, kMaxMatch);
      }
    }
    return kMaxMatch;
  }

  /// Common prefix of p and q, capped at `limit`.
  static std::size_t match_bytes(const std::uint8_t* p, const std::uint8_t* q,
                                 std::size_t limit) noexcept {
    std::size_t len = 0;
    while (len < limit && q[len] == p[len]) ++len;
    return len;
  }

  // Match-search scratch, 48 KiB whatever the input size: per 3-byte hash
  // the stamp of its latest position, and the previous link of each of the
  // last kWindow stamps. An entry below the current base is empty.
  std::array<std::uint32_t, std::size_t{1} << kHashBits> head_{};
  std::array<std::uint32_t, kWindow> prev_{};
  std::uint32_t base_ = 1;  // stamp of the next call's position 0
};

std::size_t lzss_decode(std::span<const std::uint8_t> in, std::size_t raw_size,
                        std::span<std::uint8_t> out) {
  if (out.size() < raw_size) throw_out_too_small("lzss decode");
  std::size_t ip = 0;
  std::size_t op = 0;
  while (op < raw_size) {
    if (ip >= in.size()) throw std::invalid_argument("lzss: truncated stream");
    const std::uint8_t flag = in[ip++];
    for (int item = 0; item < 8 && op < raw_size; ++item) {
      if ((flag >> item) & 1) {
        if (ip >= in.size()) throw std::invalid_argument("lzss: truncated literal");
        out[op++] = in[ip++];
        continue;
      }
      if (ip + 2 > in.size()) throw std::invalid_argument("lzss: truncated match token");
      const std::size_t dist =
          (static_cast<std::size_t>(in[ip]) |
           (static_cast<std::size_t>(in[ip + 1] & 0x0F) << 8)) +
          1;
      const std::size_t len = static_cast<std::size_t>(in[ip + 1] >> 4) + kMinMatch;
      ip += 2;
      if (dist > op) throw std::invalid_argument("lzss: match reaches before stream start");
      if (op + len > raw_size) {
        throw std::invalid_argument("lzss: match overruns declared size");
      }
      // Overlapping copies are the point (run-length shapes) — byte order
      // matters, so no memmove.
      for (std::size_t i = 0; i < len; ++i, ++op) out[op] = out[op - dist];
    }
  }
  if (ip != in.size()) throw std::invalid_argument("lzss: trailing bytes after stream");
  return raw_size;
}

// ---------------------------------------------------------------------------
// Huffman: order-0 canonical codes, lengths limited to 15 bits.
//
// Stream grammar: a 128-byte packed-nibble table (byte i = length of symbol
// 2i in the low nibble, 2i+1 in the high nibble) followed by the MSB-first
// bitstream of exactly `raw_size` codes, zero-padded to a byte boundary.
// Codes are canonical — assigned in (length, symbol) order — so the table
// fully determines both directions.

constexpr std::size_t kTableBytes = 128;  // 256 packed length nibbles
constexpr int kMaxCodeBits = 15;

class HuffmanCompressor final : public Compressor {
 public:
  [[nodiscard]] Method method() const noexcept override { return Method::huffman; }

  [[nodiscard]] std::size_t max_compressed_size(std::size_t n) const noexcept override {
    // No code is longer than kMaxCodeBits after the length limit.
    return kTableBytes + (n * kMaxCodeBits + 7) / 8;
  }

  std::size_t compress_into(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) override {
    build_lengths(in);
    build_codes();
    std::uint64_t bits = 0;
    for (std::size_t s = 0; s < 256; ++s) {
      bits += static_cast<std::uint64_t>(freq_[s]) * len_[s];
    }
    const std::size_t need = kTableBytes + static_cast<std::size_t>((bits + 7) / 8);
    if (out.size() < need) throw_out_too_small("HuffmanCompressor::compress_into");
    for (std::size_t i = 0; i < kTableBytes; ++i) {
      out[i] = static_cast<std::uint8_t>(len_[2 * i] | (len_[2 * i + 1] << 4));
    }
    std::size_t op = kTableBytes;
    std::uint32_t acc = 0;
    int acc_bits = 0;
    for (const std::uint8_t sym : in) {
      acc = (acc << len_[sym]) | code_[sym];
      acc_bits += len_[sym];
      while (acc_bits >= 8) {
        acc_bits -= 8;
        out[op++] = static_cast<std::uint8_t>(acc >> acc_bits);
      }
    }
    if (acc_bits > 0) out[op++] = static_cast<std::uint8_t>(acc << (8 - acc_bits));
    return op;
  }

 private:
  /// Frequencies -> tree depths -> length-limited code lengths in len_.
  void build_lengths(std::span<const std::uint8_t> in) {
    freq_.fill(0);
    len_.fill(0);
    for (const std::uint8_t b : in) ++freq_[b];

    // Occurring symbols, sorted by (frequency, symbol) — the merge order and
    // later the length-assignment order.
    std::array<std::uint16_t, 256> order{};
    std::size_t n_syms = 0;
    for (std::uint16_t s = 0; s < 256; ++s) {
      if (freq_[s] != 0) order[n_syms++] = s;
    }
    if (n_syms == 0) return;
    if (n_syms == 1) {
      len_[order[0]] = 1;
      return;
    }
    std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n_syms),
              [&](std::uint16_t a, std::uint16_t b) {
                return freq_[a] != freq_[b] ? freq_[a] < freq_[b] : a < b;
              });

    // Two-queue Huffman merge: leaves 0..n_syms-1 in sorted order, internal
    // nodes appended with non-decreasing weight behind them.
    struct Node {
      std::uint64_t weight;
      std::int16_t parent;
    };
    std::array<Node, 511> nodes;
    for (std::size_t i = 0; i < n_syms; ++i) nodes[i] = {freq_[order[i]], -1};
    std::size_t leaf = 0;            // next unmerged leaf
    std::size_t inner = n_syms;      // first unmerged internal node
    std::size_t next = n_syms;       // next free node slot
    const auto take = [&]() -> std::size_t {
      if (inner >= next) return leaf++;
      if (leaf >= n_syms) return inner++;
      return nodes[leaf].weight <= nodes[inner].weight ? leaf++ : inner++;
    };
    while (next < 2 * n_syms - 1) {
      const std::size_t a = take();
      const std::size_t b = take();
      nodes[next] = {nodes[a].weight + nodes[b].weight, -1};
      nodes[a].parent = static_cast<std::int16_t>(next);
      nodes[b].parent = static_cast<std::int16_t>(next);
      ++next;
    }

    // Depths, clamped into a length histogram; zlib-style repair moves
    // leaves down until the code is feasible again. The loop is driven by
    // the exact integer Kraft sum (in 2^-kMaxCodeBits units): each step —
    // demote one leaf from the deepest shallower level, promote one
    // max-length leaf to be its sibling — reduces the sum by exactly one
    // unit, so it terminates precisely when the table is valid. (zlib's
    // `overflow -= 2` relies on its clamped top-down depth propagation
    // counting internal nodes too; with true leaf depths it under-repairs
    // skewed trees.)
    std::array<int, kMaxCodeBits + 1> bl_count{};
    for (std::size_t i = 0; i < n_syms; ++i) {
      int d = 0;
      for (std::int16_t p = nodes[i].parent; p >= 0; p = nodes[p].parent) ++d;
      ++bl_count[std::min(d, kMaxCodeBits)];
    }
    std::uint64_t kraft = 0;
    for (int bits = 1; bits <= kMaxCodeBits; ++bits) {
      kraft += static_cast<std::uint64_t>(bl_count[bits])
               << (kMaxCodeBits - bits);
    }
    while (kraft > (std::uint64_t{1} << kMaxCodeBits)) {
      int bits = kMaxCodeBits - 1;
      while (bl_count[bits] == 0) --bits;
      --bl_count[bits];
      bl_count[bits + 1] += 2;
      --bl_count[kMaxCodeBits];
      --kraft;
    }

    // Reassign lengths from the repaired histogram: symbols in descending
    // frequency take the shortest lengths — depth order is preserved where
    // the repair did not touch it.
    std::size_t idx = n_syms;  // walk sorted order from most frequent down
    for (int bits = 1; bits <= kMaxCodeBits; ++bits) {
      for (int c = 0; c < bl_count[bits]; ++c) {
        len_[order[--idx]] = static_cast<std::uint8_t>(bits);
      }
    }
  }

  /// Canonical codes from len_ into code_.
  void build_codes() {
    std::array<std::uint16_t, kMaxCodeBits + 1> count{};
    for (std::size_t s = 0; s < 256; ++s) ++count[len_[s]];
    count[0] = 0;
    std::array<std::uint16_t, kMaxCodeBits + 1> next{};
    std::uint32_t code = 0;
    for (int bits = 1; bits <= kMaxCodeBits; ++bits) {
      code = (code + count[bits - 1]) << 1;
      next[bits] = static_cast<std::uint16_t>(code);
    }
    for (std::size_t s = 0; s < 256; ++s) {
      if (len_[s] != 0) code_[s] = next[len_[s]]++;
    }
  }

  std::array<std::uint32_t, 256> freq_{};
  std::array<std::uint8_t, 256> len_{};
  std::array<std::uint16_t, 256> code_{};
};

std::size_t huffman_decode(std::span<const std::uint8_t> in, std::size_t raw_size,
                           std::span<std::uint8_t> out) {
  if (out.size() < raw_size) throw_out_too_small("huffman decode");
  if (in.size() < kTableBytes) throw std::invalid_argument("huffman: truncated table");
  std::array<std::uint8_t, 256> len{};
  for (std::size_t i = 0; i < kTableBytes; ++i) {
    len[2 * i] = in[i] & 0x0F;
    len[2 * i + 1] = in[i] >> 4;
  }
  // Canonical decode tables: per length, the first code value, its slot in
  // the (length, symbol)-sorted order, and the code count.
  std::array<std::uint16_t, kMaxCodeBits + 1> count{};
  for (std::size_t s = 0; s < 256; ++s) ++count[len[s]];
  count[0] = 0;
  std::array<std::uint16_t, kMaxCodeBits + 1> first_code{};
  std::array<std::uint16_t, kMaxCodeBits + 1> first_slot{};
  std::uint32_t code = 0;
  std::uint16_t slot = 0;
  std::uint32_t kraft = 0;  // in units of 2^-kMaxCodeBits
  for (int bits = 1; bits <= kMaxCodeBits; ++bits) {
    code <<= 1;
    first_code[bits] = static_cast<std::uint16_t>(code);
    first_slot[bits] = slot;
    code += count[bits];
    slot = static_cast<std::uint16_t>(slot + count[bits]);
    kraft += static_cast<std::uint32_t>(count[bits]) << (kMaxCodeBits - bits);
    if (kraft > (1u << kMaxCodeBits)) {
      throw std::invalid_argument("huffman: oversubscribed code-length table");
    }
  }
  std::array<std::uint8_t, 256> sym_at{};
  {
    std::array<std::uint16_t, kMaxCodeBits + 1> next = first_slot;
    for (std::size_t s = 0; s < 256; ++s) {
      if (len[s] != 0) sym_at[next[len[s]]++] = static_cast<std::uint8_t>(s);
    }
  }
  // Primary table over the next kPrimaryBits bits: (length << 8) | symbol
  // for every prefix that begins with a code of at most kPrimaryBits bits,
  // 0 for the rest. The code is prefix-free (Kraft sum checked above), so
  // each prefix begins with at most one code.
  constexpr int kPrimaryBits = 10;
  std::array<std::uint16_t, std::size_t{1} << kPrimaryBits> primary{};
  for (int bits = 1; bits <= kPrimaryBits; ++bits) {
    const int spread = kPrimaryBits - bits;
    for (std::uint32_t i = 0; i < count[bits]; ++i) {
      const auto entry = static_cast<std::uint16_t>((bits << 8) | sym_at[first_slot[bits] + i]);
      const std::uint32_t c = first_code[bits] + i;
      std::fill(primary.begin() + (c << spread), primary.begin() + ((c + 1) << spread), entry);
    }
  }

  // Unread bits sit MSB-first at the top of acc, zeros below them.
  const std::span<const std::uint8_t> stream = in.subspan(kTableBytes);
  std::uint64_t acc = 0;
  int avail = 0;
  std::size_t next = 0;  // next stream byte to load
  // The canonical bit-serial walk, for codes longer than the primary table
  // and for the rejections: a code cut off by the stream end is truncation,
  // and none within kMaxCodeBits bits is an invalid code.
  const auto walk = [&]() -> std::uint16_t {
    for (int bits = 1;; ++bits) {
      if (bits > avail) throw std::invalid_argument("huffman: truncated stream");
      if (bits > kMaxCodeBits) throw std::invalid_argument("huffman: invalid code in stream");
      const auto c = static_cast<std::uint32_t>(acc >> (64 - bits));
      if (count[bits] != 0 && c >= first_code[bits] && c - first_code[bits] < count[bits]) {
        return static_cast<std::uint16_t>((bits << 8) |
                                          sym_at[first_slot[bits] + (c - first_code[bits])]);
      }
    }
  };
  for (std::size_t op = 0; op < raw_size; ++op) {
    if (avail <= kMaxCodeBits) {
      for (; avail <= 56 && next < stream.size(); avail += 8) {
        acc |= static_cast<std::uint64_t>(stream[next++]) << (56 - avail);
      }
    }
    std::uint16_t entry = primary[acc >> (64 - kPrimaryBits)];
    if (entry == 0 || (entry >> 8) > avail) entry = walk();
    out[op] = static_cast<std::uint8_t>(entry);
    acc <<= entry >> 8;
    avail -= entry >> 8;
  }
  const std::size_t bit_pos = next * 8 - static_cast<std::size_t>(avail);
  if ((bit_pos + 7) / 8 != stream.size()) {
    throw std::invalid_argument("huffman: trailing bytes after stream");
  }
  // All that is left in acc is the last byte's padding.
  if (acc != 0) throw std::invalid_argument("huffman: nonzero padding bits");
  return raw_size;
}

}  // namespace

const char* method_name(Method method) noexcept {
  switch (method) {
    case Method::lzss: return "lzss";
    case Method::huffman: return "huffman";
    default: return "raw";
  }
}

Method method_from_name(std::string_view name) {
  if (name == "raw") return Method::raw;
  if (name == "lzss") return Method::lzss;
  if (name == "huffman") return Method::huffman;
  throw std::invalid_argument("compress: unknown method '" + std::string(name) + "'");
}

std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::size_t varint_encode(std::uint64_t v, std::span<std::uint8_t> out) {
  std::size_t n = 0;
  for (;;) {
    if (n >= out.size()) throw_out_too_small("varint_encode");
    if (v < 0x80) {
      out[n++] = static_cast<std::uint8_t>(v);
      return n;
    }
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
}

std::size_t varint_decode(std::span<const std::uint8_t> in, std::uint64_t* value) {
  std::uint64_t v = 0;
  for (std::size_t n = 0; n < in.size() && n < 10; ++n) {
    const std::uint64_t chunk = in[n] & 0x7F;
    if (n == 9 && chunk > 1) {
      throw std::invalid_argument("varint: value overflows 64 bits");
    }
    v |= chunk << (7 * n);
    if ((in[n] & 0x80) == 0) {
      *value = v;
      return n + 1;
    }
  }
  throw std::invalid_argument("varint: truncated or overlong encoding");
}

bool probably_compressible(std::span<const std::uint8_t> in) noexcept {
  if (in.size() < 16) return true;  // too small for any statistic to mean much
  // Evenly strided sample of up to 512 bytes, reduced to the number of
  // DISTINCT byte values via a 256-bit bitmap. A uniform-random sample of n
  // bytes covers ~256*(1-e^(-n/256)) values, while text/log/structured data
  // draws from a small fixed alphabet (a few dozen values) at every n — so
  // comparing against a fraction of the random expectation separates the two
  // at all sample sizes. (A fixed Shannon-entropy threshold cannot: sample
  // entropy is bounded by log2(n), so small random inputs always sit below
  // any cutoff that large text inputs clear. The bitmap is also an order of
  // magnitude cheaper than a histogram + per-bin log2, which matters because
  // the probe is the only cost incompressible payloads pay per seal.)
  constexpr std::size_t kMaxSample = 512;
  const std::size_t stride = in.size() <= kMaxSample ? 1 : in.size() / kMaxSample;
  std::array<std::uint64_t, 4> seen{};
  std::size_t samples = 0;
  for (std::size_t i = 0; i < in.size(); i += stride, ++samples) {
    seen[in[i] >> 6] |= std::uint64_t{1} << (in[i] & 63);
  }
  int distinct = 0;
  for (const std::uint64_t w : seen) distinct += std::popcount(w);
  const double expected_random =
      256.0 * (1.0 - std::exp(-static_cast<double>(samples) / 256.0));
  return static_cast<double>(distinct) < 0.72 * expected_random;
}

std::unique_ptr<Compressor> make_compressor(Method method) {
  switch (method) {
    case Method::raw: return std::make_unique<RawCompressor>();
    case Method::lzss: return std::make_unique<LzssCompressor>();
    case Method::huffman: return std::make_unique<HuffmanCompressor>();
  }
  throw std::invalid_argument("compress: unknown method tag");
}

std::size_t max_decoded_size(Method method, std::size_t stream_bytes) noexcept {
  switch (method) {
    // Densest LZSS group: 1 flag byte + 8 match tokens (17 bytes) decoding
    // to 8 * 18 = 144 bytes — under 9 output bytes per stream byte.
    case Method::lzss: return stream_bytes * 9;
    // Shortest possible Huffman code is one bit.
    case Method::huffman: return stream_bytes < kTableBytes ? 0 : (stream_bytes - kTableBytes) * 8;
    default: return stream_bytes;
  }
}

std::size_t decompress_into(Method method, std::span<const std::uint8_t> in,
                            std::size_t raw_size, std::span<std::uint8_t> out) {
  switch (method) {
    case Method::raw: return raw_decode(in, raw_size, out);
    case Method::lzss: return lzss_decode(in, raw_size, out);
    case Method::huffman: return huffman_decode(in, raw_size, out);
  }
  throw std::invalid_argument("compress: unknown method tag");
}

}  // namespace mhhea::compress
