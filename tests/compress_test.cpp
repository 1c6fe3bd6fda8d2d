// Compression pre-stage: engine round trips (randomized sizes, both
// corpora, every method), byte-for-byte reference encoders and decoders
// for LZSS and Huffman, stream corruption rejection, the envelope path
// through the sealed-v2 cipher (every method, fallback pinning,
// post-MAC method checks), and the negotiated Session pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <typeinfo>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/compress/compress.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/session.hpp"
#include "src/util/rng.hpp"

namespace mhhea::compress {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// Synthetic log lines: the compressible corpus the pre-stage targets.
std::vector<std::uint8_t> text_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::string line = "level=INFO msg=\"request sealed\" conn=" +
                             std::to_string(rng.below(1024)) +
                             " latency_us=" + std::to_string(rng.below(10000)) +
                             " status=ok\n";
    out.insert(out.end(), line.begin(), line.end());
  }
  out.resize(n);
  return out;
}

constexpr Method kAllMethods[] = {Method::raw, Method::lzss, Method::huffman};

/// compress_into's stream for `in`, written into a max_compressed_size
/// buffer and cut to the returned size.
std::vector<std::uint8_t> compress_all(Compressor& comp, std::span<const std::uint8_t> in) {
  std::vector<std::uint8_t> stream(comp.max_compressed_size(in.size()));
  stream.resize(comp.compress_into(in, stream));
  return stream;
}

TEST(CompressNames, RoundTripAndRejection) {
  for (Method m : kAllMethods) {
    EXPECT_EQ(method_from_name(method_name(m)), m);
  }
  EXPECT_EQ(method_name(Method::raw), std::string("raw"));
  EXPECT_EQ(method_name(Method::lzss), std::string("lzss"));
  EXPECT_EQ(method_name(Method::huffman), std::string("huffman"));
  EXPECT_THROW((void)method_from_name("deflate"), std::invalid_argument);
  EXPECT_THROW((void)method_from_name(""), std::invalid_argument);
  EXPECT_TRUE(method_known(0));
  EXPECT_TRUE(method_known(2));
  EXPECT_FALSE(method_known(3));
  EXPECT_FALSE(method_known(0xFF));
}

TEST(CompressVarint, EdgeValues) {
  const std::uint64_t values[] = {0,     1,        127,        128,
                                  16383, 16384,    0xFFFFFFFF, std::uint64_t{1} << 63,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::uint8_t buf[10];
    const std::size_t n = varint_encode(v, buf);
    EXPECT_EQ(n, varint_size(v)) << v;
    std::uint64_t back = 0;
    EXPECT_EQ(varint_decode(std::span<const std::uint8_t>(buf, n), &back), n) << v;
    EXPECT_EQ(back, v);
    // Truncating any encoding by one byte must be detected.
    std::uint64_t junk = 0;
    EXPECT_THROW((void)varint_decode(std::span<const std::uint8_t>(buf, n - 1), &junk),
                 std::invalid_argument)
        << v;
  }
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  std::uint8_t tiny[1];
  EXPECT_THROW((void)varint_encode(128, tiny), std::length_error);
}

TEST(CompressProbe, SeparatesTextFromRandom) {
  EXPECT_TRUE(probably_compressible(text_bytes(4096, 1)));
  EXPECT_FALSE(probably_compressible(random_bytes(4096, 2)));
}

TEST(CompressEngines, RandomizedRoundTrip) {
  util::Xoshiro256 size_rng(0xC0DEC);
  for (Method m : kAllMethods) {
    auto comp = make_compressor(m);
    ASSERT_EQ(comp->method(), m);
    for (int iter = 0; iter < 24; ++iter) {
      // Edge sizes first, then a random sweep of 0..20000.
      const std::size_t n =
          iter < 4 ? static_cast<std::size_t>(iter)
                   : static_cast<std::size_t>(size_rng.below(20001));
      for (int corpus = 0; corpus < 2; ++corpus) {
        const auto in = corpus == 0 ? random_bytes(n, 0x5EED + iter)
                                    : text_bytes(n, 0x5EED + iter);
        // compress_all succeeding proves max_compressed_size is a bound.
        const std::vector<std::uint8_t> stream = compress_all(*comp, in);
        // compress_into's return is exact: a buffer of exactly that many
        // bytes takes the same stream, one byte fewer is a length error.
        std::vector<std::uint8_t> tight(stream.size());
        ASSERT_EQ(comp->compress_into(in, tight), stream.size())
            << method_name(m) << " n=" << n << " corpus=" << corpus;
        ASSERT_EQ(tight, stream) << method_name(m) << " n=" << n << " corpus=" << corpus;
        if (!stream.empty()) {
          std::vector<std::uint8_t> short_by_one(stream.size() - 1);
          ASSERT_THROW((void)comp->compress_into(in, short_by_one), std::length_error)
              << method_name(m) << " n=" << n << " corpus=" << corpus;
        }
        ASSERT_LE(n, max_decoded_size(m, stream.size()));
        std::vector<std::uint8_t> back(n);
        ASSERT_EQ(comp->decompress_into(stream, n, back), n);
        EXPECT_EQ(back, in) << method_name(m) << " n=" << n << " corpus=" << corpus;
      }
    }
  }
}

// --- LZSS reference encoder --------------------------------------------------
//
// The LZSS encoder as it stood with one previous-link per input position
// (prev grows with the input), kept here as the output contract: the engine
// keeps its links in a window-sized ring and must emit the same stream
// byte for byte. Same constants, hash and greedy chain walk; output grows
// by push_back.
std::vector<std::uint8_t> reference_lzss(std::span<const std::uint8_t> in) {
  constexpr std::size_t kWindow = 4096;
  constexpr std::size_t kMinMatch = 3;
  constexpr std::size_t kMaxMatch = 18;
  constexpr int kHashBits = 13;
  constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  constexpr int kMaxChain = 32;
  const auto hash3 = [&](std::size_t pos) {
    const std::uint32_t v = static_cast<std::uint32_t>(in[pos]) |
                            (static_cast<std::uint32_t>(in[pos + 1]) << 8) |
                            (static_cast<std::uint32_t>(in[pos + 2]) << 16);
    return (v * 0x9E3779B1u) >> (32 - kHashBits);
  };
  const std::size_t n = in.size();
  std::vector<std::uint32_t> head(std::size_t{1} << kHashBits, kNil);
  std::vector<std::uint32_t> prev(n, kNil);
  const auto insert = [&](std::size_t pos) {
    if (pos + kMinMatch > n) return;
    const std::uint32_t h = hash3(pos);
    prev[pos] = head[h];
    head[h] = static_cast<std::uint32_t>(pos);
  };
  std::vector<std::uint8_t> out;
  std::size_t flag_pos = 0;
  int items = 0;
  for (std::size_t ip = 0; ip < n;) {
    if (items == 0) {
      flag_pos = out.size();
      out.push_back(0);
    }
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (ip + kMinMatch <= n) {
      const std::size_t limit = std::min(kMaxMatch, n - ip);
      std::uint32_t cand = head[hash3(ip)];
      for (int chain = kMaxChain; cand != kNil && chain > 0; --chain, cand = prev[cand]) {
        const std::size_t dist = ip - cand;
        if (dist > kWindow) break;
        std::size_t len = 0;
        while (len < limit && in[cand + len] == in[ip + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == limit) break;
        }
      }
    }
    if (best_len >= kMinMatch) {
      const auto dist1 = static_cast<std::uint32_t>(best_dist - 1);
      const auto len3 = static_cast<std::uint32_t>(best_len - kMinMatch);
      out.push_back(static_cast<std::uint8_t>(dist1 & 0xFF));
      out.push_back(static_cast<std::uint8_t>((dist1 >> 8) | (len3 << 4)));
      for (std::size_t i = 0; i < best_len; ++i) insert(ip + i);
      ip += best_len;
    } else {
      out[flag_pos] |= static_cast<std::uint8_t>(1u << items);
      out.push_back(in[ip]);
      insert(ip);
      ++ip;
    }
    if (++items == 8) items = 0;
  }
  return out;
}

TEST(LzssReference, MatchesAcrossSizesAndCorpora) {
  // One engine for every input, large and small interleaved, so ring slots
  // left over from a longer input are in place when a shorter one runs.
  auto lzss = make_compressor(Method::lzss);
  const std::size_t sizes[] = {1,    2,    3,     4,     17,    255,    4095,   4096,
                               4097, 8191, 8192,  8193,  65536, 100000, 262144, 1,
                               4096, 9000, 16384, 262143};
  for (const std::size_t n : sizes) {
    for (int corpus = 0; corpus < 2; ++corpus) {
      const auto in = corpus == 0 ? random_bytes(n, 0x1225 + n) : text_bytes(n, 0x1225 + n);
      ASSERT_EQ(compress_all(*lzss, in), reference_lzss(in)) << "n=" << n << " corpus=" << corpus;
    }
  }
}

TEST(LzssReference, RepeatsAtTheWindowEdge) {
  // Random bytes repeating with period d: every match sits exactly d back,
  // so d = 4095 and 4096 (the largest distance a token encodes) are found
  // through links written one window earlier, and d = 4097 is out of reach.
  auto lzss = make_compressor(Method::lzss);
  std::size_t stream_bytes[3] = {};
  const std::size_t periods[3] = {4095, 4096, 4097};
  for (int i = 0; i < 3; ++i) {
    const std::size_t d = periods[i];
    const auto block = random_bytes(d, 0xD157 + d);
    std::vector<std::uint8_t> in;
    while (in.size() < 5 * d) in.insert(in.end(), block.begin(), block.end());
    const auto stream = compress_all(*lzss, in);
    ASSERT_EQ(stream, reference_lzss(in)) << "period " << d;
    stream_bytes[i] = stream.size();
  }
  // The in-window repeats compress to match tokens; the 4097 one cannot.
  EXPECT_LT(stream_bytes[1] * 2, stream_bytes[2]);
  EXPECT_LT(stream_bytes[0] * 2, stream_bytes[2]);
}

TEST(LzssReference, MatchesAtEveryShortSize) {
  // Long matches run right up to the input's end at every size and
  // alignment. Each input is an exact-size heap vector, so a sanitizer sees
  // any match compare that reads past the end.
  auto lzss = make_compressor(Method::lzss);
  for (std::size_t n = 0; n <= 320; ++n) {
    const std::vector<std::uint8_t> inputs[] = {text_bytes(n, 0x51 + n),
                                                std::vector<std::uint8_t>(n, 'a')};
    for (const auto& in : inputs) {
      ASSERT_EQ(compress_all(*lzss, in), reference_lzss(in)) << "n=" << n;
    }
  }
}

/// The sizes and inputs CompressEngines.RandomizedRoundTrip draws, for every
/// method's share of its size stream.
TEST(LzssReference, MatchesOnTheRoundTripSeeds) {
  auto lzss = make_compressor(Method::lzss);
  util::Xoshiro256 size_rng(0xC0DEC);
  for (std::size_t draw = 0; draw < std::size(kAllMethods); ++draw) {
    for (int iter = 0; iter < 24; ++iter) {
      const std::size_t n =
          iter < 4 ? static_cast<std::size_t>(iter)
                   : static_cast<std::size_t>(size_rng.below(20001));
      for (int corpus = 0; corpus < 2; ++corpus) {
        const auto in = corpus == 0 ? random_bytes(n, 0x5EED + iter)
                                    : text_bytes(n, 0x5EED + iter);
        const auto expect = reference_lzss(in);
        // A call that throws part-way leaves entries behind; the next call
        // must not see them.
        if (!expect.empty()) {
          std::vector<std::uint8_t> short_by_one(expect.size() - 1);
          ASSERT_THROW((void)lzss->compress_into(in, short_by_one), std::length_error);
        }
        ASSERT_EQ(compress_all(*lzss, in), expect) << "n=" << n << " corpus=" << corpus;
      }
    }
  }
}

TEST(LzssReference, ByteIdenticalAcrossTheOffsetWrap) {
  // The engine stamps positions with a 32-bit offset that moves on by at
  // least a window (4096) per call, so 2^20 calls cross its wrap at least
  // once. The inputs are two prefixes of one slice of a 4096-periodic text:
  // an entry an earlier call left, read as live, points one window back at
  // the very bytes it was made from, so it would yield a real match that the
  // reference cannot emit.
  const auto period = text_bytes(4096, 0x3A9);
  std::vector<std::uint8_t> text;
  for (int i = 0; i < 3; ++i) text.insert(text.end(), period.begin(), period.end());
  const std::span<const std::uint8_t> inputs[2] = {std::span(text).subspan(8192, 24),
                                                   std::span(text).subspan(8192, 16)};
  const std::vector<std::uint8_t> expect[2] = {reference_lzss(inputs[0]),
                                               reference_lzss(inputs[1])};
  auto lzss = make_compressor(Method::lzss);
  std::vector<std::uint8_t> out(lzss->max_compressed_size(24));
  std::size_t mismatches = 0;
  for (std::size_t call = 0; call < (std::size_t{1} << 20) + 64; ++call) {
    const std::size_t k = lzss->compress_into(inputs[call % 2], out);
    const auto& want = expect[call % 2];
    if (k != want.size() || !std::equal(want.begin(), want.end(), out.begin())) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- Huffman reference decoder ----------------------------------------------
//
// The Huffman decoder as it stood before the table-driven one, walking the
// canonical code one bit per iteration; kept as the contract for both the
// decoded bytes and every rejection (exception type and message).
std::size_t reference_huffman_decode(std::span<const std::uint8_t> in, std::size_t raw_size,
                                     std::span<std::uint8_t> out) {
  constexpr std::size_t kTableBytes = 128;
  constexpr int kMaxCodeBits = 15;
  if (out.size() < raw_size) throw std::length_error("huffman decode: output buffer too small");
  if (in.size() < kTableBytes) throw std::invalid_argument("huffman: truncated table");
  std::array<std::uint8_t, 256> len{};
  for (std::size_t i = 0; i < kTableBytes; ++i) {
    len[2 * i] = in[i] & 0x0F;
    len[2 * i + 1] = in[i] >> 4;
  }
  std::array<std::uint16_t, kMaxCodeBits + 1> count{};
  for (std::size_t s = 0; s < 256; ++s) ++count[len[s]];
  count[0] = 0;
  std::array<std::uint16_t, kMaxCodeBits + 1> first_code{};
  std::array<std::uint16_t, kMaxCodeBits + 1> first_slot{};
  std::uint32_t code = 0;
  std::uint16_t slot = 0;
  std::uint32_t kraft = 0;
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
  std::array<std::uint16_t, kMaxCodeBits + 1> next = first_slot;
  for (std::size_t s = 0; s < 256; ++s) {
    if (len[s] != 0) sym_at[next[len[s]]++] = static_cast<std::uint8_t>(s);
  }
  const std::span<const std::uint8_t> stream = in.subspan(kTableBytes);
  std::size_t bit_pos = 0;
  const std::size_t bit_end = stream.size() * 8;
  for (std::size_t op = 0; op < raw_size; ++op) {
    std::uint32_t acc = 0;
    int bits = 0;
    for (;;) {
      if (bit_pos >= bit_end) throw std::invalid_argument("huffman: truncated stream");
      acc = (acc << 1) | ((stream[bit_pos >> 3] >> (7 - (bit_pos & 7))) & 1u);
      ++bit_pos;
      if (++bits > kMaxCodeBits) throw std::invalid_argument("huffman: invalid code in stream");
      if (count[bits] != 0 && acc >= first_code[bits] && acc - first_code[bits] < count[bits]) {
        out[op] = sym_at[first_slot[bits] + (acc - first_code[bits])];
        break;
      }
    }
  }
  if ((bit_pos + 7) / 8 != stream.size()) {
    throw std::invalid_argument("huffman: trailing bytes after stream");
  }
  for (; bit_pos < bit_end; ++bit_pos) {
    if ((stream[bit_pos >> 3] >> (7 - (bit_pos & 7))) & 1u) {
      throw std::invalid_argument("huffman: nonzero padding bits");
    }
  }
  return raw_size;
}

/// What a decoder made of a stream: the decoded bytes, or the exception's
/// type and message.
std::string huffman_verdict(bool reference, std::span<const std::uint8_t> stream,
                            std::size_t raw_size) {
  std::vector<std::uint8_t> out(raw_size);
  try {
    const std::size_t n = reference ? reference_huffman_decode(stream, raw_size, out)
                                    : decompress_into(Method::huffman, stream, raw_size, out);
    return "ok " + std::to_string(n) + " " + std::string(out.begin(), out.end());
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

/// Checks the decoder against the reference on one stream; returns the
/// reference's verdict.
std::string expect_huffman_matches_reference(std::span<const std::uint8_t> stream,
                                             std::size_t raw_size, const std::string& what) {
  const std::string expect = huffman_verdict(true, stream, raw_size);
  const std::string got = huffman_verdict(false, stream, raw_size);
  if (got != expect) {
    ADD_FAILURE() << what << ": decoded as \"" << got.substr(0, 120) << "\", reference \""
                  << expect.substr(0, 120) << "\"";
  }
  return expect;
}

/// Input whose symbol counts follow the Fibonacci numbers: the deepest
/// Huffman tree, which the 15-bit limit has to repair.
std::vector<std::uint8_t> fibonacci_skewed_bytes(std::size_t max_n) {
  std::vector<std::uint8_t> in;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (int sym = 0; sym < 24; ++sym) {
    for (std::uint64_t i = 0; i < a && in.size() < max_n; ++i) {
      in.push_back(static_cast<std::uint8_t>(sym));
    }
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return in;
}

TEST(HuffmanReference, MatchesAcrossSizesAndCorpora) {
  auto huffman = make_compressor(Method::huffman);
  const std::size_t sizes[] = {1, 2, 3, 17, 255, 256, 4096, 16384, 65536, 262144};
  for (const std::size_t n : sizes) {
    for (int corpus = 0; corpus < 2; ++corpus) {
      const auto in = corpus == 0 ? random_bytes(n, 0x4F + n) : text_bytes(n, 0x4F + n);
      const auto stream = compress_all(*huffman, in);
      const std::string what = "n=" + std::to_string(n) + " corpus=" + std::to_string(corpus);
      expect_huffman_matches_reference(stream, n, what);
      // Declared sizes the stream cannot produce.
      expect_huffman_matches_reference(stream, n - 1, what + " declared n-1");
      expect_huffman_matches_reference(stream, n + 1, what + " declared n+1");
    }
  }
}

TEST(HuffmanReference, MatchesOnFifteenBitCodes) {
  auto huffman = make_compressor(Method::huffman);
  for (const std::size_t n : {200u, 5000u, 60000u}) {
    const auto in = fibonacci_skewed_bytes(n);
    const auto stream = compress_all(*huffman, in);
    int longest = 0;
    for (std::size_t i = 0; i < 128; ++i) {
      longest = std::max({longest, stream[i] & 0x0F, stream[i] >> 4});
    }
    if (n == 60000) {
      EXPECT_EQ(longest, 15) << "the input must reach the 15-bit limit";
    }
    expect_huffman_matches_reference(stream, in.size(), "n=" + std::to_string(n));
  }
}

TEST(HuffmanReference, MatchesOnTruncatedAndBitFlippedStreams) {
  auto huffman = make_compressor(Method::huffman);
  util::Xoshiro256 rng(0xF11B);
  const std::vector<std::uint8_t> inputs[] = {text_bytes(2048, 0x7F), random_bytes(1024, 0x80),
                                              fibonacci_skewed_bytes(5000)};
  std::set<std::string> verdicts;  // "ok" or the rejection message
  const auto tally = [&](const std::string& verdict) {
    verdicts.insert(verdict.starts_with("ok ") ? "ok" : verdict.substr(verdict.find(": ") + 2));
  };
  for (const auto& in : inputs) {
    const auto stream = compress_all(*huffman, in);
    const std::string size = "n=" + std::to_string(in.size());
    // Every cut in the table and the first and last 64 bytes of the codes.
    for (std::size_t keep = 0; keep < stream.size(); ++keep) {
      if (keep > 192 && keep + 64 < stream.size()) continue;
      tally(expect_huffman_matches_reference(std::span(stream).first(keep), in.size(),
                                             size + " keep=" + std::to_string(keep)));
    }
    // Every bit of the code-length table, then random bits of the codes.
    for (std::size_t bit = 0; bit < stream.size() * 8; ++bit) {
      if (bit >= 128 * 8) bit += rng.below(64);
      if (bit >= stream.size() * 8) break;
      auto flipped = stream;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(0x80 >> (bit % 8));
      tally(expect_huffman_matches_reference(flipped, in.size(),
                                             size + " bit=" + std::to_string(bit)));
    }
  }
  for (const char* v : {"ok", "huffman: truncated table", "huffman: oversubscribed code-length table",
                        "huffman: truncated stream", "huffman: invalid code in stream",
                        "huffman: trailing bytes after stream", "huffman: nonzero padding bits"}) {
    EXPECT_TRUE(verdicts.contains(v)) << "no stream reached \"" << v << "\"";
  }
}

TEST(CompressEngines, TextCorpusActuallyShrinks) {
  const auto in = text_bytes(16384, 0xBEEF);
  // LZSS exploits the repeated line structure; order-0 Huffman only the
  // byte skew (text entropy ~4.7 bits/byte), hence the looser bound.
  EXPECT_LT(compress_all(*make_compressor(Method::lzss), in).size(), in.size() / 2);
  EXPECT_LT(compress_all(*make_compressor(Method::huffman), in).size(), in.size() * 3 / 4);
}

TEST(CompressEngines, ShortOutputBufferIsLengthError) {
  const auto in = text_bytes(1024, 7);
  for (Method m : kAllMethods) {
    auto comp = make_compressor(m);
    const std::vector<std::uint8_t> stream = compress_all(*comp, in);
    std::vector<std::uint8_t> small(stream.size() - 1);
    try {
      (void)comp->compress_into(in, small);
      FAIL() << method_name(m) << ": short buffer accepted";
    } catch (const std::length_error& e) {
      EXPECT_NE(std::string(e.what()).find("output buffer too small"),
                std::string::npos)
          << method_name(m);
    }
    std::vector<std::uint8_t> out(in.size() - 1);
    EXPECT_THROW((void)comp->decompress_into(stream, in.size(), out),
                 std::length_error)
        << method_name(m);
  }
}

TEST(CompressEngines, TruncatedOrPaddedStreamsAreRejected) {
  const auto in = text_bytes(4096, 99);
  for (Method m : {Method::lzss, Method::huffman}) {
    auto comp = make_compressor(m);
    const std::vector<std::uint8_t> stream = compress_all(*comp, in);
    std::vector<std::uint8_t> out(in.size());
    // Every truncation prefix of the first/last 32 boundaries must fail to
    // decode to the declared size.
    for (std::size_t cut = 1; cut <= 32 && cut < stream.size(); ++cut) {
      const std::span<const std::uint8_t> head(stream.data(), stream.size() - cut);
      EXPECT_THROW((void)comp->decompress_into(head, in.size(), out),
                   std::invalid_argument)
          << method_name(m) << " cut=" << cut;
    }
    // Appending trailing bytes must be rejected too — a stream decodes to
    // its declared size exactly or not at all.
    auto padded = stream;
    padded.push_back(0x00);
    EXPECT_THROW((void)comp->decompress_into(padded, in.size(), out),
                 std::invalid_argument)
        << method_name(m);
    // A declared size the stream cannot produce.
    EXPECT_THROW((void)comp->decompress_into(stream, in.size() - 1,
                                             std::span(out.data(), in.size() - 1)),
                 std::invalid_argument)
        << method_name(m);
  }
}

TEST(CompressEngines, HuffmanSkewedFrequenciesStayWithinDepthLimit) {
  // Fibonacci-weighted symbol frequencies build the deepest possible
  // Huffman trees — the input shape the 15-bit zlib-style length limiting
  // exists for. Round-tripping proves the repaired code is still prefix-
  // complete and canonical on both sides.
  const std::vector<std::uint8_t> in = fibonacci_skewed_bytes(60000);
  auto comp = make_compressor(Method::huffman);
  const std::vector<std::uint8_t> stream = compress_all(*comp, in);
  std::vector<std::uint8_t> back(in.size());
  ASSERT_EQ(comp->decompress_into(stream, in.size(), back), in.size());
  EXPECT_EQ(back, in);
}

// --- the envelope through the sealed-v2 cipher -----------------------------

crypto::MhheaCipher make_v2_cipher() {
  util::Xoshiro256 rng(0x11d7);
  const auto params = core::BlockParams::hardware();
  core::Key key = core::Key::random(rng, 8, params);
  return crypto::MhheaCipher(std::move(key), 0xACE1, params,
                             crypto::MhheaCipher::Framing::sealed_v2);
}

TEST(CompressedSealedV2, EveryMethodRoundTripsAcrossSizes) {
  for (Method m : kAllMethods) {
    auto cipher = make_v2_cipher();
    cipher.set_compression(m);
    // Four size streams of six sizes each, up to 20000 bytes.
    for (const std::uint64_t size_seed : {1, 2, 4, 8}) {
      util::Xoshiro256 size_rng(0xA11CE + size_seed);
      for (int iter = 0; iter < 6; ++iter) {
        const std::size_t n = static_cast<std::size_t>(size_rng.below(20001));
        const auto msg = text_bytes(n, 0xF00D + iter);
        const auto sealed = cipher.encrypt(msg);
        EXPECT_EQ(cipher.decrypt(sealed, msg.size()), msg)
            << method_name(m) << " n=" << n;
      }
    }
  }
}

TEST(CompressedSealedV2, CompressibleFrameIsSmallerAndTagged) {
  auto plain = make_v2_cipher();
  auto z = make_v2_cipher();
  z.set_compression(Method::lzss);
  const auto msg = text_bytes(8192, 0x7E57);
  const auto raw_ct = plain.encrypt(msg);
  const auto z_ct = z.encrypt(msg);
  EXPECT_LT(z_ct.size(), raw_ct.size() / 2);
  const core::FrameHeader h = core::frame_decode(z_ct, nullptr);
  EXPECT_EQ(h.compression, static_cast<std::uint8_t>(Method::lzss));
  EXPECT_EQ(z_ct[5] & 0x08, 0x08);
}

TEST(CompressedSealedV2, IncompressibleMessagesFallBackByteIdentically) {
  // Random payloads must ship the exact uncompressed frame — same bytes,
  // same size, no compressed flag — through the instance API...
  auto plain = make_v2_cipher();
  auto z = make_v2_cipher();
  z.set_compression(Method::lzss);
  for (std::size_t n : {0u, 1u, 63u, 64u, 96u, 4096u}) {
    const auto msg = random_bytes(n, 0xABBA + n);
    const auto expect = plain.encrypt(msg);
    const auto got = z.encrypt(msg);
    EXPECT_EQ(got, expect) << "n=" << n;
    EXPECT_LE(got.size(), z.max_ciphertext_size(n)) << "n=" << n;
    if (!got.empty()) {
      EXPECT_EQ(got[5] & 0x08, 0) << "n=" << n;
    }
  }
  // ...and through the registry twins (same seed -> same key schedule).
  const auto& reg = crypto::CipherRegistry::builtin();
  auto reg_plain = reg.make("MHHEA-sealed-v2", 0xFEED123);
  auto reg_z = reg.make("MHHEA-sealed-v2-z", 0xFEED123);
  const auto msg = random_bytes(4096, 0x90210);
  EXPECT_EQ(reg_z->encrypt(msg), reg_plain->encrypt(msg));
}

TEST(CompressedSealedV2, TamperedCompressedFrameFailsMacWithOutputUntouched) {
  auto cipher = make_v2_cipher();
  cipher.set_compression(Method::lzss);
  const auto msg = text_bytes(2048, 0x7A39);
  const auto sealed = cipher.encrypt(msg);
  // Sample a bit in every region: header (incl. the method byte), envelope
  // ciphertext, MAC trailer.
  const std::size_t probe[] = {5, 6, core::FrameHeader::kSizeV2 + 3,
                               sealed.size() / 2, sealed.size() - 1};
  for (std::size_t byte : probe) {
    auto t = sealed;
    t[byte] ^= 0x10;
    std::vector<std::uint8_t> out(msg.size(), 0xCD);
    EXPECT_THROW((void)cipher.decrypt_into(t, msg.size(), out), std::invalid_argument)
        << "byte " << byte;
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](std::uint8_t b) { return b == 0xCD; }))
        << "byte " << byte << ": output written despite rejection";
  }
  // Truncations across every boundary: header, blocks, MAC.
  for (std::size_t keep : {std::size_t{0}, std::size_t{23}, std::size_t{24},
                           sealed.size() - core::FrameHeader::kMacBytesV2,
                           sealed.size() - 1}) {
    std::vector<std::uint8_t> t(sealed.begin(),
                                sealed.begin() + static_cast<std::ptrdiff_t>(keep));
    std::vector<std::uint8_t> out(msg.size(), 0xCD);
    EXPECT_THROW((void)cipher.decrypt_into(t, msg.size(), out), std::invalid_argument)
        << "keep " << keep;
  }
}

TEST(CompressedSealedV2, PostMacMethodChecksRejectForgedHeaders) {
  // An honest sealer can never emit a method byte that disagrees with its
  // envelope, so forge the condition by mutating the authenticated view
  // directly — exactly what the post-MAC cross-checks exist to stop.
  auto cipher = make_v2_cipher();
  cipher.set_compression(Method::lzss);
  const auto msg = text_bytes(2048, 0x51DE);
  const auto sealed = cipher.encrypt(msg);
  std::vector<std::uint8_t> out(msg.size());

  auto opened = cipher.open_v2_authenticate(sealed);
  ASSERT_EQ(opened.header.compression, static_cast<std::uint8_t>(Method::lzss));

  // Unknown method tag: rejected before any decode.
  opened.header.compression = 7;
  EXPECT_THROW((void)cipher.decrypt_v2_payload(opened, out), std::invalid_argument);

  // Known-but-wrong tag: the decrypted envelope's own tag wins.
  opened.header.compression = static_cast<std::uint8_t>(Method::huffman);
  EXPECT_THROW((void)cipher.decrypt_v2_payload(opened, out), std::invalid_argument);

  // Restored view still opens — the rejections above were the checks, not
  // collateral state damage.
  opened.header.compression = static_cast<std::uint8_t>(Method::lzss);
  ASSERT_EQ(cipher.decrypt_v2_payload(opened, out), msg.size());
  EXPECT_EQ(out, msg);
}

TEST(CompressedSealedV2, FrameCodecCarriesTheMethodByte) {
  // Structural acceptance of any nonzero method byte is deliberate: the
  // codec cannot know future tags, so unknown methods pass the parse and
  // are rejected post-MAC by the cipher (tested above).
  core::FrameHeader h;
  h.version = 2;
  h.params = core::BlockParams::hardware();
  h.message_bits = 0;
  h.nonce = 9;
  h.compression = 7;
  // Header + an (unverified-here) all-zero MAC trailer: frame_decode is the
  // keyless structural layer.
  std::vector<std::uint8_t> buf(core::FrameHeader::kOverheadV2, 0);
  core::frame_encode_header(h, buf);
  EXPECT_EQ(buf[5] & 0x08, 0x08);
  EXPECT_EQ(buf[6], 7);
  const core::FrameHeader back = core::frame_decode(buf, nullptr);
  EXPECT_EQ(back.compression, 7);
  EXPECT_EQ(back.nonce, 9u);

  // The flag bit and the method byte must agree both ways.
  auto flag_only = buf;
  flag_only[6] = 0;
  EXPECT_THROW((void)core::frame_decode(flag_only, nullptr), std::invalid_argument);
  auto byte_only = buf;
  byte_only[5] &= static_cast<std::uint8_t>(~0x08);
  EXPECT_THROW((void)core::frame_decode(byte_only, nullptr), std::invalid_argument);

  // A v1 header cannot carry one.
  h.version = 1;
  h.nonce = 0;
  EXPECT_THROW(core::frame_encode_header(h, buf), std::invalid_argument);
}

TEST(CompressedSealedV2, RawFramingRejectsTheKnob) {
  util::Xoshiro256 rng(0x11d7);
  const auto params = core::BlockParams::paper();
  core::Key key = core::Key::random(rng, 8, params);
  crypto::MhheaCipher cipher(std::move(key), 0xACE1, params,
                             crypto::MhheaCipher::Framing::raw);
  EXPECT_THROW(cipher.set_compression(Method::lzss), std::logic_error);
}

TEST(CompressedSession, NegotiatedMethodsInteroperate) {
  const std::vector<std::uint8_t> master = random_bytes(32, 0x5E55);
  const std::vector<std::uint8_t> ctx = {'t', 'e', 's', 't'};
  for (Method m : kAllMethods) {
    auto sender = crypto::Session::from_master(master, ctx);
    auto receiver = crypto::Session::from_master(master, ctx);
    sender.set_compression(m);
    EXPECT_EQ(sender.compression(), m);
    // The receiver is never told the method — the frames self-describe.
    const auto msg = text_bytes(6000, 0x1234);
    EXPECT_EQ(receiver.open(sender.seal(msg)), msg) << method_name(m);
    const auto rnd = random_bytes(500, 0x4321);
    EXPECT_EQ(receiver.open(sender.seal(rnd)), rnd) << method_name(m);
  }
}

}  // namespace
}  // namespace mhhea::compress
