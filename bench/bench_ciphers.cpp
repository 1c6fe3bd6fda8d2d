// Benchmark harness: sweep every registry cipher across message sizes,
// both directions and both API forms on one thread, and emit
// BENCH_ciphers.json — the repo's reproduction of the paper's Table 1
// throughput comparison.
//
// Method: for each (cipher, msg_bytes, column) cell, process a batch of
// independent messages (total plaintext ~ kTargetBatchBytes) repeatedly;
// each repetition is one RunningStats sample of MB/s (plaintext MB/s for
// both directions, so encrypt and decrypt rows are directly comparable).
// The random corpus measures four cells — dir in {encrypt, decrypt} x
// api in {alloc, into} — so the allocating-vs-in-place overhead and the
// decrypt datapath are both visible. The JSON records mean/max/stddev
// throughput, the measured expansion factor, and the per-block latency. A
// decrypt round-trip of the first message guards against benchmarking a
// broken configuration.
//
// Two payload corpora run per cipher: `random` (incompressible, the
// historical sweep) over every column, and `text` (deterministic synthetic
// log lines) over the encrypt/decrypt alloc cells — the compressible
// shape that feeds the per-corpus "expansion" and
// "effective_wire_mb_per_s" aggregates separating MHHEA-sealed-v2-z's
// compress-then-encrypt pipeline from its uncompressed twin.
//
// Usage: bench_ciphers [--out FILE] [--quick] [--reps N] [--seed S]
//                      [--backend auto|scalar|avx2]
//   --reps N     repetitions per cell (default 9, or 2 with --quick; the
//                bench_smoke ctest runs --reps 1 so harness breakage fails
//                CI instead of only the artifact step)
//   --seed S     registry key/nonce derivation seed (decimal or 0x hex), for
//                reproducible runs
//   --backend B  force the keystream engine for the whole run (default
//                auto: cpuid picks). Forcing an engine the host cannot run
//                is an error — a bench must never silently measure scalar
//                while labelled avx2. Every JSON row records the engine,
//                and a "host" block records the cpu capabilities, so perf
//                trajectories across BENCH_ciphers.json artifacts are
//                attributable to hardware.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/backend/backend.hpp"
#include "src/crypto/registry.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace {

using mhhea::crypto::CipherRegistry;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultCipherSeed = 0xB0A710ADULL;  // registry key/nonce seed
std::uint64_t g_cipher_seed = kDefaultCipherSeed;
constexpr std::size_t kTargetBatchBytes = 1 << 20;  // ~1 MiB plaintext per batch

/// Which half of the cipher a cell times, and through which API form.
enum class Dir { encrypt, decrypt };
enum class Api { alloc, into };

/// Payload corpus a cell runs over. `random` is the incompressible
/// worst case every cipher has always been swept with; `text` is a
/// deterministic synthetic log-line corpus — the compressible shape the
/// compression pre-stage exists for, where the wire-expansion aggregates
/// separate MHHEA-sealed-v2-z from its uncompressed twin.
enum class Corpus { random, text };

const char* dir_name(Dir d) { return d == Dir::encrypt ? "encrypt" : "decrypt"; }
const char* api_name(Api a) { return a == Api::alloc ? "alloc" : "into"; }
const char* corpus_name(Corpus c) { return c == Corpus::random ? "random" : "text"; }

/// One sweep column: the direction and the API form.
struct SweepColumn {
  Dir dir = Dir::encrypt;
  Api api = Api::alloc;
};

struct CellResult {
  std::string cipher;
  std::size_t msg_bytes = 0;
  Dir dir = Dir::encrypt;
  Api api = Api::alloc;
  Corpus corpus = Corpus::random;
  std::size_t batch_size = 0;
  std::size_t reps = 0;
  double mb_per_s_mean = 0.0;
  double mb_per_s_max = 0.0;
  double mb_per_s_stddev = 0.0;
  double expansion = 0.0;
  double ns_per_block = 0.0;
};

void cell_fill(CellResult& cell, const std::string& name, std::size_t msg_bytes,
               SweepColumn col, Corpus corpus, std::size_t batch_size,
               std::size_t reps) {
  cell.cipher = name;
  cell.msg_bytes = msg_bytes;
  cell.dir = col.dir;
  cell.api = col.api;
  cell.corpus = corpus;
  cell.batch_size = batch_size;
  cell.reps = reps;
}

std::vector<std::vector<std::uint8_t>> make_messages(std::size_t msg_bytes,
                                                     std::size_t batch_size,
                                                     Corpus corpus) {
  mhhea::util::Xoshiro256 rng(msg_bytes * 1000003 + batch_size);
  std::vector<std::vector<std::uint8_t>> msgs(batch_size);
  for (auto& m : msgs) {
    m.reserve(msg_bytes);
    if (corpus == Corpus::random) {
      m.resize(msg_bytes);
      for (auto& b : m) b = static_cast<std::uint8_t>(rng.below(256));
      continue;
    }
    // Deterministic structured log lines: varied counters over a fixed
    // template, the redundancy profile of real service telemetry.
    static const char* const kLevels[] = {"INFO", "WARN", "DEBUG"};
    while (m.size() < msg_bytes) {
      const std::string line =
          "2026-08-08T12:00:" + std::to_string(rng.below(60)) +
          "Z svc=mhhead level=" + kLevels[rng.below(3)] +
          " msg=\"request sealed\" conn=" + std::to_string(rng.below(1024)) +
          " bytes=" + std::to_string(rng.below(65536)) +
          " latency_us=" + std::to_string(rng.below(10000)) + " status=ok\n";
      m.insert(m.end(), line.begin(), line.end());
    }
    m.resize(msg_bytes);
  }
  return msgs;
}

/// Measure one (cipher, msg_bytes) pair at every sweep column, interleaving
/// the repetitions across columns so clock drift and cache warm-up bias no
/// single column. Returns one cell per column.
std::vector<CellResult> run_cells(const std::string& name, std::size_t msg_bytes,
                                  const std::vector<SweepColumn>& columns,
                                  Corpus corpus, std::size_t reps) {
  const std::size_t batch_size =
      std::max<std::size_t>(kTargetBatchBytes / std::max<std::size_t>(msg_bytes, 1), 1);
  const auto msgs = make_messages(msg_bytes, batch_size, corpus);
  const auto maker = [&] { return CipherRegistry::builtin().make(name, g_cipher_seed); };

  // Correctness guard + warm-up: round-trip the first message once (through
  // both API forms) before timing it.
  {
    auto cipher = maker();
    const auto ct = cipher->encrypt(msgs[0]);
    if (cipher->decrypt(ct, msgs[0].size()) != msgs[0]) {
      throw std::runtime_error("bench: " + name + " failed its round-trip check");
    }
    std::vector<std::uint8_t> buf(cipher->max_ciphertext_size(msgs[0].size()));
    const std::size_t n = cipher->encrypt_into(msgs[0], buf);
    buf.resize(n);
    if (buf != ct) {
      throw std::runtime_error("bench: " + name + " encrypt_into diverged from encrypt");
    }
  }

  std::vector<CellResult> cells(columns.size());
  std::vector<mhhea::util::RunningStats> mbps(columns.size());
  std::vector<mhhea::util::RunningStats> nspb(columns.size());
  // Pre-built cipher per column, so cipher construction stays outside the
  // timed window.
  std::vector<std::unique_ptr<mhhea::crypto::Cipher>> col_cipher(columns.size());
  bool wants_decrypt = false;
  bool wants_into = false;
  for (std::size_t t = 0; t < columns.size(); ++t) {
    cell_fill(cells[t], name, msg_bytes, columns[t], corpus, batch_size, reps);
    col_cipher[t] = maker();
    wants_decrypt = wants_decrypt || columns[t].dir == Dir::decrypt;
    wants_into = wants_into || columns[t].api == Api::into;
  }
  // Decrypt columns consume pre-encrypted ciphertexts; `_into` columns write
  // into pre-sized reusable buffers (the arena discipline a zero-allocation
  // caller would use) — both prepared outside every timed window.
  std::vector<std::vector<std::uint8_t>> cts;
  std::size_t ct_bytes_total = 0;
  if (wants_decrypt) {
    auto cipher = maker();
    cts.reserve(msgs.size());
    for (const auto& m : msgs) {
      cts.push_back(cipher->encrypt(m));
      ct_bytes_total += cts.back().size();
    }
  }
  std::vector<std::uint8_t> enc_buf;
  std::vector<std::uint8_t> dec_buf;
  if (wants_into) {
    enc_buf.resize(maker()->max_ciphertext_size(msg_bytes));
    dec_buf.resize(msg_bytes);
  }
  const double plain_mb =
      static_cast<double>(msg_bytes) * static_cast<double>(batch_size) / 1.0e6;
  // Per-block latency denominator (for YAEA-S a "block" is one keystream
  // byte).
  const double block_bytes = name == "YAEA-S" ? 1.0 : 2.0;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t t = 0; t < columns.size(); ++t) {
      const SweepColumn col = columns[t];
      mhhea::crypto::Cipher* cipher = col_cipher[t].get();
      std::size_t cipher_bytes_total = 0;
      const auto t0 = Clock::now();
      if (col.dir == Dir::encrypt && col.api == Api::alloc) {
        for (const auto& m : msgs) cipher_bytes_total += cipher->encrypt(m).size();
      } else if (col.dir == Dir::encrypt) {
        // One reusable output buffer — the discipline a zero-allocation
        // caller (network send buffer, arena slot) actually runs with.
        for (const auto& m : msgs) cipher_bytes_total += cipher->encrypt_into(m, enc_buf);
      } else if (col.api == Api::alloc) {
        for (std::size_t i = 0; i < cts.size(); ++i) {
          (void)cipher->decrypt(cts[i], msgs[i].size());
        }
        cipher_bytes_total = ct_bytes_total;
      } else {
        for (std::size_t i = 0; i < cts.size(); ++i) {
          (void)cipher->decrypt_into(cts[i], msgs[i].size(), dec_buf);
        }
        cipher_bytes_total = ct_bytes_total;
      }
      const auto t1 = Clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      mbps[t].add(plain_mb / secs);
      nspb[t].add(secs * 1.0e9 * block_bytes / static_cast<double>(cipher_bytes_total));
      cells[t].expansion =
          static_cast<double>(cipher_bytes_total) /
          (static_cast<double>(msg_bytes) * static_cast<double>(batch_size));
    }
  }
  for (std::size_t t = 0; t < columns.size(); ++t) {
    cells[t].mb_per_s_mean = mbps[t].mean();
    cells[t].mb_per_s_max = mbps[t].max();
    cells[t].mb_per_s_stddev = mbps[t].stddev();
    cells[t].ns_per_block = nspb[t].mean();
  }
  return cells;
}

/// Strict decimal/0x-hex u64 parse: the whole string must be consumed and
/// the value must fit — trailing garbage ("4x") and overflow are errors, so
/// a recorded --seed always reproduces the run.
bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json(const std::string& path, const std::vector<CellResult>& cells,
                std::size_t reps) {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"bench\": \"ciphers\",\n";
  os << "  \"seed\": " << g_cipher_seed << ",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  // Host capabilities: which keystream engine produced these numbers and
  // what the silicon could have run, so artifacts from different runners
  // compare like with like.
  const std::string backend_name(mhhea::backend::active().name());
  os << "  \"host\": {\"backend\": \"" << backend_name << "\", \"cpu_avx2\": "
     << (mhhea::backend::cpu_has_avx2() ? "true" : "false") << ", \"avx2_compiled\": "
     << (mhhea::backend::avx2_compiled() ? "true" : "false")
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency() << "},\n";
  // Per-cipher decrypt throughput (alloc column, mean across sizes): the
  // decrypt counterpart of the headline encrypt rows.
  os << "  \"decrypt_mb_per_s\": {";
  {
    std::map<std::string, std::array<double, 2>> sums;  // {total, count}
    for (const auto& c : cells) {
      if (c.dir == Dir::decrypt && c.api == Api::alloc && c.corpus == Corpus::random) {
        sums[c.cipher][0] += c.mb_per_s_mean;
        sums[c.cipher][1] += 1.0;
      }
    }
    bool first = true;
    for (const auto& [name, s] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": "
         << (s[1] > 0.0 ? s[0] / s[1] : 0.0);
      first = false;
    }
  }
  os << "},\n";
  // In-place over allocating encrypt throughput (best-rep totals across
  // sizes): what the span-based API buys over the vector one.
  os << "  \"into_speedup\": {";
  {
    std::map<std::string, std::array<double, 2>> sums;  // {alloc, into}
    for (const auto& c : cells) {
      if (c.dir == Dir::encrypt && c.corpus == Corpus::random) {
        sums[c.cipher][c.api == Api::alloc ? 0 : 1] += c.mb_per_s_max;
      }
    }
    bool first = true;
    for (const auto& [name, s] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": "
         << (s[0] > 0.0 ? s[1] / s[0] : 0.0);
      first = false;
    }
  }
  os << "},\n";
  // Authenticated-container cost: MHHEA-sealed-v2 over MHHEA-sealed
  // throughput (sequential encrypt cells, best-rep totals across sizes and
  // both API forms). 1.0 would be a free MAC; the v2 acceptance floor is
  // 0.85 (within 15% of v1).
  os << "  \"mac_overhead\": {";
  {
    std::map<std::string, double> sums;  // cipher -> total best-rep MB/s
    for (const auto& c : cells) {
      if (c.dir == Dir::encrypt && c.corpus == Corpus::random) {
        sums[c.cipher] += c.mb_per_s_max;
      }
    }
    const auto v1 = sums.find("MHHEA-sealed");
    const auto v2 = sums.find("MHHEA-sealed-v2");
    if (v1 != sums.end() && v2 != sums.end() && v1->second > 0.0) {
      os << "\"sealed_v2_vs_v1\": " << v2->second / v1->second;
    }
  }
  os << "},\n";
  // Wire-cost aggregates per cipher per corpus (sequential encrypt/alloc
  // cells, means across sizes). `expansion` is wire bytes per plaintext
  // byte AFTER the compression pre-stage — the number the compress-then-
  // encrypt pipeline exists to cut on the text corpus (the random corpus
  // pins the incompressible fallback at the raw container ratio).
  // `effective_wire_mb_per_s` is the wire-byte emission rate (plaintext
  // MB/s x expansion): what a link carrying this cipher's frames must
  // sustain per MB/s of goodput.
  os << "  \"expansion\": {";
  {
    // cipher -> corpus index {random, text} -> {sum, count}
    std::map<std::string, std::array<std::array<double, 2>, 2>> sums;
    for (const auto& c : cells) {
      if (c.dir == Dir::encrypt && c.api == Api::alloc) {
        auto& slot = sums[c.cipher][c.corpus == Corpus::random ? 0 : 1];
        slot[0] += c.expansion;
        slot[1] += 1.0;
      }
    }
    bool first = true;
    for (const auto& [name, by_corpus] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"random\": "
         << (by_corpus[0][1] > 0.0 ? by_corpus[0][0] / by_corpus[0][1] : 0.0)
         << ", \"text\": "
         << (by_corpus[1][1] > 0.0 ? by_corpus[1][0] / by_corpus[1][1] : 0.0) << "}";
      first = false;
    }
  }
  os << "},\n";
  os << "  \"effective_wire_mb_per_s\": {";
  {
    // cipher -> corpus index -> {sum of mbps*expansion, count}
    std::map<std::string, std::array<std::array<double, 2>, 2>> sums;
    for (const auto& c : cells) {
      if (c.dir == Dir::encrypt && c.api == Api::alloc) {
        auto& slot = sums[c.cipher][c.corpus == Corpus::random ? 0 : 1];
        slot[0] += c.mb_per_s_mean * c.expansion;
        slot[1] += 1.0;
      }
    }
    bool first = true;
    for (const auto& [name, by_corpus] : sums) {
      os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"random\": "
         << (by_corpus[0][1] > 0.0 ? by_corpus[0][0] / by_corpus[0][1] : 0.0)
         << ", \"text\": "
         << (by_corpus[1][1] > 0.0 ? by_corpus[1][0] / by_corpus[1][1] : 0.0) << "}";
      first = false;
    }
  }
  os << "},\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    os << "    {\"cipher\": \"" << json_escape(c.cipher) << "\", \"backend\": \""
       << backend_name << "\", \"msg_bytes\": "
       << c.msg_bytes << ", \"dir\": \""
       << dir_name(c.dir) << "\", \"api\": \"" << api_name(c.api)
       << "\", \"corpus\": \""<< corpus_name(c.corpus) << "\", \"batch_size\": "
       << c.batch_size << ", \"reps\": " << c.reps << ", \"mb_per_s_mean\": "
       << c.mb_per_s_mean << ", \"mb_per_s_max\": " << c.mb_per_s_max
       << ", \"mb_per_s_stddev\": " << c.mb_per_s_stddev << ", \"expansion\": "
       << c.expansion << ", \"ns_per_block\": " << c.ns_per_block << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::ofstream f(path);
  if (!f) throw std::runtime_error("bench: cannot write " + path);
  f << os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  std::string out_path = "BENCH_ciphers.json";
  bool quick = false;
  std::size_t reps_flag = 0;  // 0 = derive from --quick
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      std::uint64_t v = 0;
      if (!parse_u64(argv[++i], &v) || v < 1 || v > 1000) {
        std::cerr << "bench_ciphers: --reps must be an integer in [1, 1000]\n";
        return 2;
      }
      reps_flag = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!parse_u64(argv[++i], &g_cipher_seed) || g_cipher_seed == 0) {
        std::cerr << "bench_ciphers: --seed must be a non-zero 64-bit integer\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      // Forcing an engine the host cannot run is a hard error: a bench must
      // never silently measure scalar while its artifact is labelled avx2.
      const char* name = argv[++i];
      if (!mhhea::backend::set_active(name)) {
        std::cerr << "bench_ciphers: backend \"" << name
                  << "\" is not available on this host (try auto or scalar)\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_ciphers [--out FILE] [--quick] [--reps N] "
                   "[--seed S] [--backend auto|scalar|avx2]\n";
      return 2;
    }
  }

  // The random corpus measures all four dir x api cells.
  const std::vector<SweepColumn> columns = {{Dir::encrypt, Api::alloc},
                                            {Dir::encrypt, Api::into},
                                            {Dir::decrypt, Api::alloc},
                                            {Dir::decrypt, Api::into}};
  const std::vector<std::size_t> sizes = {64, 1024, 16384};
  const std::size_t reps = reps_flag > 0 ? reps_flag : (quick ? 2 : 9);

  // The text corpus sweeps the encrypt/decrypt alloc cells only: its
  // purpose is the wire-expansion and effective-wire-throughput aggregates.
  const std::vector<SweepColumn> text_columns = {{Dir::encrypt, Api::alloc},
                                                 {Dir::decrypt, Api::alloc}};

  std::vector<CellResult> cells;
  for (const auto& name : CipherRegistry::builtin().names()) {
    for (Corpus corpus : {Corpus::random, Corpus::text}) {
      const auto& cols = corpus == Corpus::random ? columns : text_columns;
      for (std::size_t msg_bytes : sizes) {
        for (auto& cell : run_cells(name, msg_bytes, cols, corpus, reps)) {
          std::cout << cell.cipher << " msg=" << cell.msg_bytes << "B "
                    << dir_name(cell.dir) << "/" << api_name(cell.api) << " corpus="
                    << corpus_name(cell.corpus) << " batch="
                    << cell.batch_size << ": "
                    << cell.mb_per_s_mean << " MB/s (max " << cell.mb_per_s_max
                    << ", sd " << cell.mb_per_s_stddev << "), expansion "
                    << cell.expansion << ", " << cell.ns_per_block << " ns/block\n";
          cells.push_back(std::move(cell));
        }
      }
    }
  }

  write_json(out_path, cells, reps);
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_ciphers: " << e.what() << "\n";
  return 1;
}
