// Shared pieces of the repository benchmark: options, clocks, order
// statistics, the result record and the in-memory span tracer.
#pragma once

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Everything a run is parameterised by. The load fields are the values that
/// differ between the daemon workloads; run.py passes them from
/// perfbench/workloads.json, so the load is fixed by configuration and never
/// derived from a probe of the code being measured. Values every workload
/// shares are the constants below.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // JSONL span file written by a traced run

  // daemon workloads; a zero rate or request cap means "none"
  std::size_t payload_bytes = 0;
  std::string corpus;                     // random | text
  std::string compression;                // server's outbound compression
  double open_rate_rps = 0.0;             // open-loop phase rate
  double open_share = 0.0;                // share of --seconds for the open loop
  double warmup_s = 0.0;                  // unmeasured lead of the first phase
  int closed_depth = 0;                   // requests outstanding per connection
  std::uint64_t closed_max_requests = 0;  // closed-loop request cap
  double closed_share = 0.0;              // share of --seconds for the closed loop

  /// The workload's name says which kind it is: daemon_* or lib_*.
  [[nodiscard]] bool daemon() const { return workload.rfind("daemon_", 0) == 0; }
  /// The workload with an open loop is the mixed one: half of its requests
  /// are kOpen of pre-sealed bodies, the rest (and all of the others) kSeal.
  [[nodiscard]] bool mixed() const { return open_rate_rps > 0; }
};

// Load shared by every daemon workload.
/// Connections, all driven by the one load-generator thread (the host has
/// about two effective cores, so more would measure the scheduler).
inline constexpr int kConns = 4;
/// Independent rounds (fresh server, connections and timed set-up) a daemon
/// run is split into, so set-up is timed many times and a host stall hits
/// only some of the rounds.
inline constexpr int kRounds = 10;
/// Unmeasured lead of a closed loop that follows the open loop on warm
/// connections.
inline constexpr double kClosedAfterOpenWarmupS = 0.05;
/// Share of --seconds spent in library passes over the workload's payloads.
inline constexpr double kLibShare = 0.2;
/// A reply later than this is a failure; also how long a phase drains.
inline constexpr double kLateMs = 1000.0;
/// Every Nth kSeal reply is kept and opened with the client's s2c Session
/// after the load (prime, so it does not beat against the payload cycle).
inline constexpr int kSealSampleEvery = 97;
/// Fresh connections of the wire-cost sweep (8 per round), each with its own
/// random hiding key.
inline constexpr int kWireConns = 80;

// The lib_roundtrip corpus: seeded random bytes split evenly between the two
// message sizes, and how often its set-up is timed.
inline constexpr std::size_t kSmallBytes = 1024;
inline constexpr std::size_t kLargeBytes = 16384;
inline constexpr std::size_t kCorpusBytesPerSize = 65536;
inline constexpr int kSetupReps = 15;

using Bytes = std::vector<std::uint8_t>;

/// CLOCK_MONOTONIC in nanoseconds (the clock timerfd deadlines use too).
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double secs_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

inline double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the whole process, of the calling thread, and of every other
/// thread (for the daemon workloads: the server's I/O thread and executor
/// workers, since the load generator is the calling thread).
inline double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
inline double other_threads_cpu_s() { return process_cpu_s() - thread_cpu_s(); }

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The figure a run reports from many repeated measurements (passes,
/// rounds, time slices): the best decile — the 90th percentile of rates,
/// the 10th of times. On a shared host the CPU switches every few seconds
/// between its normal speed and a state up to ~40% slower, and the share of
/// a run spent in each differs from run to run, so a median flips between
/// the two. Interference only ever slows the code down; the best decile
/// tracks the code itself, as long as a run spends a tenth of its time
/// undisturbed. The price: a regression that shows in only some of the
/// measurements (a stall in a minority of rounds) cannot move a best-decile
/// figure; the pooled per-layer client.latency_pooled_p90_ms still shows it.
inline double best_decile(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (higher_is_better) std::reverse(v.begin(), v.end());
  return v[static_cast<std::size_t>(std::lround(0.1 * static_cast<double>(v.size() - 1)))];
}

/// The q-percentile of the samples `v` within each of `k` equal slices of
/// [w0, w1] (by their times `t`; empty slices skipped), then the best decile
/// (lowest) over the slices.
inline double sliced_percentile(const std::vector<double>& v, const std::vector<std::int64_t>& t,
                                std::int64_t w0, std::int64_t w1, int k, double q) {
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(k));
  const double width = static_cast<double>(w1 - w0) / k;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const int s = static_cast<int>(static_cast<double>(t[i] - w0) / width);
    slices[static_cast<std::size_t>(std::clamp(s, 0, k - 1))].push_back(v[i]);
  }
  std::vector<double> per_slice;
  for (auto& s : slices) {
    if (!s.empty()) per_slice.push_back(percentile(std::move(s), q));
  }
  return best_decile(std::move(per_slice), false);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run's outcome. `e2e` holds the end-to-end metrics of the
/// untraced run, `layer` the per-layer metrics of a traced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void put(std::vector<Metric>& into, std::string name, double value, std::string unit) {
    into.push_back({std::move(name), value, std::move(unit)});
  }
};

/// In-memory span recorder: spans are kept in a vector and written out when
/// the run ends. A span with parent 0 is a root. Child spans may be replays
/// of a sub-stage timed right after their parent (the library exposes no
/// hooks inside its calls), so self time is computed from durations.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char* layer = "";
    const char* name = "";
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    bool replayed = false;
  };

  std::uint32_t add(const char* layer, const char* name, std::uint32_t parent, std::int64_t t0,
                    std::int64_t t1, bool replayed = false) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({id, parent, layer, name, t0, t1, replayed});
    return id;
  }
  /// Close a span opened with t1 unknown.
  void set_end(std::uint32_t id, std::int64_t t1) { spans_[id - 1].t1 = t1; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Self time (duration minus child durations) summed per layer, in ns,
  /// over the spans whose root is named `root_name`.
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer(const char* root_name) const;
  /// One JSON object per line: id, parent, layer, name, t0_ns, t1_ns, replayed.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// --- workloads (daemon.cpp, lib.cpp, stages.cpp) ----------------------------

/// The library round-trip lanes: registry MHHEA, a sealed-v2 Session pair,
/// registry HHEA and registry YAEA-S.
enum LibLane { kLibMhhea, kLibSealedV2, kLibHhea, kLibYaeaS, kLibLanes };

/// Library round trips accumulated over one or more LibBench::run calls.
struct LibRates {
  // All timed on the measuring thread's CPU clock (see LibBench::run).
  std::vector<double> pass_mb_s[kLibLanes];  // plaintext MB per CPU-second of each pass
  // Per cycle (one pass of every lane): round trips and plaintext MB per
  // CPU-second, and the sealed-v2 round-trip latency percentiles.
  std::vector<double> cycle_per_cpu_s;
  std::vector<double> cycle_mb_per_cpu_s;
  std::vector<double> cycle_p50_ms;
  std::vector<double> cycle_p90_ms;
  std::uint64_t attempted = 0;  // round trips
  std::uint64_t failed = 0;     // round trips whose output did not match
  std::uint64_t sealed_bytes = 0;   // sealed-v2 container bytes
  std::uint64_t sealed_plain = 0;   // plaintext bytes behind them
  std::vector<double> sealed_lat_ms;  // every sealed-v2 round trip (CPU ms)

  /// Best-decile pass rate of `lane`.
  [[nodiscard]] double mb_s(LibLane lane) const { return best_decile(pass_mb_s[lane], true); }
  /// One info line: per lane, the pass count and the 10th/50th/90th
  /// percentile pass rates.
  void print_passes(std::ostream& os) const;
};

/// Library round trips over a message set: registry MHHEA, HHEA and YAEA-S
/// (encrypt_into -> decrypt_into -> memcmp) and a Session pair for sealed-v2
/// (seal_into -> open_into -> memcmp). Construction is the set-up: it builds
/// the ciphers and buffers and runs one untimed warm-up pass per cipher.
class LibBench {
 public:
  LibBench(std::vector<Bytes> msgs, const std::string& compression);
  ~LibBench();

  /// Passes over the message set, interleaved cipher by cipher, until
  /// `seconds` have elapsed (at least one per cipher), accumulated into
  /// `acc`. Spans go to `tracer` when given.
  void run(double seconds, Tracer* tracer, LibRates& acc);
  [[nodiscard]] const std::vector<Bytes>& messages() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// What a workload run hands to the stage probes of a traced run.
struct WorkloadRun {
  double client_p50_us = 0.0;  // the run's end-to-end latency p50
  std::vector<Bytes> payloads;  // the workload's own messages
};

/// Each appends its end-to-end metrics to res.e2e and its client/server
/// counters to res.layer. A non-null `tracer` records a span per request.
WorkloadRun run_lib_workload(const Options& opt, Result& res, Tracer* tracer);
WorkloadRun run_daemon_workload(const Options& opt, Result& res, Tracer* tracer);

/// What the stage probes need from the end-to-end run.
struct StageInput {
  std::span<const Bytes> payloads;  // the workload's own messages
  std::string compression;          // seal-side compression method
  bool mixed = false;               // requests are half seal, half open
  bool daemon = false;              // requests cross the socket and executor
  double client_p50_us = 0.0;       // untraced end-to-end p50
  std::string sock_path;            // where the probe server listens
};

/// Times each layer through its public calls on the workload's payloads and
/// appends the per-layer metrics (and spans) to `res` / `tracer`.
void run_stage_probes(const Options& opt, const StageInput& in, Result& res, Tracer& tracer);

// --- payload generation ------------------------------------------------------

Bytes random_bytes(std::uint64_t seed, std::size_t n);
/// Deterministic synthetic log lines, the compressible corpus shape the
/// repository's existing benches use.
Bytes text_bytes(std::uint64_t seed, std::size_t n);
/// Key material is configuration, not input: fixed for every run, so the
/// seed varies only the messages (MHHEA's speed and expansion depend on the
/// key). The daemon still salts each connection's keys at random.
inline constexpr std::uint64_t kKeySeed = 0x4D48484541ull;
/// The fixed master secret of the server and of the library Sessions.
Bytes bench_master();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
