// lib_roundtrip: the cipher library driven directly, no sockets and no
// executor. Also supplies the library pass the daemon workloads run on their
// own payloads.
#include <sched.h>

#include <cstring>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "src/compress/compress.hpp"
#include "src/core/params.hpp"
#include "src/crypto/registry.hpp"
#include "src/crypto/session.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

constexpr const char* kLaneName[kLibLanes] = {"lib.mhhea", "lib.sealed_v2", "lib.hhea", "lib.yaea_s"};
// Layer each lane's calls belong to (the registry adapters live in crypto,
// the bare MHHEA adapter is a thin shell over the core engine).
constexpr const char* kLaneLayer[kLibLanes] = {"core", "crypto", "crypto", "crypto"};

std::vector<std::uint8_t> lib_context() {
  const std::string label = "perfbench lib";
  return {label.begin(), label.end()};
}

/// Moves the calling thread to the next CPU it may run on at every next()
/// and restores its affinity on destruction. On a shared host single vCPUs
/// are slowed by their neighbours for seconds at a time while others run at
/// full speed; visiting every vCPU gives the best-decile rates undisturbed
/// passes to pick from whichever vCPU is disturbed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace

struct LibBench::Impl {
  std::vector<Bytes> msgs;
  std::unique_ptr<mhhea::crypto::Cipher> ciphers[kLibLanes];  // kLibSealedV2 slot unused
  mhhea::crypto::Session sealer;
  mhhea::crypto::Session opener;
  Bytes ct;
  Bytes pt;

  Impl(std::vector<Bytes> m, const Bytes& master)
      : msgs(std::move(m)),
        sealer(mhhea::crypto::Session::from_master(master, lib_context(), 8,
                                                   mhhea::core::BlockParams::hardware())),
        opener(mhhea::crypto::Session::from_master(master, lib_context(), 8,
                                                   mhhea::core::BlockParams::hardware())) {
    const auto& reg = mhhea::crypto::CipherRegistry::builtin();
    ciphers[kLibMhhea] = reg.make("MHHEA", kKeySeed);
    ciphers[kLibHhea] = reg.make("HHEA", kKeySeed);
    ciphers[kLibYaeaS] = reg.make("YAEA-S", kKeySeed);
    std::size_t max_msg = 0;
    std::size_t max_ct = 0;
    for (const auto& msg : msgs) {
      max_msg = std::max(max_msg, msg.size());
      max_ct = std::max(max_ct, sealer.max_sealed_size(msg.size()));
      for (int l : {kLibMhhea, kLibHhea, kLibYaeaS}) {
        max_ct = std::max(max_ct, ciphers[l]->max_ciphertext_size(msg.size()));
      }
    }
    ct.resize(max_ct);
    pt.resize(max_msg);
  }

  /// One round trip of `msg` on `lane`; false when the output differs.
  /// Records seal/open (encrypt/decrypt) child spans under `root` when
  /// tracing. `sealed` receives the sealed-v2 container size.
  bool roundtrip(int lane, const Bytes& msg, Tracer* tracer, std::uint32_t root,
                 std::size_t* sealed) {
    const std::int64_t t0 = tracer != nullptr ? now_ns() : 0;
    std::size_t n = 0;
    std::size_t m = 0;
    if (lane == kLibSealedV2) {
      n = sealer.seal_into(msg, ct);
      *sealed = n;
    } else {
      n = ciphers[lane]->encrypt_into(msg, ct);
    }
    const std::int64_t t1 = tracer != nullptr ? now_ns() : 0;
    if (lane == kLibSealedV2) {
      m = opener.open_into(std::span(ct).first(n), pt);
    } else {
      m = ciphers[lane]->decrypt_into(std::span(ct).first(n), msg.size(), pt);
    }
    if (tracer != nullptr) {
      const std::int64_t t2 = now_ns();
      tracer->add(kLaneLayer[lane], lane == kLibSealedV2 ? "seal_into" : "encrypt_into", root, t0, t1);
      tracer->add(kLaneLayer[lane], lane == kLibSealedV2 ? "open_into" : "decrypt_into", root, t1, t2);
    }
    return m == msg.size() && std::memcmp(pt.data(), msg.data(), m) == 0;
  }
};

LibBench::LibBench(std::vector<Bytes> msgs, const std::string& compression)
    : impl_(std::make_unique<Impl>(std::move(msgs), bench_master())) {
  impl_->sealer.set_compression(mhhea::compress::method_from_name(compression));
  std::size_t sealed = 0;
  for (int lane = 0; lane < kLibLanes; ++lane) {
    for (const auto& msg : impl_->msgs) (void)impl_->roundtrip(lane, msg, nullptr, 0, &sealed);
  }
}

LibBench::~LibBench() = default;

const std::vector<Bytes>& LibBench::messages() const { return impl_->msgs; }

void LibBench::run(double seconds, Tracer* tracer, LibRates& r) {
  Impl& im = *impl_;
  std::uint64_t set_bytes = 0;
  for (const auto& msg : im.msgs) set_bytes += msg.size();

  // Every figure is timed on this thread's CPU clock. The thread never
  // blocks, so that is its wall time minus the time the host took its vCPU
  // away (steal, which the guest kernel accounts), which on a shared host
  // comes and goes for seconds to minutes and is no property of the code.
  const auto end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const double cycle_msgs = static_cast<double>(kLibLanes * im.msgs.size());
  CpuRotation rotation;
  std::vector<double> cycle_lat;
  for (int pass = 0; pass < 1 || now_ns() < end; ++pass) {
    rotation.next();
    cycle_lat.clear();
    const double c0 = thread_cpu_s();
    for (int lane = 0; lane < kLibLanes; ++lane) {
      const double p0 = thread_cpu_s();
      for (const auto& msg : im.msgs) {
        const std::int64_t m0 = now_ns();
        const double cpu0 = lane == kLibSealedV2 ? thread_cpu_s() : 0.0;
        const std::uint32_t root =
            tracer != nullptr ? tracer->add("client", kLaneName[lane], 0, m0, m0) : 0;
        std::size_t sealed = 0;
        const bool ok = im.roundtrip(lane, msg, tracer, root, &sealed);
        if (tracer != nullptr) tracer->set_end(root, now_ns());
        ++r.attempted;
        if (!ok) ++r.failed;
        if (lane == kLibSealedV2) {
          cycle_lat.push_back((thread_cpu_s() - cpu0) * 1e3);
          r.sealed_bytes += sealed;
          r.sealed_plain += msg.size();
        }
      }
      r.pass_mb_s[lane].push_back(static_cast<double>(set_bytes) / ((thread_cpu_s() - p0) * 1e6));
    }
    const double cycle_s = thread_cpu_s() - c0;
    r.cycle_per_cpu_s.push_back(cycle_msgs / cycle_s);
    r.cycle_mb_per_cpu_s.push_back(static_cast<double>(kLibLanes * set_bytes) / cycle_s / 1e6);
    r.cycle_p50_ms.push_back(percentile(cycle_lat, 0.50));
    r.cycle_p90_ms.push_back(percentile(cycle_lat, 0.90));
    r.sealed_lat_ms.insert(r.sealed_lat_ms.end(), cycle_lat.begin(), cycle_lat.end());
  }
}

void LibRates::print_passes(std::ostream& os) const {
  os << "{\"lib_passes\": {";
  for (int lane = 0; lane < kLibLanes; ++lane) {
    const auto& v = pass_mb_s[lane];
    os << (lane ? ", " : "") << "\"" << kLaneName[lane] << "\": {\"n\": " << v.size()
       << ", \"p10\": " << percentile(v, 0.1) << ", \"p50\": " << percentile(v, 0.5)
       << ", \"p90\": " << percentile(v, 0.9) << "}";
  }
  os << "}}\n";
}

WorkloadRun run_lib_workload(const Options& opt, Result& res, Tracer* tracer) {
  std::unique_ptr<LibBench> bench;
  std::vector<double> setup_s;
  WorkloadRun run;
  {
    CpuRotation rotation;  // each repetition on another vCPU, as for the passes
    for (int rep = 0; rep < kSetupReps; ++rep) {
      rotation.next();
      bench.reset();
      const std::int64_t t0 = now_ns();
      // Seeded random corpus, bytes split evenly between the two sizes, in a
      // seeded shuffled order.
      std::vector<Bytes> corpus;
      std::uint64_t k = 0;
      for (const std::size_t size : {kSmallBytes, kLargeBytes}) {
        for (std::size_t i = 0; i < kCorpusBytesPerSize / size; ++i) {
          corpus.push_back(random_bytes(opt.seed * 0x9E3779B97F4A7C15ull + ++k, size));
        }
      }
      // The latency p50 lands on a small message (they outnumber the large
      // ones), so the stage probes replay the small ones.
      const auto n_small = static_cast<std::ptrdiff_t>(kCorpusBytesPerSize / kSmallBytes);
      run.payloads.assign(corpus.begin(), corpus.begin() + n_small);
      mhhea::util::Xoshiro256 rng(opt.seed);
      std::shuffle(corpus.begin(), corpus.end(), rng);
      bench = std::make_unique<LibBench>(std::move(corpus), "raw");
      setup_s.push_back(secs_between(t0, now_ns()));
    }
  }

  LibRates r;
  bench->run(opt.seconds, tracer, r);
  res.attempted += r.attempted;
  res.failed += r.failed;
  if (r.failed > 0) res.correct = false;

  const double p50_ms = best_decile(r.cycle_p50_ms, false);
  auto& e = res.e2e;
  res.put(e, "setup_s", best_decile(setup_s, false), "s");
  // One thread that never waits: its round trips per CPU-second are both
  // its goodput and its capacity.
  const double per_cpu_s = best_decile(r.cycle_per_cpu_s, true);
  res.put(e, "goodput_rps", per_cpu_s, "1/s");
  res.put(e, "capacity_per_cpu_s", per_cpu_s, "1/cpu_s");
  res.put(e, "latency_p50_ms", p50_ms, "ms");
  res.put(e, "latency_p90_ms", best_decile(r.cycle_p90_ms, false), "ms");
  res.put(e, "goodput_mb_s", best_decile(r.cycle_mb_per_cpu_s, true), "MB/s");
  res.put(e, "wire_bytes_per_byte",
          static_cast<double>(r.sealed_bytes) / static_cast<double>(r.sealed_plain), "B/B");
  res.put(e, "peak_rss_mb", peak_rss_mb(), "MB");
  res.put(e, "lib_mhhea_mb_s", r.mb_s(kLibMhhea), "MB/s");
  res.put(e, "lib_sealed_v2_mb_s", r.mb_s(kLibSealedV2), "MB/s");
  res.put(e, "lib_hhea_mb_s", r.mb_s(kLibHhea), "MB/s");
  res.put(e, "lib_yaea_s_mb_s", r.mb_s(kLibYaeaS), "MB/s");
  // A closed loop of one: never late, one message outstanding.
  res.put(res.layer, "client.sched_lag_p99_ms", 0.0, "ms");
  res.put(res.layer, "client.outstanding_max", 1.0, "count");
  res.put(res.layer, "client.samples", static_cast<double>(r.sealed_lat_ms.size()), "count");
  res.put(res.layer, "client.latency_p99_ms", percentile(r.sealed_lat_ms, 0.99), "ms");
  res.put(res.layer, "client.latency_pooled_p90_ms", percentile(r.sealed_lat_ms, 0.90), "ms");
  r.print_passes(std::cout);
  std::cout << "{\"samples\": {\"latency\": " << r.sealed_lat_ms.size()
            << ", \"of\": \"sealed-v2 round trips, 1 KiB and 16 KiB\"}}\n";
  run.client_p50_us = p50_ms * 1e3;
  return run;
}

}  // namespace perfbench
