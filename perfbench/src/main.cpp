// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [workload flags]
//
// perfbench/run.py builds this binary and passes the workload flags from
// perfbench/workloads.json. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// Earlier lines carry host facts and sample counts.
#include <unistd.h>

#include <atomic>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "src/backend/backend.hpp"
#include "src/exec/executor.hpp"

namespace perfbench {

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload daemon_*|lib_* --seed N --seconds S --trace 0|1"
               " [--trace-out FILE] [workload flags from perfbench/workloads.json]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--trace-out") o.trace_out = v;
      else if (flag == "--payload-bytes") o.payload_bytes = std::stoul(v);
      else if (flag == "--corpus") o.corpus = v;
      else if (flag == "--compression") o.compression = v;
      else if (flag == "--open-rate-rps") o.open_rate_rps = std::stod(v);
      else if (flag == "--open-share") o.open_share = std::stod(v);
      else if (flag == "--warmup-s") o.warmup_s = std::stod(v);
      else if (flag == "--closed-depth") o.closed_depth = std::stoi(v);
      else if (flag == "--closed-max-requests") o.closed_max_requests = std::stoull(v);
      else if (flag == "--closed-share") o.closed_share = std::stod(v);
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!o.daemon() && o.workload.rfind("lib_", 0) != 0) {
    usage("--workload must name a daemon_* or lib_* workload");
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  if (o.daemon() && (o.payload_bytes == 0 || (o.corpus != "random" && o.corpus != "text") ||
                     o.compression.empty() || o.closed_depth < 1 || o.closed_share <= 0 ||
                     (o.mixed() && (o.open_share <= 0 || o.closed_max_requests == 0)))) {
    usage("the daemon workload flags are missing or out of range");
  }
  return o;
}

/// Effective cores: nproc busy loops run side by side versus one alone. On
/// an oversubscribed host this is well below nproc.
double effective_cores(int n) {
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&sink](std::uint64_t iters) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x);
  };
  std::uint64_t iters = 1u << 20;
  std::int64_t t0 = now_ns();
  spin(iters);
  // Calibrate to ~40 ms of work for one thread.
  iters = static_cast<std::uint64_t>(static_cast<double>(iters) * 40e6 /
                                     static_cast<double>(std::max<std::int64_t>(now_ns() - t0, 1)));
  t0 = now_ns();
  spin(iters);
  const double one = static_cast<double>(now_ns() - t0);
  std::vector<std::thread> threads;
  t0 = now_ns();
  for (int i = 0; i < n; ++i) threads.emplace_back(spin, iters);
  for (auto& t : threads) t.join();
  const double all = static_cast<double>(now_ns() - t0);
  return n * one / all;
}

void print_metrics(std::ostream& os, const std::vector<Metric>& ms, bool& finite) {
  os << "{";
  const char* sep = "";
  for (const auto& m : ms) {
    double v = m.value;
    if (!std::isfinite(v)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      finite = false;
      v = 0.0;
    }
    os << sep << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  os << "}";
}

int run(const Options& opt) {
  const int nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  const double eff = effective_cores(nproc);
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  std::cout << "{\"host\": {\"nproc\": " << nproc << ", \"effective_cores\": " << eff
            << ", \"backend\": \"" << mhhea::backend::active().name()
            << "\", \"cpu_has_avx2\": " << (mhhea::backend::cpu_has_avx2() ? "true" : "false")
            << ", \"executor_workers\": " << mhhea::exec::Executor::shared().size()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}, \"workload\": \""
            << opt.workload << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
            << "}\n";

  auto workload = opt.daemon() ? run_daemon_workload : run_lib_workload;
  Result res;
  if (!opt.trace) {
    (void)workload(opt, res, nullptr);
  } else {
    // Untraced first (its p50 is the reference), then the same workload
    // with a span per request, then the per-layer probes.
    Result traced;
    Tracer tracer;
    const WorkloadRun plain = workload(opt, res, nullptr);
    const WorkloadRun with_spans = workload(opt, traced, &tracer);
    res.attempted += traced.attempted;
    res.failed += traced.failed;
    res.correct = res.correct && traced.correct;
    StageInput in;
    in.payloads = plain.payloads;
    in.compression = opt.daemon() ? opt.compression : "raw";
    in.mixed = opt.mixed();
    in.daemon = opt.daemon();
    in.client_p50_us = plain.client_p50_us;
    in.sock_path = "perfbench-" + std::to_string(::getpid()) + "-probe.sock";
    run_stage_probes(opt, in, res, tracer);
    res.put(res.layer, "trace.overhead_pct",
            100.0 * (with_spans.client_p50_us - plain.client_p50_us) / plain.client_p50_us, "%");
    res.put(res.layer, "fail_ratio",
            static_cast<double>(res.failed) / static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)),
            "ratio");
    res.put(res.layer, "host.effective_cores", eff, "count");
    if (!opt.trace_out.empty() && !tracer.write_jsonl(opt.trace_out)) {
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
      return 1;
    }
  }

  std::ostringstream metrics;
  metrics << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool finite = true;
  print_metrics(metrics, opt.trace ? res.layer : res.e2e, finite);
  if (!finite) res.correct = false;
  std::cout << "{\"correct\": " << (res.correct ? "true" : "false") << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
