// Open-loop load generator for the mhhead encryption daemon.
//
// Two phases:
//   1. Saturation probe (closed loop): every connection sends seal requests
//      back to back for --probe-secs; the achieved rate estimates the
//      server's saturation QPS on this host.
//   2. Open-loop sweep: for each target rate (default 0.25x/0.5x/1x/2x of
//      the measured saturation) arrivals are generated by a Poisson process
//      — exponential inter-arrival times from a seeded Xoshiro256, NOT by
//      waiting for responses — and assigned round robin to the connections.
//      Latency for a request is measured from its SCHEDULED arrival to the
//      response, so server-side queueing and shedding delay both count, the
//      way an outside observer would see them.
//
// Per run the harness reports goodput (kOk responses/s), shed rate
// (kOverloaded, the retriable overload signal), error count, and
// p50/p99/p999 latency. The ≥2x-saturation run is where the server's
// explicit shedding must engage: the acceptance gate checks it sheds
// (nonzero kOverloaded) instead of crashing or queuing without bound.
//
// --corpus picks the seal-request payload: `random` (incompressible) or
// `text` (synthetic log lines, the compressible shape the daemon's
// compression pre-stage targets). Each run also accounts the kOk response
// bytes that actually crossed the wire, reported as `expansion` (wire
// bytes per plaintext byte) and `effective_wire_mb_per_s` — run a
// --compress lzss daemon against --corpus text to see the pre-stage cut
// the wire cost.
//
// Output: BENCH_server.json (path via --out).
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/util/hex.hpp"
#include "src/util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using mhhea::server::Op;
using mhhea::server::Status;

struct Options {
  std::string uds_path;
  std::uint16_t tcp_port = 0;
  bool have_endpoint = false;
  std::size_t msg_bytes = 256;
  int conns = 8;
  double probe_secs = 2.0;
  double run_secs = 3.0;
  std::vector<double> qps_list;  // empty: derive from the probe
  std::uint64_t seed = 0x5EA15EED;
  std::string corpus = "random";  // seal payload shape: random | text
  std::string out_path = "BENCH_server.json";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "bench_server: " << msg
            << "\nusage: bench_server (--uds PATH | --tcp PORT)"
               " [--msg-bytes N] [--conns N] [--probe-secs S] [--secs S]"
               " [--qps q1,q2,...] [--seed HEX] [--corpus random|text]"
               " [--out PATH]\n";
  std::exit(2);
}

int connect_to(const Options& opt) {
  int fd = -1;
  if (!opt.uds_path.empty()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) usage_error("socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opt.uds_path.c_str(), opt.uds_path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      usage_error("connect(" + opt.uds_path + ") failed");
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) usage_error("socket(AF_INET) failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt.tcp_port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      usage_error("connect(127.0.0.1:" + std::to_string(opt.tcp_port) + ") failed");
    }
  }
  return fd;
}

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Read exactly one response frame (blocking). Returns false on EOF/error.
bool read_response(int fd, mhhea::server::FrameParser& parser, mhhea::server::Frame& out) {
  for (;;) {
    if (auto f = parser.next()) {
      out = std::move(*f);
      return true;
    }
    std::uint8_t buf[16 * 1024];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    parser.feed(std::span(buf, static_cast<std::size_t>(n)));
  }
}

/// A parser for the replies to `request` (an encoded frame, length prefix
/// included): the status byte plus the largest container any connection's
/// session seals a request of that length into.
mhhea::server::FrameParser reply_parser(const std::vector<std::uint8_t>& request) {
  return mhhea::server::FrameParser(
      mhhea::server::max_reply_frame(request.size() - mhhea::server::kLenPrefixBytes));
}

/// Consume the server hello (the first frame on every connection, carrying
/// the per-connection session salt). The load generator never opens
/// containers, so the salt itself is discarded — but the frame must be
/// consumed or it would be miscounted as the first response.
bool read_hello(int fd, mhhea::server::FrameParser& parser) {
  mhhea::server::Frame hello;
  return read_response(fd, parser, hello) &&
         static_cast<Status>(hello.tag) == Status::kHello;
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                       std::ceil(q * static_cast<double>(sorted.size())) - 1.0));
  return sorted[idx];
}

struct RunResult {
  double target_qps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;  // no response (connection died / drain cutoff)
  std::uint64_t wire_bytes = 0;  // kOk response bodies: sealed frames shipped
  double goodput_qps = 0.0;
  double shed_rate = 0.0;
  double expansion = 0.0;  // wire bytes per plaintext byte, post compression
  double effective_wire_mb_per_s = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0, mean_ms = 0.0, max_ms = 0.0;
};

/// One connection of the open-loop harness: the caller pushes scheduled
/// arrivals, the sender writes them as soon as possible, the receiver
/// matches responses FIFO against the arrival timestamps.
class OpenLoopConn {
 public:
  OpenLoopConn(const Options& opt, std::vector<std::uint8_t> request_frame)
      : fd_(connect_to(opt)), frame_(std::move(request_frame)) {
    sender_ = std::thread([this] { sender_loop(); });
    receiver_ = std::thread([this] { receiver_loop(); });
  }

  ~OpenLoopConn() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    sender_.join();
    // Receiver exits on EOF after the socket is shut down for writing and
    // the server has flushed (or on the drain shutdown below).
    ::shutdown(fd_, SHUT_RDWR);
    receiver_.join();
    ::close(fd_);
  }

  void push_arrival(Clock::time_point scheduled) {
    {
      std::lock_guard lock(mu_);
      to_send_ += 1;
      arrivals_.push_back(scheduled);
    }
    cv_.notify_one();
  }

  /// Wait until every pushed arrival got a response, the connection died,
  /// or `deadline` passes.
  void drain(Clock::time_point deadline) {
    std::unique_lock lock(mu_);
    drained_cv_.wait_until(lock, deadline, [this] {
      return dead_.load() || (to_send_ == 0 && responses_ == pushed_count());
    });
  }

  std::uint64_t sent = 0;  // final counters, valid after drain()
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t wire_bytes = 0;  // sealed container bytes across kOk bodies
  std::vector<double> latencies_ms;

 private:
  std::uint64_t pushed_count() const { return total_pushed_; }

  void sender_loop() {
    for (;;) {
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return done_ || to_send_ > 0; });
        if (to_send_ == 0 && done_) return;
        to_send_ -= 1;
        total_pushed_ += 1;
      }
      if (!dead_.load() && !write_all(fd_, frame_.data(), frame_.size())) {
        std::lock_guard lock(mu_);
        dead_.store(true);
        drained_cv_.notify_all();
      }
      {
        std::lock_guard lock(mu_);
        sent += 1;
      }
    }
  }

  void receiver_loop() {
    mhhea::server::FrameParser parser = reply_parser(frame_);
    if (!read_hello(fd_, parser)) {
      std::lock_guard lock(mu_);
      dead_.store(true);
      drained_cv_.notify_all();
      return;
    }
    mhhea::server::Frame resp;
    while (read_response(fd_, parser, resp)) {
      const auto now = Clock::now();
      Clock::time_point scheduled;
      {
        std::lock_guard lock(mu_);
        if (arrivals_.empty()) continue;  // response to nothing we track
        scheduled = arrivals_.front();
        arrivals_.pop_front();
        responses_ += 1;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(now - scheduled).count();
      std::lock_guard lock(mu_);
      switch (static_cast<Status>(resp.tag)) {
        case Status::kOk:
          ok += 1;
          wire_bytes += resp.body.size();
          latencies_ms.push_back(ms);
          break;
        case Status::kOverloaded:
          shed += 1;
          break;
        default:
          errors += 1;
          break;
      }
      drained_cv_.notify_all();
    }
    std::lock_guard lock(mu_);
    dead_.store(true);
    drained_cv_.notify_all();
  }

  int fd_;
  std::vector<std::uint8_t> frame_;
  std::thread sender_;
  std::thread receiver_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<Clock::time_point> arrivals_;
  std::uint64_t to_send_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t responses_ = 0;
  bool done_ = false;
  std::atomic<bool> dead_{false};
};

std::vector<std::uint8_t> make_seal_frame(const Options& opt) {
  mhhea::util::Xoshiro256 rng(opt.seed);
  std::vector<std::uint8_t> msg;
  if (opt.corpus == "text") {
    // Deterministic structured log lines — the redundancy profile the
    // daemon's compression pre-stage is built for (mirrors bench_ciphers).
    static const char* const kLevels[] = {"INFO", "WARN", "DEBUG"};
    while (msg.size() < opt.msg_bytes) {
      const std::string line =
          "2026-08-08T12:00:" + std::to_string(rng.below(60)) +
          "Z svc=mhhead level=" + kLevels[rng.below(3)] +
          " msg=\"request sealed\" conn=" + std::to_string(rng.below(1024)) +
          " bytes=" + std::to_string(rng.below(65536)) +
          " latency_us=" + std::to_string(rng.below(10000)) + " status=ok\n";
      msg.insert(msg.end(), line.begin(), line.end());
    }
    msg.resize(opt.msg_bytes);
  } else {
    msg.resize(opt.msg_bytes);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return mhhea::server::encode_request(Op::kSeal, msg);
}

/// Closed-loop probe: `conns` connections each send/await as fast as they
/// can; the aggregate kOk rate approximates saturation goodput. Shed
/// responses return instantly without crypto, so counting them would
/// overstate what the server can actually serve.
double probe_saturation(const Options& opt) {
  const auto frame = make_seal_frame(opt);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opt.conns));
  for (int c = 0; c < opt.conns; ++c) {
    threads.emplace_back([&] {
      const int fd = connect_to(opt);
      mhhea::server::FrameParser parser = reply_parser(frame);
      if (!read_hello(fd, parser)) {
        ::close(fd);
        return;
      }
      mhhea::server::Frame resp;
      while (!stop.load()) {
        if (!write_all(fd, frame.data(), frame.size())) break;
        if (!read_response(fd, parser, resp)) break;
        if (static_cast<Status>(resp.tag) == Status::kOk) completed.fetch_add(1);
      }
      ::close(fd);
    });
  }
  const auto t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.probe_secs));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return secs > 0 ? static_cast<double>(completed.load()) / secs : 0.0;
}

RunResult run_open_loop(const Options& opt, double target_qps) {
  const auto frame = make_seal_frame(opt);
  std::vector<std::unique_ptr<OpenLoopConn>> conns;
  conns.reserve(static_cast<std::size_t>(opt.conns));
  for (int c = 0; c < opt.conns; ++c) {
    conns.push_back(std::make_unique<OpenLoopConn>(opt, frame));
  }

  // Poisson arrivals: exponential inter-arrival gaps at `target_qps`,
  // assigned round robin. The schedule never waits for the server — that is
  // the open loop.
  mhhea::util::Xoshiro256 rng(opt.seed ^ 0x9E3779B97F4A7C15ull);
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(opt.run_secs));
  std::uint64_t scheduled = 0;
  auto next_arrival = t0;
  std::size_t rr = 0;
  while (next_arrival < t_end) {
    std::this_thread::sleep_until(next_arrival);
    conns[rr]->push_arrival(next_arrival);
    rr = (rr + 1) % conns.size();
    scheduled += 1;
    const double u = rng.uniform();
    const double gap_s = -std::log1p(-u) / target_qps;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap_s));
  }

  // Drain: give outstanding requests a grace period to finish.
  const auto drain_deadline = Clock::now() + std::chrono::seconds(5);
  for (auto& c : conns) c->drain(drain_deadline);

  RunResult r;
  r.target_qps = target_qps;
  std::vector<double> lat;
  for (auto& c : conns) {
    // Destruction joins the threads; counters are final afterwards.
    const auto& cc = *c;
    r.sent += cc.sent;
    r.ok += cc.ok;
    r.shed += cc.shed;
    r.errors += cc.errors;
    r.wire_bytes += cc.wire_bytes;
    lat.insert(lat.end(), cc.latencies_ms.begin(), cc.latencies_ms.end());
  }
  conns.clear();
  r.lost = scheduled >= (r.ok + r.shed + r.errors)
               ? scheduled - (r.ok + r.shed + r.errors)
               : 0;
  const double secs = opt.run_secs;
  r.goodput_qps = secs > 0 ? static_cast<double>(r.ok) / secs : 0.0;
  r.expansion = r.ok > 0 ? static_cast<double>(r.wire_bytes) /
                               (static_cast<double>(r.ok) *
                                static_cast<double>(opt.msg_bytes))
                         : 0.0;
  r.effective_wire_mb_per_s =
      secs > 0 ? static_cast<double>(r.wire_bytes) / secs / 1.0e6 : 0.0;
  const std::uint64_t answered = r.ok + r.shed + r.errors;
  r.shed_rate = answered > 0 ? static_cast<double>(r.shed) / static_cast<double>(answered)
                             : 0.0;
  std::sort(lat.begin(), lat.end());
  r.p50_ms = percentile(lat, 0.50);
  r.p99_ms = percentile(lat, 0.99);
  r.p999_ms = percentile(lat, 0.999);
  r.max_ms = lat.empty() ? 0.0 : lat.back();
  double sum = 0.0;
  for (const double v : lat) sum += v;
  r.mean_ms = lat.empty() ? 0.0 : sum / static_cast<double>(lat.size());
  return r;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--uds") {
        opt.uds_path = need_value("--uds");
        opt.have_endpoint = true;
      } else if (arg == "--tcp") {
        opt.tcp_port = static_cast<std::uint16_t>(std::stoul(need_value("--tcp")));
        opt.have_endpoint = true;
      } else if (arg == "--msg-bytes") {
        opt.msg_bytes = std::stoul(need_value("--msg-bytes"));
      } else if (arg == "--conns") {
        opt.conns = std::stoi(need_value("--conns"));
      } else if (arg == "--probe-secs") {
        opt.probe_secs = std::stod(need_value("--probe-secs"));
      } else if (arg == "--secs") {
        opt.run_secs = std::stod(need_value("--secs"));
      } else if (arg == "--qps") {
        std::stringstream ss(need_value("--qps"));
        std::string tok;
        while (std::getline(ss, tok, ',')) opt.qps_list.push_back(std::stod(tok));
      } else if (arg == "--seed") {
        opt.seed = mhhea::util::parse_hex(need_value("--seed"));
      } else if (arg == "--corpus") {
        opt.corpus = need_value("--corpus");
        if (opt.corpus != "random" && opt.corpus != "text") {
          usage_error("--corpus must be random or text");
        }
      } else if (arg == "--out") {
        opt.out_path = need_value("--out");
      } else {
        usage_error("unknown flag " + arg);
      }
    } catch (const std::invalid_argument&) {
      usage_error(arg + ": bad value");
    }
  }
  if (!opt.have_endpoint) usage_error("one of --uds/--tcp is required");
  if (opt.conns < 1 || opt.msg_bytes == 0) usage_error("--conns/--msg-bytes must be >= 1");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  std::cerr << "bench_server: probing saturation (" << opt.conns << " conns, "
            << opt.probe_secs << "s closed loop)...\n";
  const double sat_qps = probe_saturation(opt);
  std::cerr << "bench_server: saturation ~" << sat_qps << " qps\n";
  if (sat_qps <= 0.0) {
    std::cerr << "bench_server: server completed no requests during the probe\n";
    return 1;
  }

  std::vector<double> targets = opt.qps_list;
  if (targets.empty()) {
    targets = {0.25 * sat_qps, 0.5 * sat_qps, 1.0 * sat_qps, 2.0 * sat_qps};
  }

  std::vector<RunResult> runs;
  runs.reserve(targets.size());
  for (const double q : targets) {
    std::cerr << "bench_server: open loop @ " << q << " qps for " << opt.run_secs
              << "s...\n";
    runs.push_back(run_open_loop(opt, q));
    const RunResult& r = runs.back();
    std::cerr << "  sent=" << r.sent << " ok=" << r.ok << " shed=" << r.shed
              << " err=" << r.errors << " lost=" << r.lost << " goodput="
              << r.goodput_qps << " p50=" << r.p50_ms << "ms p99=" << r.p99_ms
              << "ms p999=" << r.p999_ms << "ms\n";
  }

  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"bench\": \"server\",\n";
  os << "  \"endpoint\": \""
     << (!opt.uds_path.empty() ? "uds" : "tcp") << "\",\n";
  os << "  \"msg_bytes\": " << opt.msg_bytes << ",\n";
  os << "  \"corpus\": \"" << opt.corpus << "\",\n";
  os << "  \"conns\": " << opt.conns << ",\n";
  os << "  \"arrivals\": \"poisson\",\n";
  os << "  \"saturation_qps\": " << sat_qps << ",\n";
  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    os << "    {\"target_qps\": " << r.target_qps << ", \"sent\": " << r.sent
       << ", \"ok\": " << r.ok << ", \"shed\": " << r.shed
       << ", \"errors\": " << r.errors << ", \"lost\": " << r.lost
       << ", \"goodput_qps\": " << r.goodput_qps
       << ", \"wire_bytes\": " << r.wire_bytes
       << ", \"expansion\": " << r.expansion
       << ", \"effective_wire_mb_per_s\": " << r.effective_wire_mb_per_s
       << ", \"shed_rate\": " << r.shed_rate << ", \"p50_ms\": " << r.p50_ms
       << ", \"p99_ms\": " << r.p99_ms << ", \"p999_ms\": " << r.p999_ms
       << ", \"mean_ms\": " << r.mean_ms << ", \"max_ms\": " << r.max_ms << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  std::ofstream out(opt.out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "bench_server: cannot write " << opt.out_path << "\n";
    return 1;
  }
  out << os.str();
  std::cerr << "bench_server: wrote " << opt.out_path << "\n";
  return 0;
}
