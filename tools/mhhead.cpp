// mhhead — CLI wrapper for the encryption service daemon (src/server/).
//
// Usage:
//   mhhead --uds /tmp/mhhead.sock --master <hex> [options]
//   mhhead --tcp 7410            --master <hex> [options]
//
// Options:
//   --uds PATH          listen on a UNIX domain socket (unlinked on exit)
//   --tcp PORT          listen on loopback TCP (0 = ephemeral; the bound
//                       port is printed to stdout)
//   --master HEX        session master secret, hex-encoded (required)
//   --max-inflight N    crypto requests admitted and unanswered, queued or
//                       running, counted from when the frame is parsed,
//                       before shedding (def. 128; 0 sheds every crypto
//                       request)
//   --max-conns N       live connection cap (default 1024; >= 1)
//   --timeout-ms N      slow-loris/partial-frame timeout (default 5000; >= 1)
//   --max-frame BYTES   frame length cap (default 1 MiB; >= 1)
//   --compress METHOD   compress outbound (response) seals: raw|lzss|huffman
//                       (default raw; falls back per message, never grows a
//                       frame — opening always accepts every method)
//
// Numeric values must be whole decimal integers inside their range; anything
// else (a port above 65535, trailing junk, a negative limit) exits 2 with
// the usage message before a socket is bound.
//
// The daemon runs one reactor thread per CPU in its affinity mask (so
// `taskset -c 0 mhhead ...` runs one) and serves until SIGINT/SIGTERM; then
// each reactor finishes the request it is running, closes its connections,
// and the process exits 0. "READY" plus the endpoint is printed once the socket is
// listening, so scripted callers (CI's server-smoke job) can wait for the
// line instead of sleeping.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <semaphore>
#include <string>
#include <system_error>
#include <vector>

#include "src/server/server.hpp"
#include "src/util/hex.hpp"

namespace {

// Signal flag → semaphore: the handler only does async-signal-safe work.
std::binary_semaphore g_stop(0);

void on_signal(int) { g_stop.release(); }

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "mhhead: " << msg
            << "\nusage: mhhead (--uds PATH | --tcp PORT) --master HEX"
               " [--max-inflight N] [--max-conns N]"
               " [--timeout-ms N] [--max-frame BYTES]"
               " [--compress raw|lzss|huffman]\n";
  std::exit(2);
}

/// The whole of `value` as a decimal integer in [lo, hi]; anything else is
/// a usage error. std::from_chars takes no sign prefix other than '-', no
/// whitespace and no trailing characters, and reports overflow.
long long parse_int(const std::string& flag, const std::string& value, long long lo,
                    long long hi) {
  long long v = 0;
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, v);
  if (value.empty() || ec != std::errc{} || ptr != last) {
    usage_error(flag + ": not an integer: " + value);
  }
  if (v < lo || v > hi) {
    usage_error(flag + ": " + value + " is outside [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]");
  }
  return v;
}

constexpr long long kIntMax = std::numeric_limits<int>::max();

}  // namespace

int main(int argc, char** argv) {
  mhhea::server::ServerConfig cfg;
  bool have_endpoint = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--uds") {
      cfg.uds_path = need_value("--uds");
      have_endpoint = true;
    } else if (arg == "--tcp") {
      cfg.tcp_port = static_cast<std::uint16_t>(
          parse_int("--tcp", need_value("--tcp"), 0, std::numeric_limits<std::uint16_t>::max()));
      have_endpoint = true;
    } else if (arg == "--master") {
      try {
        cfg.master = mhhea::util::hex_to_bytes(need_value("--master"));
      } catch (const std::invalid_argument& e) {
        usage_error(std::string("--master: ") + e.what());
      }
    } else if (arg == "--max-inflight") {
      cfg.max_inflight = static_cast<int>(
          parse_int("--max-inflight", need_value("--max-inflight"), 0, kIntMax));
    } else if (arg == "--max-conns") {
      cfg.max_connections =
          static_cast<int>(parse_int("--max-conns", need_value("--max-conns"), 1, kIntMax));
    } else if (arg == "--timeout-ms") {
      cfg.request_timeout_ms =
          static_cast<int>(parse_int("--timeout-ms", need_value("--timeout-ms"), 1, kIntMax));
    } else if (arg == "--max-frame") {
      cfg.max_frame_bytes = static_cast<std::size_t>(parse_int(
          "--max-frame", need_value("--max-frame"), 1, std::numeric_limits<long long>::max()));
    } else if (arg == "--compress") {
      try {
        cfg.compression = mhhea::compress::method_from_name(need_value("--compress"));
      } catch (const std::invalid_argument& e) {
        usage_error(std::string("--compress: ") + e.what());
      }
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (!have_endpoint) usage_error("one of --uds/--tcp is required");
  if (cfg.master.empty()) usage_error("--master is required (non-empty hex)");

  try {
    mhhea::server::Server server(cfg);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    server.start();
    if (!cfg.uds_path.empty()) {
      std::cout << "READY uds " << cfg.uds_path << std::endl;
    } else {
      std::cout << "READY tcp " << server.port() << std::endl;
    }
    g_stop.acquire();
    server.stop();
    const auto s = server.stats();
    std::cout << "mhhead: served ok=" << s.requests_ok << " error=" << s.requests_error
              << " shed=" << s.shed << " timeouts=" << s.timeouts
              << " accepted=" << s.accepted << " accept_failures=" << s.accept_failures
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "mhhead: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
