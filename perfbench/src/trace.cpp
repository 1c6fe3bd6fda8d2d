// Span tracer output, payload generators and process facts.
#include <sys/resource.h>

#include <fstream>
#include <string>

#include "common.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

/// Root span id of every span (follows parent links; ids are 1-based and a
/// parent is always recorded before its children).
std::vector<std::uint32_t> roots_of(const std::vector<Tracer::Span>& spans) {
  std::vector<std::uint32_t> root(spans.size() + 1, 0);
  for (const auto& s : spans) root[s.id] = s.parent == 0 ? s.id : root[s.parent];
  return root;
}

}  // namespace

std::map<std::string, double> Tracer::self_ns_by_layer(const char* root_name) const {
  const auto root = roots_of(spans_);
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const auto& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.t1 - s.t0);
  }
  std::map<std::string, double> self;
  for (const auto& s : spans_) {
    if (std::string(spans_[root[s.id] - 1].name) != root_name || s.parent == 0) continue;
    self[s.layer] += static_cast<double>(s.t1 - s.t0) - child_ns[s.id];
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"layer\":\"" << s.layer
        << "\",\"name\":\"" << s.name << "\",\"t0_ns\":" << s.t0 << ",\"t1_ns\":" << s.t1
        << ",\"replayed\":" << (s.replayed ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(out);
}

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  mhhea::util::Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

Bytes text_bytes(std::uint64_t seed, std::size_t n) {
  mhhea::util::Xoshiro256 rng(seed);
  static const char* const kLevels[] = {"INFO", "WARN", "DEBUG"};
  Bytes out;
  out.reserve(n + 160);
  while (out.size() < n) {
    const std::string line = "2026-08-08T12:00:" + std::to_string(rng.below(60)) +
                             "Z svc=mhhead level=" + kLevels[rng.below(3)] +
                             " msg=\"request sealed\" conn=" + std::to_string(rng.below(1024)) +
                             " bytes=" + std::to_string(rng.below(65536)) +
                             " latency_us=" + std::to_string(rng.below(10000)) + " status=ok\n";
    out.insert(out.end(), line.begin(), line.end());
  }
  out.resize(n);
  return out;
}

Bytes bench_master() { return random_bytes(kKeySeed, 16); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
