// Per-layer probes of a traced run. Each layer is timed through its public
// calls on the workload's own payloads, and every timing is also recorded as
// a span. Sub-stages of one library call (the compress probe/encode, core
// encrypt, cover fill and MAC inside Session::seal_into) cannot be observed
// from outside, so they are replayed right after the call on the same bytes
// and recorded as its children; the parent's self time is then its glue.
#include <atomic>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "src/backend/backend.hpp"
#include "src/compress/compress.hpp"
#include "src/core/cover.hpp"
#include "src/core/frame.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/crypto/mac.hpp"
#include "src/crypto/registry.hpp"
#include "src/exec/executor.hpp"
#include "src/server/server.hpp"
#include "src/util/rng.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

namespace srv = mhhea::server;
using mhhea::core::BlockParams;

double us(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) * 1e-3; }

struct Hop {
  std::int64_t submit_ns = 0;
  std::int64_t start_ns = 0;
};

/// Submit a no-op to the executor and wait until it starts running.
Hop exec_hop(mhhea::exec::Executor& ex) {
  std::atomic<std::int64_t> started{0};
  const std::int64_t t0 = now_ns();
  ex.submit([&started] { started.store(now_ns(), std::memory_order_release); });
  std::int64_t s = 0;
  while ((s = started.load(std::memory_order_acquire)) == 0) std::this_thread::yield();
  return {t0, s};
}

/// Round-trip timing of `n` calls of `fn` on fresh inputs, median in us.
template <typename Fn>
double median_us(int n, Fn&& fn) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    v.push_back(us(t0, now_ns()));
  }
  return median(std::move(v));
}

struct Samples {
  std::vector<double> ping, hop, seal, open, mac, probe, encode, core_enc, core_dec, cover;
  std::uint64_t accepted = 0;
  std::uint64_t compressible = 0;  // keeps the timed probe call observable
  std::uint64_t seals = 0;
  double z_bytes = 0.0;    // envelope bytes of accepted messages
  double z_raw = 0.0;      // their raw bytes
  double blocks = 0.0;     // core ciphertext blocks, summed
  std::uint64_t identical = 0;  // core replays byte-identical to the container
  std::uint64_t mismatched = 0;
};

}  // namespace

void run_stage_probes(const Options& opt, const StageInput& in, Result& res, Tracer& tr) {
  const Bytes master = bench_master();
  const auto method = mhhea::compress::method_from_name(in.compression);
  const bool compressing = method != mhhea::compress::Method::raw;
  const BlockParams hw = BlockParams::hardware();

  srv::ServerConfig cfg;
  cfg.uds_path = in.sock_path;
  cfg.master = master;
  cfg.compression = method;
  srv::Server server(cfg);
  server.start();
  const srv::ServerStats before = server.stats();

  // Handshakes on fresh connections: connect, hello, both Sessions derived.
  std::vector<double> handshake_us;
  for (int i = 0; i < 16; ++i) {
    const std::int64_t t0 = now_ns();
    Hello h = handshake(in.sock_path, master);
    handshake_us.push_back(us(t0, now_ns()));
    ::close(h.fd);
  }
  Hello conn = handshake(in.sock_path, master);
  const Bytes ping = srv::encode_request(srv::Op::kPing, {});
  Bytes carry;
  Bytes body;
  auto& ex = mhhea::exec::Executor::shared();

  // A Session pair under a connection's context, and the public pieces a
  // seal is made of under that Session's own keys: its hiding key, its MAC
  // subkey and, per container, the cover seed of the container's nonce.
  const auto ctx = srv::c2s_context(Bytes(16, 0x5A));
  auto sealer = mhhea::crypto::Session::from_master(master, ctx, 8, hw);
  auto opener = mhhea::crypto::Session::from_master(master, ctx, 8, hw);
  sealer.set_compression(method);
  const auto sched = mhhea::crypto::V2KeySchedule::derive(master, ctx);
  const int cover_degree = hw.vector_bits >= 64 ? 32 : hw.vector_bits;  // as cover.hpp caps it
  const mhhea::core::Key& key = sealer.cipher().key();
  mhhea::core::Encryptor enc(key, mhhea::core::make_lfsr_cover(hw.vector_bits, 1), hw);
  mhhea::core::Decryptor dec(key, 0, hw);
  mhhea::core::LfsrCover cover(hw.vector_bits, 1);
  auto lzss = mhhea::compress::make_compressor(mhhea::compress::Method::lzss);
  auto decoder = mhhea::compress::make_compressor(method == mhhea::compress::Method::raw
                                                      ? mhhea::compress::Method::lzss
                                                      : method);

  std::size_t max_msg = 0;
  for (const auto& p : in.payloads) max_msg = std::max(max_msg, p.size());
  Bytes ct(sealer.max_sealed_size(max_msg));
  Bytes pt(max_msg);
  Bytes unz(max_msg);
  Bytes z(lzss->max_compressed_size(max_msg));
  // The embedded bytes are never longer than the message (an envelope is
  // kept only when strictly smaller); the worst key hides one bit per block.
  Bytes core_pt(max_msg);
  Bytes core_ct(max_msg * 8 * static_cast<std::size_t>(hw.block_bytes()));
  std::vector<std::uint64_t> cover_buf(core_ct.size() / static_cast<std::size_t>(hw.block_bytes()) + 1);

  // One replay per message: enough messages for stable medians, bounded by
  // bytes so the large payloads stay quick.
  const int n_msgs = static_cast<int>(std::clamp<std::size_t>((4u << 20) / max_msg, 64, 2000));
  Samples s;
  for (int i = 0; i < n_msgs; ++i) {
    const Bytes& msg = in.payloads[static_cast<std::size_t>(i) % in.payloads.size()];
    const std::int64_t r0 = now_ns();
    const std::uint32_t root = tr.add("client", "stage.message", 0, r0, r0);

    std::int64_t t0 = now_ns();
    write_all(conn.fd, ping);
    std::uint8_t tag = 0;
    read_frame(conn.fd, carry, tag, body);
    std::int64_t t1 = now_ns();
    if (tag != static_cast<std::uint8_t>(srv::Status::kOk)) ++s.mismatched;
    s.ping.push_back(us(t0, t1));
    tr.add("server", "ping", root, t0, t1);

    const Hop hop = exec_hop(ex);
    s.hop.push_back(us(hop.submit_ns, hop.start_ns));
    tr.add("exec", "submit_to_start", root, hop.submit_ns, hop.start_ns);

    // Session::seal_into and its replayed sub-stages.
    t0 = now_ns();
    const std::size_t n = sealer.seal_into(msg, ct);
    t1 = now_ns();
    s.seal.push_back(us(t0, t1));
    const std::uint32_t seal_id = tr.add("crypto", "seal_into", root, t0, t1);
    std::span<const std::uint8_t> payload;  // the container's ciphertext blocks
    const auto header = mhhea::core::frame_decode(std::span(ct).first(n), &payload);
    const bool accepted = header.compression != 0;
    const std::size_t blocks = payload.size() / static_cast<std::size_t>(hw.block_bytes());
    s.blocks += static_cast<double>(blocks);
    ++s.seals;

    t0 = now_ns();
    s.compressible += mhhea::compress::probably_compressible(msg) ? 1 : 0;
    t1 = now_ns();
    s.probe.push_back(us(t0, t1));
    if (compressing) tr.add("compress", "probably_compressible", seal_id, t0, t1, true);

    t0 = now_ns();
    (void)lzss->compress_into(msg, z);
    t1 = now_ns();
    s.encode.push_back(us(t0, t1));
    if (accepted) {
      tr.add("compress", "compress_into", seal_id, t0, t1, true);
      ++s.accepted;
      s.z_bytes += static_cast<double>((header.message_bits + 7) / 8);  // the envelope
      s.z_raw += static_cast<double>(msg.size());
    }

    const std::size_t authed = n - mhhea::core::FrameHeader::kMacBytesV2;
    t0 = now_ns();
    const auto mac = mhhea::crypto::siphash128(sched.mac_key, std::span(ct).first(authed));
    t1 = now_ns();
    s.mac.push_back(us(t0, t1));
    tr.add("crypto", "siphash128", seal_id, t0, t1, true);
    (void)mac;

    // Session::open_into and its replayed sub-stages.
    t0 = now_ns();
    const std::size_t m = opener.open_into(std::span(ct).first(n), pt);
    t1 = now_ns();
    s.open.push_back(us(t0, t1));
    if (m != msg.size() || !std::equal(msg.begin(), msg.end(), pt.begin())) ++s.mismatched;
    const std::uint32_t open_id = tr.add("crypto", "open_into", root, t0, t1);
    t0 = now_ns();
    (void)mhhea::crypto::siphash128(sched.mac_key, std::span(ct).first(authed));
    t1 = now_ns();
    tr.add("crypto", "siphash128", open_id, t0, t1, true);
    // The core decrypt of the container's own blocks yields exactly the
    // bytes the seal embedded: the message, or its compressed envelope.
    t0 = now_ns();
    const std::size_t d = dec.decrypt_into(payload, header.message_bits, core_pt);
    t1 = now_ns();
    s.core_dec.push_back(us(t0, t1));
    tr.add("core", "decrypt_into", open_id, t0, t1, true);
    const std::span<const std::uint8_t> embedded = std::span(core_pt).first(d);
    std::span<const std::uint8_t> recovered = embedded;
    if (accepted) {
      const std::size_t env_head = 1 + mhhea::compress::varint_size(msg.size());
      t0 = now_ns();
      const std::size_t u = decoder->decompress_into(embedded.subspan(env_head), msg.size(), unz);
      t1 = now_ns();
      tr.add("compress", "decompress_into", open_id, t0, t1, true);
      recovered = std::span(unz).first(u);
    }
    if (recovered.size() != msg.size() || !std::equal(msg.begin(), msg.end(), recovered.begin())) {
      ++s.mismatched;
    }

    // The core encrypt the seal ran: those bytes, the Session's hiding key,
    // the cover re-seeded for the container's nonce.
    const std::uint64_t cover_seed = sched.cover_seed(header.nonce, cover_degree);
    enc.reseed(cover_seed);
    t0 = now_ns();
    const std::size_t k = enc.encrypt_into(embedded, core_ct);
    t1 = now_ns();
    s.core_enc.push_back(us(t0, t1));
    const std::uint32_t enc_id = tr.add("core", "encrypt_into", seal_id, t0, t1, true);
    if (k == payload.size() && std::equal(payload.begin(), payload.end(), core_ct.begin())) {
      ++s.identical;
    }

    cover.reseed(cover_seed);
    t0 = now_ns();
    (void)cover.next_blocks(hw.vector_bits, std::span(cover_buf).first(blocks));
    t1 = now_ns();
    s.cover.push_back(us(t0, t1) * 1e3 / static_cast<double>(std::max<std::size_t>(blocks, 1)));
    tr.add("backend", "next_blocks", enc_id, t0, t1, true);
    tr.set_end(root, now_ns());
  }
  ::close(conn.fd);

  // Library-level pieces outside the per-message replay.
  const double from_master = median_us(64, [&](int i) {
    const Bytes c = srv::s2c_context(Bytes(16, static_cast<std::uint8_t>(i)));
    (void)mhhea::crypto::Session::from_master(master, c, 8, hw);
  });
  std::vector<double> hop_all = s.hop;
  for (int i = 0; i < 1000; ++i) {
    const Hop hop = exec_hop(ex);
    hop_all.push_back(us(hop.submit_ns, hop.start_ns));
  }

  const auto& reg = mhhea::crypto::CipherRegistry::builtin();
  auto hhea = reg.make("HHEA", kKeySeed);
  auto yaea = reg.make("YAEA-S", kKeySeed);
  const Bytes small = random_bytes(opt.seed + 101, 1024);
  const Bytes large = random_bytes(opt.seed + 102, 16384);
  Bytes xct(std::max(hhea->max_ciphertext_size(large.size()), yaea->max_ciphertext_size(large.size())));
  Bytes xpt(large.size());
  std::uint64_t round_trips = 0;
  auto timed_pair = [&](mhhea::crypto::Cipher& c, const Bytes& msg, int reps, double* enc_us,
                        double* dec_us) {
    std::vector<double> e;
    std::vector<double> dd;
    for (int i = 0; i < reps; ++i) {
      const std::int64_t a = now_ns();
      const std::size_t xn = c.encrypt_into(msg, xct);
      const std::int64_t b = now_ns();
      (void)c.decrypt_into(std::span(xct).first(xn), msg.size(), xpt);
      const std::int64_t z = now_ns();
      ++round_trips;
      if (!std::equal(msg.begin(), msg.end(), xpt.begin())) ++s.mismatched;
      e.push_back(us(a, b));
      dd.push_back(us(b, z));
    }
    *enc_us = median(e);
    *dec_us = median(dd);
  };
  double h1e = 0, h1d = 0, h16e = 0, h16d = 0, y1e = 0, y1d = 0, y16e = 0, y16d = 0;
  timed_pair(*hhea, small, 400, &h1e, &h1d);
  timed_pair(*hhea, large, 60, &h16e, &h16d);
  timed_pair(*yaea, small, 400, &y1e, &y1d);
  timed_pair(*yaea, large, 200, &y16e, &y16d);

  const srv::ServerStats after = server.stats();
  server.stop();

  res.attempted += static_cast<std::uint64_t>(n_msgs) + round_trips;
  res.failed += s.mismatched;
  if (s.mismatched > 0) res.correct = false;

  const double seal = median(s.seal);
  const double open = median(s.open);
  const double probe = median(s.probe);
  const double encode = median(s.encode);
  const double mac = median(s.mac);
  const double core_enc = median(s.core_enc);
  const double accept = static_cast<double>(s.accepted) / static_cast<double>(s.seals);
  const double blocks_per_msg = s.blocks / n_msgs;
  const double ping_us = median(s.ping);
  const double hop_p50 = percentile(hop_all, 0.50);
  const double request_crypto = in.mixed ? 0.5 * (seal + open) : seal;
  const double floor_us = in.daemon ? ping_us + hop_p50 + request_crypto : seal + open;

  auto& l = res.layer;
  if (!in.daemon) {
    // No server in the end-to-end run: the counters are the probe server's.
    res.put(l, "server.requests_ok", static_cast<double>(after.requests_ok - before.requests_ok), "count");
    res.put(l, "server.requests_error",
            static_cast<double>(after.requests_error - before.requests_error), "count");
    res.put(l, "server.shed", static_cast<double>(after.shed - before.shed), "count");
    res.put(l, "server.timeouts", static_cast<double>(after.timeouts - before.timeouts), "count");
    res.put(l, "server.handshake_us", median(handshake_us), "us");
  }
  res.put(l, "server.ping_rtt_p50_us", ping_us, "us");
  res.put(l, "exec.hop_p50_us", hop_p50, "us");
  res.put(l, "exec.hop_p99_us", percentile(hop_all, 0.99), "us");
  res.put(l, "exec.workers", ex.size(), "count");
  res.put(l, "crypto.seal_us", seal, "us");
  res.put(l, "crypto.open_us", open, "us");
  res.put(l, "crypto.mac_us", mac, "us");
  res.put(l, "crypto.from_master_us", from_master, "us");
  res.put(l, "crypto.seal_glue_us",
          seal - core_enc - mac - (compressing ? probe + accept * encode : 0.0), "us");
  res.put(l, "compress.probe_us", probe, "us");
  res.put(l, "compress.encode_us", encode, "us");
  res.put(l, "compress.accept_ratio", accept, "ratio");
  res.put(l, "compress.ratio", s.accepted > 0 ? s.z_bytes / s.z_raw : 1.0, "ratio");
  res.put(l, "core.encrypt_us", core_enc, "us");
  res.put(l, "core.decrypt_us", median(s.core_dec), "us");
  res.put(l, "core.blocks_per_msg", blocks_per_msg, "count");
  res.put(l, "core.ns_per_block", core_enc * 1e3 / blocks_per_msg, "ns");
  res.put(l, "backend.cover_ns_per_block", median(s.cover), "ns");
  res.put(l, "hhea.encrypt_1k_us", h1e, "us");
  res.put(l, "hhea.decrypt_1k_us", h1d, "us");
  res.put(l, "hhea.encrypt_16k_us", h16e, "us");
  res.put(l, "hhea.decrypt_16k_us", h16d, "us");
  res.put(l, "yaea.small_mb_s", static_cast<double>(small.size()) / (y1e + y1d), "MB/s");
  res.put(l, "yaea.large_mb_s", static_cast<double>(large.size()) / (y16e + y16d), "MB/s");
  res.put(l, "stage.residual_us", in.client_p50_us - floor_us, "us");

  // Self time per layer per replayed message: the stage breakdown whose sum
  // the residual is measured against.
  const auto self = tr.self_ns_by_layer("stage.message");
  std::cout << "{\"stage_self_us_per_message\": {";
  const char* sep = "";
  for (const auto& [layer, ns] : self) {
    std::cout << sep << "\"" << layer << "\": " << ns * 1e-3 / n_msgs;
    sep = ", ";
  }
  std::cout << "}, \"client_p50_us\": " << in.client_p50_us << ", \"stage_floor_us\": " << floor_us
            << ", \"messages\": " << n_msgs
            << ", \"core_replays_identical\": " << static_cast<double>(s.identical) / n_msgs << "}\n";
}

}  // namespace perfbench
