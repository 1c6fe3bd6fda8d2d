#include "src/crypto/hhea.hpp"

#include <algorithm>

#include "src/core/cover.hpp"
#include "src/core/mhhea.hpp"

namespace mhhea::crypto {

using core::BlockParams;
using core::FramePolicy;

std::uint64_t hhea_cipher_bytes(const core::Key& key, std::uint64_t msg_bits,
                                BlockParams params) {
  params.validate();
  key.require_fits(params, "hhea_cipher_bytes");
  return hhea_cipher_bytes(detail::WidthCycle(key), msg_bits, params);
}

std::uint64_t hhea_cipher_bytes(const detail::WidthCycle& wc, std::uint64_t msg_bits,
                                const BlockParams& params) {
  if (msg_bits == 0) return 0;
  const auto bb = static_cast<std::uint64_t>(params.block_bytes());
  if (params.policy != FramePolicy::framed) return wc.blocks_for_bits(msg_bits) * bb;
  // Framed: one cover-free frame walk over the width cycle (frame budgets
  // feed back into per-block widths, so there is no closed form).
  std::uint64_t blocks = 0;
  std::uint64_t remaining = msg_bits;
  std::size_t pair_idx = 0;
  int frame_remaining = 0;
  while (remaining > 0) {
    if (frame_remaining == 0) frame_remaining = params.frame_budget(remaining);
    const auto n = static_cast<int>(wc.prefix[pair_idx + 1] - wc.prefix[pair_idx]);
    if (++pair_idx == wc.L) pair_idx = 0;
    const int w = std::min(n, frame_remaining);
    ++blocks;
    remaining -= static_cast<std::uint64_t>(w);
    frame_remaining -= w;
  }
  return blocks * bb;
}

std::vector<std::uint8_t> hhea_encrypt(std::span<const std::uint8_t> msg,
                                       const core::Key& key, std::uint64_t seed,
                                       BlockParams params) {
  core::BlockEncryptor<core::FixedWindow> enc(
      key, core::make_lfsr_cover(params.vector_bits, seed), params);
  std::vector<std::uint8_t> out(
      hhea_cipher_bytes(key, static_cast<std::uint64_t>(msg.size()) * 8, params));
  (void)enc.encrypt_into(msg, out);
  return out;
}

std::vector<std::uint8_t> hhea_decrypt(std::span<const std::uint8_t> cipher,
                                       const core::Key& key, std::size_t msg_bytes,
                                       BlockParams params) {
  core::BlockDecryptor<core::FixedWindow> dec(key, 0, params);
  std::vector<std::uint8_t> msg(msg_bytes);
  (void)dec.decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8, msg);
  return msg;
}

}  // namespace mhhea::crypto
