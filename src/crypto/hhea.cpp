#include "src/crypto/hhea.hpp"

#include "src/core/cover.hpp"
#include "src/core/mhhea.hpp"

namespace mhhea::crypto {

using core::BlockParams;

std::vector<std::uint8_t> hhea_encrypt(std::span<const std::uint8_t> msg,
                                       const core::Key& key, std::uint64_t seed,
                                       BlockParams params) {
  core::BlockEncryptor<core::FixedWindow> enc(
      key, core::make_lfsr_cover(params.vector_bits, seed), params);
  std::vector<std::uint8_t> out(enc.max_cipher_bytes(static_cast<std::uint64_t>(msg.size()) * 8));
  out.resize(enc.encrypt_into(msg, out));
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
