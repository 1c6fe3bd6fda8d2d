#include "src/crypto/hhea_cipher.hpp"

#include <utility>

#include "src/core/cover.hpp"

namespace mhhea::crypto {

HheaCipher::HheaCipher(core::Key key, std::uint64_t seed, core::BlockParams params)
    : key_(std::move(key)),
      params_(params),
      core_(key_, core::make_lfsr_cover(params_.vector_bits, seed), params_) {
  double mean_bits = 0.0;
  for (const auto& p : key_.pairs()) mean_bits += static_cast<double>(p.span() + 1);
  mean_bits /= static_cast<double>(key_.size());
  expansion_ = static_cast<double>(params_.vector_bits) / mean_bits;
}

std::size_t HheaCipher::encrypt_into(std::span<const std::uint8_t> msg,
                                     std::span<std::uint8_t> out) {
  return core_.encrypt_into(msg, out);
}

std::size_t HheaCipher::decrypt_into(std::span<const std::uint8_t> cipher,
                                     std::size_t msg_bytes, std::span<std::uint8_t> out) {
  return core_.decrypt_into(cipher, static_cast<std::uint64_t>(msg_bytes) * 8, out);
}

}  // namespace mhhea::crypto
