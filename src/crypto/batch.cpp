#include "src/crypto/batch.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>

#include "src/exec/executor.hpp"

namespace mhhea::crypto {

namespace {

int resolve_threads(int n_threads, std::size_t n_items) {
  // 0 resolves to hardware concurrency; what the API enforces is >= 1
  // *after* that resolution, and the error says so (it used to claim
  // ">= 0", which is not the condition a negative count violates).
  n_threads = exec::resolve_parallelism(n_threads, "batch");
  if (static_cast<std::size_t>(n_threads) > n_items && n_items > 0) {
    n_threads = static_cast<int>(n_items);
  }
  return n_threads;
}

/// Run `work(i)` for every i in [0, n_items), either inline or as `n_threads`
/// worker tasks on the process-wide executor, each pulling indices from a
/// shared atomic counter. Each worker gets its own cipher via `make_cipher`;
/// the first exception (from construction or work) is rethrown on the calling
/// thread. The executor is persistent, so a batch call no longer pays thread
/// spawn/join — and because TaskGroup waiters help, the call also makes
/// progress on the caller's own thread instead of merely blocking.
template <typename Work>
void run_batch(const CipherMaker& make_cipher, std::size_t n_items, int n_threads,
               Work&& work) {
  if (make_cipher == nullptr) throw std::invalid_argument("batch: null cipher maker");
  n_threads = resolve_threads(n_threads, n_items);
  if (n_items == 0) return;

  if (n_threads == 1) {
    auto cipher = make_cipher();
    for (std::size_t i = 0; i < n_items; ++i) work(*cipher, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto worker = [&] {
    try {
      auto cipher = make_cipher();
      for (std::size_t i = next.fetch_add(1); i < n_items; i = next.fetch_add(1)) {
        work(*cipher, i);
      }
    } catch (...) {
      std::lock_guard lock(error_mu);
      if (first_error == nullptr) first_error = std::current_exception();
      // Drain the counter so sibling workers stop picking up new items.
      next.store(n_items);
    }
  };

  exec::TaskGroup group(exec::Executor::shared());
  for (int t = 0; t < n_threads; ++t) group.run(worker);
  group.wait();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace

std::vector<std::vector<std::uint8_t>> encrypt_batch(
    const CipherMaker& make_cipher, std::span<const std::vector<std::uint8_t>> msgs,
    int n_threads) {
  std::vector<std::vector<std::uint8_t>> out(msgs.size());
  run_batch(make_cipher, msgs.size(), n_threads,
            [&](Cipher& cipher, std::size_t i) { out[i] = cipher.encrypt(msgs[i]); });
  return out;
}

std::vector<std::vector<std::uint8_t>> decrypt_batch(
    const CipherMaker& make_cipher, std::span<const std::vector<std::uint8_t>> ciphers,
    std::span<const std::size_t> msg_bytes, int n_threads) {
  if (ciphers.size() != msg_bytes.size()) {
    throw std::invalid_argument("decrypt_batch: ciphers/msg_bytes length mismatch");
  }
  std::vector<std::vector<std::uint8_t>> out(ciphers.size());
  run_batch(make_cipher, ciphers.size(), n_threads, [&](Cipher& cipher, std::size_t i) {
    out[i] = cipher.decrypt(ciphers[i], msg_bytes[i]);
  });
  return out;
}

namespace {

/// Validate an arena layout: slot i is [offsets[i], next offset or arena
/// end) — offsets must be non-decreasing and inside the arena so workers'
/// slots are provably disjoint. Returns nothing; throws on malformation.
void check_arena_offsets(std::span<const std::size_t> offsets, std::size_t arena_size,
                         const char* who) {
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const bool ordered = i + 1 == offsets.size() || offsets[i] <= offsets[i + 1];
    if (!ordered || offsets[i] > arena_size) {
      throw std::invalid_argument(std::string(who) +
                                  ": offsets must be non-decreasing and inside the arena");
    }
  }
}

}  // namespace

std::size_t encrypt_arena_layout(const Cipher& sizer,
                                 std::span<const std::vector<std::uint8_t>> msgs,
                                 std::span<std::size_t> offsets) {
  if (offsets.size() != msgs.size()) {
    throw std::invalid_argument("encrypt_arena_layout: offsets/msgs length mismatch");
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    offsets[i] = total;
    total += sizer.max_ciphertext_size(msgs[i].size());
  }
  return total;
}

void encrypt_batch_into(const CipherMaker& make_cipher,
                        std::span<const std::vector<std::uint8_t>> msgs,
                        std::span<const std::size_t> offsets, std::span<std::uint8_t> arena,
                        std::span<std::size_t> sizes, int n_threads) {
  if (offsets.size() != msgs.size() || sizes.size() != msgs.size()) {
    throw std::invalid_argument("encrypt_batch_into: offsets/sizes/msgs length mismatch");
  }
  check_arena_offsets(offsets, arena.size(), "encrypt_batch_into");
  run_batch(make_cipher, msgs.size(), n_threads, [&](Cipher& cipher, std::size_t i) {
    const std::size_t end = i + 1 < offsets.size() ? offsets[i + 1] : arena.size();
    sizes[i] = cipher.encrypt_into(msgs[i], arena.subspan(offsets[i], end - offsets[i]));
  });
}

std::size_t decrypt_arena_layout(std::span<const std::size_t> msg_bytes,
                                 std::span<std::size_t> offsets) {
  if (offsets.size() != msg_bytes.size()) {
    throw std::invalid_argument("decrypt_arena_layout: offsets/msg_bytes length mismatch");
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < msg_bytes.size(); ++i) {
    offsets[i] = total;
    total += msg_bytes[i];
  }
  return total;
}

void decrypt_batch_into(const CipherMaker& make_cipher,
                        std::span<const std::vector<std::uint8_t>> ciphers,
                        std::span<const std::size_t> msg_bytes,
                        std::span<const std::size_t> offsets, std::span<std::uint8_t> arena,
                        int n_threads) {
  if (ciphers.size() != msg_bytes.size() || offsets.size() != ciphers.size()) {
    throw std::invalid_argument(
        "decrypt_batch_into: ciphers/msg_bytes/offsets length mismatch");
  }
  check_arena_offsets(offsets, arena.size(), "decrypt_batch_into");
  run_batch(make_cipher, ciphers.size(), n_threads, [&](Cipher& cipher, std::size_t i) {
    const std::size_t end = i + 1 < offsets.size() ? offsets[i + 1] : arena.size();
    (void)cipher.decrypt_into(ciphers[i], msg_bytes[i],
                              arena.subspan(offsets[i], end - offsets[i]));
  });
}

}  // namespace mhhea::crypto
