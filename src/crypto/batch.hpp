// Batched multi-message cipher API — the engine's first scaling primitive.
//
// A server encrypting independent packets for many users is embarrassingly
// parallel: each message is a separate cipher invocation. encrypt_batch /
// decrypt_batch fan a span of messages over the persistent process-wide
// work-stealing executor (src/exec/executor.hpp), giving one cipher instance
// per worker so no cipher state is shared. Results are bit-identical to a
// sequential loop
// (verified by tests/cipher_registry_test.cpp) because Cipher adapters are
// deterministic per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/crypto/cipher.hpp"

namespace mhhea::crypto {

/// Builds one cipher instance per worker thread. Every instance must be
/// configured identically (same key/nonce) — e.g. bind a registry factory to
/// a fixed seed.
using CipherMaker = std::function<std::unique_ptr<Cipher>()>;

/// Encrypt each message independently. `n_threads` == 1 runs inline on the
/// calling thread; 0 picks std::thread::hardware_concurrency(); negative
/// counts throw std::invalid_argument, as does a null maker. Exceptions
/// thrown by the cipher are rethrown on the calling thread.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> encrypt_batch(
    const CipherMaker& make_cipher, std::span<const std::vector<std::uint8_t>> msgs,
    int n_threads = 0);

/// Decrypt each ciphertext independently; `msg_bytes[i]` is the plaintext
/// length of `ciphers[i]`. Throws std::invalid_argument if the spans differ
/// in length or the maker is null.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> decrypt_batch(
    const CipherMaker& make_cipher, std::span<const std::vector<std::uint8_t>> ciphers,
    std::span<const std::size_t> msg_bytes, int n_threads = 0);

// ----------------------------------------------------------------------
// Arena forms: the whole batch lands in one caller-provided buffer at
// offsets precomputed from the cipher's max_ciphertext_size bound, each
// worker writing its own disjoint slot — no per-message result vectors, so
// a server that reuses the arena (and the offset/size scratch) across
// batches runs the batch path without steady-state heap allocations beyond
// the worker dispatch itself.

/// Compute the encrypt arena layout: offsets[i] receives the byte offset of
/// message i's slot, slots sized by `sizer.max_ciphertext_size` so the
/// actual ciphertext always fits. Returns the total arena bytes required.
/// Throws std::invalid_argument when offsets.size() != msgs.size().
[[nodiscard]] std::size_t encrypt_arena_layout(
    const Cipher& sizer, std::span<const std::vector<std::uint8_t>> msgs,
    std::span<std::size_t> offsets);

/// Encrypt message i into arena[offsets[i] ...); sizes[i] receives its
/// actual ciphertext byte count. `offsets` must be non-decreasing with slot
/// ends inside the arena (encrypt_arena_layout produces exactly that);
/// std::length_error when a slot cannot hold its ciphertext. Results are
/// bit-identical to encrypt_batch.
void encrypt_batch_into(const CipherMaker& make_cipher,
                        std::span<const std::vector<std::uint8_t>> msgs,
                        std::span<const std::size_t> offsets,
                        std::span<std::uint8_t> arena, std::span<std::size_t> sizes,
                        int n_threads = 0);

/// Decrypt arena layout: plaintext sizes are exact, so slots are exclusive
/// prefix sums of msg_bytes. Returns the total arena bytes required.
[[nodiscard]] std::size_t decrypt_arena_layout(std::span<const std::size_t> msg_bytes,
                                               std::span<std::size_t> offsets);

/// Decrypt ciphertext i into arena[offsets[i], offsets[i] + msg_bytes[i]).
void decrypt_batch_into(const CipherMaker& make_cipher,
                        std::span<const std::vector<std::uint8_t>> ciphers,
                        std::span<const std::size_t> msg_bytes,
                        std::span<const std::size_t> offsets,
                        std::span<std::uint8_t> arena, int n_threads = 0);

}  // namespace mhhea::crypto
