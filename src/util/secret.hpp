// Secret-hygiene primitives: guaranteed wiping of key material.
//
// A plain `memset(key, 0, n)` before free is dead-store-eliminated by every
// optimizing compiler (the memory is provably never read again), so the
// "wipe on destruction" discipline needs a store the optimizer must keep.
// `secure_wipe` runs an ordinary (vectorized) memset and then passes the
// buffer's address through an opaque asm barrier that claims to read
// memory, which pins the stores the same way BoringSSL's OPENSSL_cleanse
// and glibc's explicit_bzero do.
//
// `SecretBytes<N>` is the tagged container for fixed-size key material: an
// array wrapper that wipes its storage on destruction (and when moved-from)
// while staying assignment/compare-compatible with std::array, so a field
// can switch from `std::array<uint8_t, N>` to `SecretBytes<N>` without
// touching its readers. Heap-backed secrets (core::Key's pair vector, LFSR
// keystream states) instead call secure_wipe from their owners' destructors.
//
// The repo-invariant linter (tools/lint.py) builds on these: fields carrying
// key material are tagged `[[mhhea::secret]]` in a trailing comment, and the
// lint rejects raw memset on — or asserts naming — any tagged field.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace mhhea::util {

/// Zero `n` bytes at `p` with stores the optimizer cannot elide. Safe on
/// n == 0 (p may then be null).
inline void secure_wipe(void* p, std::size_t n) noexcept {
  if (n == 0) return;
  std::memset(p, 0, n);
  // Opaque use of the buffer (GCC/Clang syntax, as the library requires):
  // the zeros count as read, so even LTO cannot fold the memset away.
  __asm__ __volatile__("" : : "r"(p) : "memory");
}

/// Typed convenience: wipe any trivially-copyable object in place.
template <typename T>
inline void secure_wipe_object(T& obj) noexcept {
  static_assert(std::is_trivially_copyable_v<T>,
                "secure_wipe_object: wiping a non-trivial object corrupts it");
  secure_wipe(&obj, sizeof(T));
}

/// Fixed-size secret byte container: std::array semantics plus a wiping
/// destructor. Copies are allowed (each copy wipes itself); moves wipe the
/// source so a secret never lingers in a moved-from temporary.
template <std::size_t N>
class SecretBytes {
 public:
  using array_type = std::array<std::uint8_t, N>;

  constexpr SecretBytes() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): assignment compatibility
  // with std::array is the point — siphash/subkey results land here.
  constexpr SecretBytes(const array_type& bytes) noexcept : bytes_(bytes) {}

  SecretBytes(const SecretBytes&) noexcept = default;
  SecretBytes& operator=(const SecretBytes&) noexcept = default;
  SecretBytes(SecretBytes&& other) noexcept : bytes_(other.bytes_) { other.wipe(); }
  SecretBytes& operator=(SecretBytes&& other) noexcept {
    if (this != &other) {
      bytes_ = other.bytes_;
      other.wipe();
    }
    return *this;
  }
  ~SecretBytes() { wipe(); }

  /// Read access as the underlying array (what siphash64/128 take).
  // NOLINTNEXTLINE(google-explicit-constructor)
  constexpr operator const array_type&() const noexcept { return bytes_; }
  [[nodiscard]] constexpr const array_type& array() const noexcept { return bytes_; }

  [[nodiscard]] constexpr std::uint8_t* data() noexcept { return bytes_.data(); }
  [[nodiscard]] constexpr const std::uint8_t* data() const noexcept { return bytes_.data(); }
  [[nodiscard]] static constexpr std::size_t size() noexcept { return N; }
  [[nodiscard]] constexpr std::uint8_t& operator[](std::size_t i) noexcept { return bytes_[i]; }
  [[nodiscard]] constexpr std::uint8_t operator[](std::size_t i) const noexcept {
    return bytes_[i];
  }

  /// Zero the contents now (also what the destructor does).
  void wipe() noexcept { secure_wipe(bytes_.data(), N); }

  friend bool operator==(const SecretBytes&, const SecretBytes&) = default;
  friend bool operator==(const SecretBytes& a, const array_type& b) { return a.bytes_ == b; }

 private:
  array_type bytes_{};
};

}  // namespace mhhea::util
