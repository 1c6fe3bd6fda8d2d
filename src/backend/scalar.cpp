// The scalar engine: the leap-table chains behind the Backend interface,
// eight interleaved lanes per row like every engine. The lanes are
// independent chains, so an out-of-order core overlaps their lookups — the
// engine of record on hosts without SIMD.

#include <algorithm>

#include "src/backend/backend.hpp"
#include "src/backend/kernels.hpp"
#include "src/util/bits.hpp"

namespace mhhea::backend {
namespace {

template <int Bytes>
void lfsr_rows(const LinearMapTables& stride, std::uint32_t* states, std::uint64_t* out,
               std::size_t rows) noexcept {
  std::uint32_t s[kMaxLanes]{};
  std::copy_n(states, kMaxLanes, s);
  for (std::size_t r = 0; r < rows; ++r, out += kMaxLanes) {
    for (std::size_t l = 0; l < kMaxLanes; ++l) {
      s[l] = stride.apply<Bytes>(s[l]);
      out[l] = s[l];
    }
  }
  std::copy_n(s, kMaxLanes, states);
}

class ScalarBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "scalar"; }

  void lfsr_blocks(const LinearMapTables& stride, int degree, std::uint32_t* states,
                   std::uint64_t* out, std::size_t rows) const override {
    switch (state_bytes(degree)) {
      case 1:
      case 2:
        lfsr_rows<2>(stride, states, out, rows);
        break;
      case 3:
        lfsr_rows<3>(stride, states, out, rows);
        break;
      default:
        lfsr_rows<4>(stride, states, out, rows);
        break;
    }
  }

  void geffe_units(const GeffeKernel& k, std::uint32_t* a, std::uint32_t* b,
                   std::uint32_t* c, const std::uint8_t* in, std::uint8_t* out,
                   std::size_t rows) const override {
    // Local copies: the byte stores through `out` cannot alias them.
    std::uint32_t sa[kMaxLanes]{}, sb[kMaxLanes]{}, sc[kMaxLanes]{};
    std::copy_n(a, kMaxLanes, sa);
    std::copy_n(b, kMaxLanes, sb);
    std::copy_n(c, kMaxLanes, sc);
    for (std::size_t u = 0; u < rows * kMaxLanes; ++u) {
      const std::size_t l = u % kMaxLanes;
      std::uint64_t z = geffe_unit(k, sa[l], sb[l], sc[l]);
      sa[l] = k.row[0]->apply<3>(sa[l]);
      sb[l] = k.row[1]->apply<3>(sb[l]);
      sc[l] = k.row[2]->apply<3>(sc[l]);
      if (in != nullptr) z ^= util::load_le(in + u * 8, 8);
      util::store_le(out + u * 8, z, 8);
    }
    std::copy_n(sa, kMaxLanes, a);
    std::copy_n(sb, kMaxLanes, b);
    std::copy_n(sc, kMaxLanes, c);
  }
};

}  // namespace

namespace detail {
const Backend& scalar_backend() noexcept {
  static const ScalarBackend instance;
  return instance;
}
}  // namespace detail

}  // namespace mhhea::backend
