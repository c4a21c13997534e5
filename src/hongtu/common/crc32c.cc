#include "hongtu/common/crc32c.h"

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace hongtu {

namespace {

/// Slice-by-8 tables for the Castagnoli polynomial (reflected 0x82F63B78),
/// generated once at first use. Table generation is the textbook bitwise
/// loop; the hot path processes 8 bytes per iteration.
struct Crc32cTables {
  uint32_t t[8][256];

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
      }
    }
  }
};

/// Slice-by-8 over the raw (pre-inverted) register `crc`.
uint32_t Crc32cSlice8(const uint8_t* p, size_t n, uint32_t crc) {
  static const Crc32cTables tables;
  const auto& t = tables.t;
  while (n >= 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xff];
  return crc;
}

}  // namespace

uint32_t Crc32cSoftware(const void* data, size_t n, uint32_t seed) {
  return ~Crc32cSlice8(static_cast<const uint8_t*>(data), n, ~seed);
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#if defined(__SSE4_2__)
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (n >= 8) {
    uint64_t v;
    __builtin_memcpy(&v, p, 8);
    crc = static_cast<uint32_t>(_mm_crc32_u64(crc, v));
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
#else
  return Crc32cSoftware(data, n, seed);
#endif
}

}  // namespace hongtu
