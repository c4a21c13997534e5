/// \file crc32c.h
/// \brief CRC32C (Castagnoli) integrity words for wire payloads and
/// checkpoint sections.
///
/// The fault-tolerance layer attaches a CRC32C word to every
/// codec-compressed transition payload row and to every checkpoint section,
/// so corruption (bit rot, torn writes, injected faults) is *detected* and
/// routed through the recovery paths instead of silently perturbing
/// training. CRC32C is the standard storage/networking checksum (iSCSI,
/// ext4, RocksDB): strong burst-error detection at a few bytes/cycle.
///
/// The implementation uses the SSE4.2 crc32 instruction when the build
/// targets it (HONGTU_NATIVE_ARCH on any modern x86) and a slice-by-8 table
/// fallback otherwise; both produce identical words, so checkpoints and
/// fault-matrix fixtures are portable across the two.

#pragma once

#include <cstddef>
#include <cstdint>

namespace hongtu {

/// CRC32C of `n` bytes, continuing from `seed` (pass 0 to start a new
/// stream; chain calls by passing the previous return value).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The portable slice-by-8 implementation behind Crc32c on hosts without
/// SSE4.2; same contract and words. Exposed so it is compiled and tested on
/// every host.
uint32_t Crc32cSoftware(const void* data, size_t n, uint32_t seed = 0);

/// Mixes `crc` so that Crc32c(payload) stored *inside* a larger checksummed
/// region cannot collide with the region's own CRC stream (RocksDB-style
/// masking).
inline uint32_t MaskCrc32c(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc32c(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace hongtu
