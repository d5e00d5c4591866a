// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Every integrity check in the project runs through crc32, so a truncated or
// bit-flipped file is rejected with a clean error instead of silently
// loading garbage model weights:
//   - the v4 model store (io::ArtifactMap): the header, the TOC, and each
//     edge's meta and weight regions (weights verified lazily on first
//     materialization, or all at once by verify_all / desmine_inspect);
//   - the trailer of v3 sidecar files written by io::serialize;
//   - the miner's checkpoint fingerprints (core::RelationshipMiner);
//   - the `crc32` field of CSV quarantine journal rows (io::csv).
//
// Two implementations give the same value for every input. The portable
// one is a byte-at-a-time table loop. On x86 CPUs that report PCLMULQDQ and
// SSE4.1 (CPUID, checked once per process), inputs of 64 bytes or more are
// folded 64 bytes per step with carry-less multiplies and reduced by
// Barrett's method; the table loop takes the last 0-15 bytes. Shorter
// inputs, other CPUs and non-x86 builds use the table loop alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace desmine::util {

/// CRC of `len` bytes, continuing from `seed` (pass a previous crc32 result
/// to checksum data in chunks; 0 starts a fresh checksum).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

namespace detail {

/// The table loop alone, whatever the CPU: the oracle crc32 is tested
/// against.
std::uint32_t crc32_table(const void* data, std::size_t len,
                          std::uint32_t seed = 0);

/// True when crc32 folds inputs of 64 bytes or more with PCLMULQDQ.
bool crc32_folds();

}  // namespace detail

}  // namespace desmine::util
