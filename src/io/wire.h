// io-internal little-endian stream primitives.
//
// Shared by the tagged stream serializer (serialize.cpp) and the mapped v4
// artifact layer (artifact_map.cpp): the v4 TOC and per-edge meta blobs are
// written with exactly these primitives, so the two layers can never drift
// on byte order or framing. Not part of the public io API.
//
// Every count or length read from a file passes expect_fits before anything
// is sized from it, so a hostile count in a CRC-clean TOC, meta blob or
// sidecar fails as RuntimeError (ArtifactError at the callers that type
// it) rather than as std::bad_alloc / std::length_error in the allocator.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "util/error.h"

namespace desmine::io::wire {

inline void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw RuntimeError("unexpected end of stream reading u32");
  return v;
}

inline void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw RuntimeError("unexpected end of stream reading u64");
  return v;
}

inline void write_f32(std::ostream& os, float v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline double read_f64(std::istream& is) {
  double v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw RuntimeError("unexpected end of stream reading f64");
  return v;
}

/// Throw RuntimeError unless `count` items of at least `item_bytes` encoded
/// bytes each fit in what is left of `is`. Readers call this before they
/// allocate from a count they read.
inline void expect_fits(std::istream& is, std::uint64_t count,
                        std::uint64_t item_bytes) {
  // Fast path, no seeks: the bytes already buffered are a lower bound on
  // the bytes left (for the in-memory streams io reads, all of them).
  const std::streamsize buffered = is.rdbuf()->in_avail();
  if (buffered > 0 &&
      count <= static_cast<std::uint64_t>(buffered) / item_bytes) {
    return;
  }
  const std::istream::pos_type here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (here == std::istream::pos_type(-1) || end == std::istream::pos_type(-1)) {
    throw RuntimeError("cannot size a count against an unseekable stream");
  }
  const auto left = static_cast<std::uint64_t>(end - here);
  if (count > left / item_bytes) {
    throw RuntimeError("implausible count " + std::to_string(count) +
                       " with " + std::to_string(left) + " bytes left");
  }
}

/// A u64 element count, each element at least `item_bytes` on the wire.
inline std::uint64_t read_count(std::istream& is, std::uint64_t item_bytes) {
  const std::uint64_t n = read_u64(is);
  expect_fits(is, n, item_bytes);
  return n;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string read_string(std::istream& is) {
  const std::uint64_t n = read_count(is, 1);
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw RuntimeError("unexpected end of stream reading string");
  return s;
}

}  // namespace desmine::io::wire
