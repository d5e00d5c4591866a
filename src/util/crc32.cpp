#include "util/crc32.h"

#include <array>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DESMINE_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace desmine::util {

namespace {

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Advances the (inverted) CRC register `c` over `len` bytes, one at a time.
std::uint32_t table_update(std::uint32_t c, const unsigned char* p,
                           std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_table();
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef DESMINE_CRC32_CLMUL

#define DESMINE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

// Folding constants of the bit-reflected polynomial P'(x) = 0x1DB710641
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel, 2009). Each R is (x^k mod P(x)) << 32,
// bit-reflected and shifted left by one.
constexpr std::uint64_t kR1 = 0x154442bd4;  // k = 4*128 + 32: fold 64 bytes
constexpr std::uint64_t kR2 = 0x1c6e41596;  // k = 4*128 - 32
constexpr std::uint64_t kR3 = 0x1751997d0;  // k = 128 + 32: fold 16 bytes
constexpr std::uint64_t kR4 = 0x0ccaa009e;  // k = 128 - 32
constexpr std::uint64_t kR5 = 0x163cd6124;  // k = 64: 96 -> 64 bits
constexpr std::uint64_t kP = 0x1DB710641;   // P'(x), Barrett reduction
constexpr std::uint64_t kMu = 0x1F7011641;  // floor(x^64 / P(x)), reflected

/// One fold: carries the 128 bits of `acc` forward by the distance that
/// `k` = {R_odd, R_even} encodes and adds them to the bits found there.
DESMINE_CLMUL_TARGET inline __m128i fold(__m128i acc, __m128i k,
                                         __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

DESMINE_CLMUL_TARGET inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the (inverted) CRC register `c` over `len` bytes, `len` >= 64
/// and a multiple of 16: four 128-bit lanes fold 64 bytes per step, then
/// one lane takes the 16-byte blocks left, and a Barrett reduction brings
/// the 128-bit remainder down to the 32-bit register.
DESMINE_CLMUL_TARGET std::uint32_t fold_update(std::uint32_t c,
                                               const unsigned char* p,
                                               std::size_t len) {
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;

  const __m128i k64 = _mm_set_epi64x(static_cast<long long>(kR2),
                                     static_cast<long long>(kR1));
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k64, load(p));
    x1 = fold(x1, k64, load(p + 16));
    x2 = fold(x2, k64, load(p + 32));
    x3 = fold(x3, k64, load(p + 48));
  }

  const __m128i k16 = _mm_set_epi64x(static_cast<long long>(kR4),
                                     static_cast<long long>(kR3));
  x0 = fold(x0, k16, x1);
  x0 = fold(x0, k16, x2);
  x0 = fold(x0, k16, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = fold(x0, k16, load(p));

  // 128 -> 96 bits: the low half times R4 lands on the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k16, 0x10));
  // 96 -> 64 bits: the low 32 times R5 lands on the upper 64.
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kR5));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: q = (low32 * mu) mod x^32, remainder = x0 ^ q * P.
  const __m128i kb = _mm_set_epi64x(static_cast<long long>(kMu),
                                    static_cast<long long>(kP));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), kb, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), kb, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#undef DESMINE_CLMUL_TARGET

#endif  // DESMINE_CRC32_CLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_table(const void* data, std::size_t len,
                          std::uint32_t seed) {
  return table_update(seed ^ 0xFFFFFFFFu,
                      static_cast<const unsigned char*>(data), len) ^
         0xFFFFFFFFu;
}

bool crc32_folds() {
#ifdef DESMINE_CRC32_CLMUL
  static const bool folds =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return folds;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef DESMINE_CRC32_CLMUL
  if (len >= 64 && detail::crc32_folds()) {
    const std::size_t blocks = len & ~std::size_t{15};
    c = fold_update(c, p, blocks);
    p += blocks;
    len -= blocks;
  }
#endif
  return table_update(c, p, len) ^ 0xFFFFFFFFu;
}

}  // namespace desmine::util
