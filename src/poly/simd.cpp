#include "poly/simd.hpp"

#include <cstdlib>

#if defined(__x86_64__) && !defined(GBD_DISABLE_SIMD)
#define GBD_SIMD_X86 1
#include <immintrin.h>
#endif

namespace gbd {

bool cpu_has_avx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

SimdLevel simd_level() {
#ifdef GBD_SIMD_X86
  static const bool avx2 = cpu_has_avx2();  // CPUID once
  if (!avx2) return SimdLevel::kScalar;
  // The env override is re-read every call (it gates one branch per batch,
  // not per lane) so a test can force the scalar kernel and back without
  // re-execing the binary.
  const char* env = std::getenv("GBD_DISABLE_SIMD");
  if (env != nullptr && env[0] != '\0') return SimdLevel::kScalar;
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "?";
}

namespace {

void zp_axpy_lanes_scalar(std::uint64_t* acc, const std::uint32_t* cols,
                          const std::uint32_t* coeffs, std::size_t n,
                          const std::uint64_t fneg[kSweepLanes], std::uint64_t r64) {
  for (std::size_t r = 0; r < kSweepLanes; ++r) {
    const std::uint64_t f = fneg[r];
    if (f == 0) continue;  // adding 0·coeff never wraps: the lane is unchanged
    for (std::size_t j = 0; j < n; ++j) {
      std::uint64_t& cell = acc[kSweepLanes * cols[j] + r];
      const std::uint64_t prod = f * static_cast<std::uint64_t>(coeffs[j]);
      std::uint64_t sum = cell + prod;  // may wrap: unsigned, well-defined
      if (sum < prod) sum += r64;       // wrap ⇒ sum < prod ≤ (p−1)², no second wrap
      cell = sum;
    }
  }
}

#ifdef GBD_SIMD_X86

static_assert(kSweepLanes == 4, "one block column is one 256-bit vector of u64");

__attribute__((target("avx2"))) void zp_axpy_lanes_avx2(std::uint64_t* acc,
                                                        const std::uint32_t* cols,
                                                        const std::uint32_t* coeffs, std::size_t n,
                                                        const std::uint64_t fneg[kSweepLanes],
                                                        std::uint64_t r64) {
  const __m256i vf = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fneg));
  const __m256i vr = _mm256_set1_epi64x(static_cast<long long>(r64));
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  for (std::size_t j = 0; j < n; ++j) {
    __m256i* cell = reinterpret_cast<__m256i*>(acc + kSweepLanes * cols[j]);
    // vpmuludq: low 32 bits of each 64-bit lane multiplied to a full 64-bit
    // product — exact, since both operands are < 2^32.
    const __m256i prod = _mm256_mul_epu32(_mm256_set1_epi64x(coeffs[j]), vf);
    __m256i sum = _mm256_add_epi64(_mm256_loadu_si256(cell), prod);
    // Unsigned sum < prod ⇔ the addition wrapped; emulate the unsigned
    // compare by biasing both sides into signed range.
    const __m256i wrapped =
        _mm256_cmpgt_epi64(_mm256_xor_si256(prod, bias), _mm256_xor_si256(sum, bias));
    sum = _mm256_add_epi64(sum, _mm256_and_si256(wrapped, vr));
    _mm256_storeu_si256(cell, sum);
  }
}

#endif  // GBD_SIMD_X86

}  // namespace

void zp_axpy_lanes(std::uint64_t* acc, const std::uint32_t* cols, const std::uint32_t* coeffs,
                   std::size_t n, const std::uint64_t fneg[kSweepLanes], std::uint64_t r64,
                   SimdLevel level) {
#ifdef GBD_SIMD_X86
  if (level == SimdLevel::kAvx2) {
    zp_axpy_lanes_avx2(acc, cols, coeffs, n, fneg, r64);
    return;
  }
#else
  (void)level;
#endif
  zp_axpy_lanes_scalar(acc, cols, coeffs, n, fneg, r64);
}

}  // namespace gbd
