// Runtime-dispatched SIMD lanes for the Zp echelon sweep (echelon.hpp).
//
// The Montgomery Zp kernel pays one REDC (two 64x64 multiplies) per pivot
// term, one work row at a time. The block sweep instead reduces up to
// kSweepLanes work rows in one pass over a *lane-interleaved* accumulator —
// cell (column c, row r) at acc[kSweepLanes·c + r] — so each pivot term is
// one 256-bit update covering every row of the block, and the pivot is
// loaded once per block rather than once per row. The update is a *delayed
// reduction* AXPY: accumulator lanes hold arbitrary 64-bit values that are
// only *congruent* mod p to the true entries, each lane update is one
// 32x32→64 multiply plus a wrap correction, and normalization (`% p`)
// happens once per cell when the sweep reaches it — not once per update.
//
// Overflow-budget argument (the reason the block sweep demands p < 2^32):
// an AXPY adds prod = fneg·coeff ≤ (p−1)² to a lane. If the 64-bit addition
// wraps, the lane now holds true_value − 2^64; adding r64 = 2^64 mod p
// restores the congruence. The correction itself cannot wrap again: a lane
// that just wrapped is < prod ≤ (p−1)², and (p−1)² + p < 2^64 whenever
// p < 2^32. So one conditional correction per lane per update keeps every
// lane exact mod p with no budget counter and no mid-sweep normalization
// passes. For p ≥ 2^32 the products do not fit a 64-bit lane and the
// Montgomery per-row kernel is used instead.
//
// Dispatch: CPUID at first use (AVX2), overridable at runtime with the
// GBD_DISABLE_SIMD environment variable (any non-empty value forces scalar;
// re-read on every simd_level() call so tests can flip it), and at compile
// time with -DGBD_DISABLE_SIMD. The scalar level performs the identical
// delayed-reduction arithmetic lane by lane and is the differential oracle
// for the vector one; both produce the same canonical residues as the
// Montgomery kernel, so every dispatch choice yields bit-identical
// polynomials.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gbd {

enum class SimdLevel : std::uint8_t {
  kScalar = 0,  ///< delayed-reduction lane math, one lane at a time
  kAvx2 = 1,    ///< a block's 4 lanes per pivot term (vpmuludq + wrap-correct)
};

/// CPU capability probes (x86 CPUID; false elsewhere). AVX-512 is detected
/// for reporting only — the vector kernel targets AVX2.
bool cpu_has_avx2();
bool cpu_has_avx512();

/// The level the Zp sweep will dispatch to right now: kAvx2 iff the CPU has
/// it, the build did not define GBD_DISABLE_SIMD, and the GBD_DISABLE_SIMD
/// environment variable is unset/empty (checked on every call).
SimdLevel simd_level();

const char* simd_level_name(SimdLevel level);

/// Work rows the block sweep reduces per pass: the accumulator interleaves
/// this many lanes per column (one 256-bit AVX2 vector of u64).
inline constexpr std::size_t kSweepLanes = 4;

/// Delayed-reduction AXPY of one pivot tail into a block of lanes:
///   acc[kSweepLanes·cols[j] + r] ← acc[…] + fneg[r]·coeffs[j]
/// (as values mod p; lanes mod 2^64) for j in [0, n) and every lane r.
/// Preconditions: every fneg[r] and coeffs[j] is a canonical residue of a
/// prime p < 2^32 (fneg[r] = 0 leaves lane r untouched), and r64 == 2^64
/// mod p. Lanes may hold any 64-bit value congruent to the true entry; the
/// postcondition is the same congruence (see the overflow-budget argument
/// above). The scalar level is the oracle: the AVX2 level leaves every lane
/// bit-identical to it.
void zp_axpy_lanes(std::uint64_t* acc, const std::uint32_t* cols, const std::uint32_t* coeffs,
                   std::size_t n, const std::uint64_t fneg[kSweepLanes], std::uint64_t r64,
                   SimdLevel level);

}  // namespace gbd
