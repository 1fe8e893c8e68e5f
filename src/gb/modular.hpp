// Multi-modular Gröbner driver: compute the basis mod several machine-word
// primes (cheap, fixed-width arithmetic — gb/engine over poly/coeff.hpp's
// kZp ring), CRT-combine the per-prime results, rationally reconstruct the
// coefficients over Q, and certify the lift with the exact verifier.
//
// The exact engines spend nearly all their time on coefficient growth (the
// PR-4 breakdowns); mod p every coefficient is one word, so a per-prime run
// is often an order of magnitude cheaper than the exact run and the lift
// amortizes a handful of them. Per-prime jobs are independent; each runs
// groebner_sequential in process, and a small thread pool overlaps them.
//
// Soundness. A prime can be *unlucky*: the mod-p basis has a different
// lead-term structure than the true basis over Q, and lifting it would be
// wrong. The driver defends in depth; a failure at any rung adds primes or
// falls back to the exact path — it never returns an unverified basis:
//   1. admissibility screen — p must not divide any input head coefficient
//      or annihilate an input mod p;
//   2. per-prime certificate — each job's reduced basis passes
//      verify_groebner_result over Z/pZ (Buchberger + input membership);
//   3. shape vote — only primes agreeing on the full monomial support of the
//      canonical reduced basis are combined, and a winning shape needs at
//      least two supporters once more than one prime has been run;
//   4. reconstruction bound — a rational is accepted only when numerator and
//      denominator fit 2·N·D ≤ modulus (the uniqueness bound), so a bad lift
//      is detected, never silently wrong;
//   5. lift consistency — the lifted basis reduces mod every used prime back
//      to exactly that prime's basis;
//   6. final certificate — verify_groebner_result over Q on the lifted basis
//      (cfg.verify). The one statement this cannot certify — every lifted
//      element lies in IDEAL(inputs) — is discussed in DESIGN.md §14.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gb/engine_common.hpp"
#include "io/parse.hpp"

namespace gbd {

struct ModularConfig {
  /// Engine options for the per-prime jobs and the exact fallback. The driver
  /// sets the coefficient ring itself (each prime, then exact) and runs every
  /// job to completion: a Zp coeff or a non-null stop aborts.
  GbConfig gb;
  /// Primes in the first round / added per later round / overall budget.
  std::size_t initial_primes = 3;
  std::size_t step_primes = 2;
  std::size_t max_primes = 16;
  /// Primes are taken descending from just below 2^prime_bits (3..62).
  unsigned prime_bits = 62;
  /// Drill knob: use these primes first, before the generated sequence.
  /// Deliberately unlucky primes go here; the admissibility screen still
  /// applies. Must be valid ZpField moduli.
  std::vector<std::uint64_t> forced_primes;
  /// Fault drill: each prime's job fails with this probability (per mille),
  /// deterministically from (seed, prime). A failed job abandons its prime,
  /// exactly like a failed Zp certificate; 0 = off.
  std::uint32_t fault_permille = 0;
  /// Run the per-prime Zp certificates and the final exact certificate.
  bool verify = true;
  /// When the prime budget is exhausted (or every shape vote stays split),
  /// fall back to the exact sequential engine instead of failing.
  bool exact_fallback = true;
  std::uint64_t seed = 1;
};

struct ModularStats {
  std::uint64_t primes_used = 0;          ///< primes contributing to the returned lift
  std::uint64_t primes_unlucky = 0;       ///< admissible primes voted down or lift-inconsistent
  std::uint64_t primes_inadmissible = 0;  ///< screened out before any job ran
  std::uint64_t jobs_run = 0;             ///< per-prime jobs, one per admissible prime
  std::uint64_t jobs_failed = 0;  ///< jobs lost to faults or failed Zp certificates
  std::uint64_t rounds = 0;       ///< prime-batch rounds before success
  std::uint64_t reconstruction_failures = 0;  ///< CRT lifts rejected by the bound
  std::uint64_t modulus_bits = 0;             ///< bit length of the final combined modulus
  bool verified = false;             ///< final certificate passed (always true when cfg.verify)
  bool used_exact_fallback = false;  ///< answer came from the exact path
  double gb_seconds = 0.0;           ///< wall time in per-prime jobs
  double lift_seconds = 0.0;         ///< wall time in CRT + reconstruction
  double verify_seconds = 0.0;       ///< wall time in certificates (Zp + exact)

  std::string summary() const;
};

struct ModularResult {
  /// Canonical reduced basis over Q (primitive integer associates) —
  /// coefficient-identical to reduce_basis of any exact engine's output.
  std::vector<Polynomial> basis;
  /// Primes whose runs were combined (empty if the exact fallback answered).
  std::vector<std::uint64_t> primes;
  ModularStats stats;
};

/// Compute the canonical reduced Gröbner basis of sys by the multi-modular
/// strategy above. Throws nothing; unlucky primes, reconstruction failures
/// and failed jobs draw more primes and ultimately fall back to the exact
/// engine (cfg.exact_fallback). Aborts on configs it has no path for (a Zp
/// gb.coeff, a non-null gb.stop) and on configs that can never succeed
/// (exact_fallback off and the prime budget exhausted).
ModularResult groebner_multimodular(const PolySystem& sys, const ModularConfig& cfg);

/// Rational reconstruction: the unique n/d with a ≡ n·d^{-1} (mod m),
/// |n| ≤ B, 0 < d ≤ B, gcd(n, d) = 1 for B = 2^⌊(bits(m)−2)/2⌋ (so that
/// 2B² ≤ m, making the solution unique when one exists). Returns false if no
/// such pair exists — never a wrong answer. a must lie in [0, m).
bool rational_reconstruct(const BigInt& a, const BigInt& m, BigInt* num, BigInt* den);

}  // namespace gbd
