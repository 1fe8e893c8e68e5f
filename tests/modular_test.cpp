// The multi-modular driver battery: CRT + rational-reconstruction round-trip
// fuzz (a bounded rational is recovered exactly once the modulus is large
// enough, and a failed reconstruction is *reported*, never silently wrong),
// the deliberately-unlucky-prime drills (detection by shape vote, exhaustion
// into the exact fallback), the fault-injection retry drill, and end-to-end
// agreement of the lifted basis with the exact engines on corpus and random
// systems — coefficient-identical, not just up to ideal equality.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/zp.hpp"
#include "gb/modular.hpp"
#include "gb/sequential.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "support/rng.hpp"

namespace gbd {
namespace {

/// Uniform BigInt in [0, 2^bits).
BigInt rand_bigint(Rng& rng, unsigned bits) {
  BigInt v(0);
  for (unsigned got = 0; got < bits; got += 32) {
    v = (v << 32) + BigInt(static_cast<std::int64_t>(rng.next() & 0xFFFFFFFFu));
  }
  return v % (BigInt(1) << bits);
}

/// Product of descending word-size primes with at least `min_bits` bits.
BigInt prime_product(unsigned min_bits, std::vector<std::uint64_t>* primes_out = nullptr) {
  BigInt m(1);
  std::uint64_t p = prev_prime_u64(std::uint64_t{1} << 62);
  while (m.bit_length() < min_bits) {
    m *= BigInt(static_cast<std::int64_t>(p));
    if (primes_out) primes_out->push_back(p);
    p = prev_prime_u64(p);
  }
  return m;
}

std::vector<Polynomial> exact_reduced(const PolySystem& sys) {
  return reduce_basis(sys.ctx, groebner_sequential(sys).basis);
}

void expect_same_basis(const PolySystem& sys, const std::vector<Polynomial>& got,
                       const std::vector<Polynomial>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].equals(want[i]))
        << label << " element " << i << ": " << got[i].to_string(sys.ctx) << " vs "
        << want[i].to_string(sys.ctx);
  }
}

TEST(RationalReconstructTest, RoundTripFuzz) {
  Rng rng(20260808);
  for (int iter = 0; iter < 150; ++iter) {
    // A bounded rational n/d in lowest terms, n of either sign.
    unsigned bits = 1 + static_cast<unsigned>(rng.below(180));
    BigInt n = rand_bigint(rng, bits);
    BigInt d = rand_bigint(rng, bits) + BigInt(1);
    BigInt g = BigInt::gcd(n, d);
    if (!g.is_zero()) {
      n = n / g;
      d = d / g;
    }
    if (rng.below(2) == 0) n = -n;
    // A modulus with 2·bound² ≤ m and bound ≥ max(|n|, d), so the round trip
    // must land on exactly this pair.
    unsigned need = 2 * std::max<unsigned>(n.bit_length(), d.bit_length()) + 6;
    BigInt m = prime_product(need);
    BigInt dinv = mod_inverse(((d % m) + m) % m, m);
    ASSERT_FALSE(dinv.is_zero());  // d < 2^181 cannot share a 62-bit prime factor
    BigInt a = (((n % m) + m) % m) * dinv % m;
    BigInt rn, rd;
    ASSERT_TRUE(rational_reconstruct(a, m, &rn, &rd)) << "iter " << iter;
    EXPECT_EQ(rn, n) << "iter " << iter;
    EXPECT_EQ(rd, d) << "iter " << iter;
  }
}

TEST(RationalReconstructTest, NeverWrongOnRandomResidues) {
  // A random residue usually is NOT the image of a bounded rational. The
  // contract is: either report failure, or return a pair that genuinely
  // satisfies the congruence and the uniqueness bound — never a junk answer.
  Rng rng(7);
  BigInt m = prime_product(120);
  const BigInt bound = BigInt(1) << ((m.bit_length() - 2) / 2);
  int failures = 0;
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a = rand_bigint(rng, static_cast<unsigned>(m.bit_length()) + 8) % m;
    BigInt n, d;
    if (!rational_reconstruct(a, m, &n, &d)) {
      ++failures;
      continue;
    }
    BigInt chk = (n - a * d) % m;
    if (chk.is_negative()) chk += m;
    EXPECT_TRUE(chk.is_zero()) << "iter " << iter;
    BigInt abs_n = n.is_negative() ? -n : n;
    EXPECT_LE(abs_n, bound);
    EXPECT_GT(d, BigInt(0));
    EXPECT_LE(d, bound);
    EXPECT_TRUE(BigInt::gcd(n, d).is_one());
  }
  // With 2·bound² ≤ m a large fraction of residues must be rejected.
  EXPECT_GT(failures, 0);
}

TEST(RationalReconstructTest, CrtRecombinesKnownInteger) {
  // Sanity for the Garner path the driver uses: an integer below the bound
  // reconstructs with denominator 1 from its residues' CRT combination.
  Rng rng(99);
  std::vector<std::uint64_t> primes;
  BigInt m = prime_product(250, &primes);
  EXPECT_GE(primes.size(), 4u);
  for (int iter = 0; iter < 50; ++iter) {
    BigInt x = rand_bigint(rng, 100);
    if (rng.below(2) == 0) x = -x;
    BigInt a = x % m;
    if (a.is_negative()) a += m;
    BigInt n, d;
    ASSERT_TRUE(rational_reconstruct(a, m, &n, &d));
    EXPECT_EQ(n, x);
    EXPECT_TRUE(d.is_one());
  }
}

TEST(ModularDriverTest, MatchesExactOnKatsura4) {
  PolySystem sys = load_problem("katsura4");
  ModularConfig cfg;
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_TRUE(res.stats.verified);
  EXPECT_FALSE(res.stats.used_exact_fallback);
  EXPECT_GE(res.primes.size(), 1u);
  EXPECT_EQ(res.primes.size(), res.stats.primes_used);
  EXPECT_GT(res.stats.modulus_bits, 0u);
  expect_same_basis(sys, res.basis, exact_reduced(sys), "katsura4");
}

TEST(ModularDriverTest, MatchesExactOnArnborg4) {
  PolySystem sys = load_problem("arnborg4");
  ModularConfig cfg;
  cfg.initial_primes = 2;
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_TRUE(res.stats.verified);
  EXPECT_FALSE(res.stats.used_exact_fallback);
  expect_same_basis(sys, res.basis, exact_reduced(sys), "arnborg4");
}

TEST(ModularDriverTest, UnluckyPrimeIsOutvotedAndExcluded) {
  // Mod 5 both inputs collapse to x, so the mod-5 basis has shape {x} while
  // the true basis is {y, x}: the classic unlucky prime. With two honest
  // primes alongside it, the shape vote must exclude 5 and still lift the
  // exact answer.
  PolySystem sys = parse_system_or_die("vars x, y; order grlex; x + 5*y; x - 5*y;");
  ModularConfig cfg;
  cfg.forced_primes = {5};
  cfg.initial_primes = 3;
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_TRUE(res.stats.verified);
  EXPECT_FALSE(res.stats.used_exact_fallback);
  EXPECT_GE(res.stats.primes_unlucky, 1u);
  EXPECT_EQ(std::count(res.primes.begin(), res.primes.end(), 5u), 0);
  expect_same_basis(sys, res.basis, exact_reduced(sys), "unlucky-outvoted");
}

TEST(ModularDriverTest, UnluckyPrimeAloneFallsBackToExact) {
  // Budget of exactly one prime, and that prime is unlucky. The lifted basis
  // {x} passes the Buchberger rung but not input membership (x + 5y does not
  // reduce to zero), so the final certificate must reject it and the driver
  // must answer through the exact path rather than return the bogus lift.
  PolySystem sys = parse_system_or_die("vars x, y; order grlex; x + 5*y; x - 5*y;");
  ModularConfig cfg;
  cfg.forced_primes = {5};
  cfg.initial_primes = 1;
  cfg.max_primes = 1;
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_TRUE(res.stats.verified);
  EXPECT_TRUE(res.stats.used_exact_fallback);
  EXPECT_GE(res.stats.primes_unlucky, 1u);
  EXPECT_TRUE(res.primes.empty());
  expect_same_basis(sys, res.basis, exact_reduced(sys), "unlucky-fallback");
}

TEST(ModularDriverTest, UnluckyPrimeWithFallbackDisabledAborts) {
  PolySystem sys = parse_system_or_die("vars x, y; order grlex; x + 5*y; x - 5*y;");
  ModularConfig cfg;
  cfg.forced_primes = {5};
  cfg.initial_primes = 1;
  cfg.max_primes = 1;
  cfg.exact_fallback = false;
  EXPECT_DEATH(groebner_multimodular(sys, cfg), "exact_fallback");
}

TEST(ModularDriverTest, InadmissiblePrimeIsScreenedBeforeAnyJob) {
  // 7 divides the head coefficient of the first input, so it must be
  // rejected by the admissibility screen, not burned as a job.
  PolySystem sys = parse_system_or_die("vars x, y; order grlex; 7*x - y; y^2 - 1;");
  ModularConfig cfg;
  cfg.forced_primes = {7};
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_TRUE(res.stats.verified);
  EXPECT_GE(res.stats.primes_inadmissible, 1u);
  EXPECT_EQ(std::count(res.primes.begin(), res.primes.end(), 7u), 0);
  expect_same_basis(sys, res.basis, exact_reduced(sys), "inadmissible");
}

TEST(ModularDriverTest, InjectedFaultsAbandonPrimesAndRunCompletes) {
  // A per-prime job is deterministic, so a failed one is not retried: its
  // prime is abandoned and the driver draws more primes, else falls back to
  // the exact engine.
  PolySystem sys = load_problem("arnborg4");
  {
    ModularConfig cfg;
    cfg.initial_primes = 2;
    cfg.fault_permille = 1000;  // every job fails
    ModularResult res = groebner_multimodular(sys, cfg);
    EXPECT_EQ(res.stats.jobs_failed, res.stats.jobs_run);
    EXPECT_EQ(res.stats.jobs_run, cfg.max_primes);
    EXPECT_TRUE(res.stats.used_exact_fallback);
    EXPECT_TRUE(res.stats.verified);
    EXPECT_TRUE(res.primes.empty());
    expect_same_basis(sys, res.basis, exact_reduced(sys), "fault-drill all");
  }
  {
    ModularConfig cfg;
    cfg.initial_primes = 2;
    cfg.fault_permille = 500;
    cfg.seed = 7;
    ModularResult res = groebner_multimodular(sys, cfg);
    EXPECT_GE(res.stats.jobs_failed, 1u);
    EXPECT_GT(res.stats.jobs_run, res.stats.jobs_failed);
    EXPECT_FALSE(res.stats.used_exact_fallback);
    EXPECT_TRUE(res.stats.verified);
    expect_same_basis(sys, res.basis, exact_reduced(sys), "fault-drill partial");
  }
}

TEST(ModularDriverTest, SmallPrimesStillEndVerifiedAndCorrect) {
  // 16-bit primes give a reconstruction bound of only a few bits per round;
  // whatever path the run takes (extra rounds, reconstruction failures, or
  // the exact fallback), the answer must come out certified and identical to
  // the exact basis — the "never an unverified basis" contract under a
  // modulus that starts out too small.
  PolySystem sys = parse_system_or_die(
      "vars x, y; order grlex; x^2 - 1000003*y; x*y - 7919;");
  ModularConfig cfg;
  cfg.prime_bits = 16;
  cfg.initial_primes = 1;
  cfg.step_primes = 1;
  cfg.max_primes = 12;
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_TRUE(res.stats.verified);
  EXPECT_GE(res.stats.rounds, 1u);
  expect_same_basis(sys, res.basis, exact_reduced(sys), "small-primes");
}

TEST(ModularDriverTest, RandomSystemsDifferential) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 1337);
    PolySystem sys = random_system(rng, 3, 3, 2, 3, 9);
    bool all_zero = true;
    for (const auto& p : sys.polys) all_zero = all_zero && p.is_zero();
    if (all_zero) continue;
    ModularConfig cfg;
    cfg.initial_primes = 2;
    cfg.seed = seed;
    ModularResult res = groebner_multimodular(sys, cfg);
    EXPECT_TRUE(res.stats.verified) << "seed " << seed;
    expect_same_basis(sys, res.basis, exact_reduced(sys),
                      "random seed " + std::to_string(seed));
  }
}

TEST(ModularDriverTest, StatsSummaryMentionsTheOutcome) {
  PolySystem sys = parse_system_or_die("vars x, y; order grlex; x - y; y^2 - 2;");
  ModularConfig cfg;
  ModularResult res = groebner_multimodular(sys, cfg);
  std::string s = res.stats.summary();
  EXPECT_NE(s.find("primes="), std::string::npos);
  EXPECT_NE(s.find("verified"), std::string::npos);
  EXPECT_EQ(s.find("UNVERIFIED"), std::string::npos);
}

}  // namespace
}  // namespace gbd
