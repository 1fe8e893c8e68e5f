// Contract-violation coverage: the library enforces its preconditions with
// aborting checks (GBD_CHECK); these death tests pin down that misuse fails
// fast and loudly instead of corrupting algebra.
#include <gtest/gtest.h>

#include "bigint/bigint.hpp"
#include "bigint/rational.hpp"
#include "gb/parallel.hpp"
#include "io/parse.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "problems/problems.hpp"
#include "support/serialize.hpp"

namespace gbd {
namespace {

PolyContext ctx2() { return PolyContext{{"x", "y"}, OrderKind::kGrLex}; }

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, BigIntDivisionByZeroAborts) {
  BigInt a(7), z(0);
  EXPECT_DEATH({ BigInt q = a / z; (void)q; }, "division by zero");
  EXPECT_DEATH({ BigInt r = a % z; (void)r; }, "division by zero");
}

TEST(ContractsDeathTest, BigIntToInt64OverflowAborts) {
  BigInt big = BigInt::pow(BigInt(2), 70);
  EXPECT_DEATH({ auto v = big.to_int64(); (void)v; }, "to_int64 overflow");
}

TEST(ContractsDeathTest, BigIntBadLiteralAborts) {
  EXPECT_DEATH({ auto v = BigInt::from_string("12x"); (void)v; }, "malformed");
}

TEST(ContractsDeathTest, RationalZeroDenominatorAborts) {
  EXPECT_DEATH({ Rational r(BigInt(1), BigInt(0)); (void)r; }, "zero denominator");
}

TEST(ContractsDeathTest, RationalInverseOfZeroAborts) {
  Rational zero;
  EXPECT_DEATH({ auto v = zero.inverse(); (void)v; }, "inverse of zero");
}

TEST(ContractsDeathTest, MonomialBadQuotientAborts) {
  Monomial a({1, 0});
  Monomial b({0, 1});
  EXPECT_DEATH({ auto q = a / b; (void)q; }, "non-divisor");
}

TEST(ContractsDeathTest, HeadOfZeroPolynomialAborts) {
  Polynomial z;
  EXPECT_DEATH({ auto& h = z.head(); (void)h; }, "zero polynomial");
}

TEST(ContractsDeathTest, DivExactScalarNonDivisorAborts) {
  PolyContext c = ctx2();
  Polynomial p = parse_poly_or_die(c, "3*x + 2");
  EXPECT_DEATH(p.div_exact_scalar(BigInt(2)), "not an exact divisor");
}

TEST(ContractsDeathTest, ReduceStepRequiresDivisibleHead) {
  PolyContext c = ctx2();
  Polynomial p = parse_poly_or_die(c, "x^2 + 1");
  Polynomial r = parse_poly_or_die(c, "y + 1");
  EXPECT_DEATH({ auto q = reduce_step(c, p, r); (void)q; }, "does not divide");
}

TEST(ContractsDeathTest, SpolyOfZeroAborts) {
  PolyContext c = ctx2();
  Polynomial p = parse_poly_or_die(c, "x");
  Polynomial z;
  EXPECT_DEATH({ auto s = spoly(c, p, z); (void)s; }, "zero polynomial");
}

TEST(ContractsDeathTest, ReaderUnderrunAborts) {
  Writer w;
  w.u32(5);
  Reader r(w.data());
  (void)r.u32();
  EXPECT_DEATH({ auto v = r.u64(); (void)v; }, "underrun");
}

TEST(ContractsDeathTest, ReduceFullMaxStepsAborts) {
  PolyContext c = ctx2();
  std::vector<Polynomial> basis = {parse_poly_or_die(c, "x - 1")};
  VectorReducerSet set(&basis);
  Polynomial p = parse_poly_or_die(c, "x^20");
  ReduceOptions opts;
  opts.max_steps = 3;  // x^20 needs 20 steps
  EXPECT_DEATH({ auto out = reduce_full(c, p, set, opts); (void)out; }, "max_steps");
}

TEST(ContractsDeathTest, HybridStoreRejectsWireBatching) {
  // The hybrid store speaks only the per-id protocol; a batching request
  // would be silently ignored, so the engine refuses it up front.
  PolySystem sys = load_problem("arnborg4");
  for (bool fetches : {false, true}) {
    ParallelConfig cfg;
    cfg.nprocs = 2;
    cfg.basis_mode = BasisMode::kHybrid;
    cfg.wire.batch_invalidations = !fetches;
    cfg.wire.batch_fetches = fetches;
    EXPECT_DEATH({ auto r = groebner_parallel(sys, cfg); (void)r; },
                 "not supported by the hybrid basis store");
  }
}

}  // namespace
}  // namespace gbd
