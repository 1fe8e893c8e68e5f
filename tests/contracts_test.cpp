// Contract-violation coverage: the library enforces its preconditions with
// aborting checks (GBD_CHECK); these death tests pin down that misuse fails
// fast and loudly instead of corrupting algebra.
#include <gtest/gtest.h>

#include <atomic>

#include "bigint/bigint.hpp"
#include "bigint/rational.hpp"
#include "gb/modular.hpp"
#include "gb/parallel.hpp"
#include "gb/pipeline.hpp"
#include "gb/sequential.hpp"
#include "gb/shared_memory.hpp"
#include "gb/transition.hpp"
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

/// One GbConfig misuse and the abort message it must produce.
struct ConfigCase {
  void (*set)(GbConfig*);
  const char* message;
};

TEST(ContractsDeathTest, GlpRejectsConfigItHasNoPathFor) {
  // GL-P has no sugar on the wire, no tail or input interreduction and no
  // stop seam: each such field aborts instead of being silently ignored.
  static const std::atomic<bool> stop{false};
  const ConfigCase cases[] = {
      {[](GbConfig* g) { g->selection = Selection::kSugar; }, "does not support sugar selection"},
      {[](GbConfig* g) { g->tail_reduce = true; }, "does not support tail_reduce"},
      {[](GbConfig* g) { g->interreduce_input = true; }, "does not support interreduce_input"},
      {[](GbConfig* g) { g->stop = &stop; }, "does not support stop"},
  };
  PolySystem sys = load_problem("arnborg4");
  for (const ConfigCase& c : cases) {
    ParallelConfig cfg;
    cfg.nprocs = 2;
    c.set(&cfg.gb);
    EXPECT_DEATH({ auto r = groebner_parallel(sys, cfg); (void)r; }, c.message);
  }
}

TEST(ContractsDeathTest, ModularDriverRejectsConfigItHasNoPathFor) {
  // The driver sets the ring of every run itself and lifts only complete
  // bases: a caller's Zp coeff or stop seam aborts instead of being ignored.
  static const std::atomic<bool> stop{false};
  const ConfigCase cases[] = {
      {[](GbConfig* g) { g->coeff = CoeffOptions::zp(32003); }, "gb.coeff must be exact"},
      {[](GbConfig* g) { g->stop = &stop; }, "does not support stop"},
  };
  PolySystem sys = load_problem("arnborg4");
  for (const ConfigCase& c : cases) {
    ModularConfig cfg;
    c.set(&cfg.gb);
    EXPECT_DEATH({ auto r = groebner_multimodular(sys, cfg); (void)r; }, c.message);
  }
}

TEST(ContractsDeathTest, ZeroMatrixBatchCapAborts) {
  // A matrix round capped at zero pairs pops none, so the queue would never
  // drain. Both matrix engines reject the cap up front, and the
  // multi-modular driver does through its per-prime sequential runs.
  PolySystem sys = load_problem("katsura4");
  GbConfig gb;
  gb.matrix_reduce = true;
  gb.matrix_batch_max = 0;
  for (const CoeffOptions& coeff : {CoeffOptions{}, CoeffOptions::zp(32003)}) {
    GbConfig seq = gb;
    seq.coeff = coeff;
    EXPECT_DEATH({ auto r = groebner_sequential(sys, seq); (void)r; },
                 "matrix_batch_max must be at least 1");
    ParallelConfig cfg;
    cfg.nprocs = 2;
    cfg.gb = seq;
    EXPECT_DEATH({ auto r = groebner_parallel(sys, cfg); (void)r; },
                 "matrix_batch_max must be at least 1");
  }
  ModularConfig mc;
  mc.gb = gb;
  EXPECT_DEATH({ auto r = groebner_multimodular(sys, mc); (void)r; },
               "matrix_batch_max must be at least 1");
}

TEST(ContractsDeathTest, MaxSpolysStopsEveryEngine) {
  // Every engine honours the cap: a run that forms a second s-polynomial
  // aborts. GL-P checks each processor's own count.
  PolySystem sys = load_problem("trinks2");
  GbConfig gb;
  gb.max_spolys = 1;
  for (bool matrix : {false, true}) {
    GbConfig seq = gb;
    seq.matrix_reduce = matrix;
    EXPECT_DEATH({ auto r = groebner_sequential(sys, seq); (void)r; }, "exceeded max_spolys");
  }
  TransitionConfig tc;
  tc.gb = gb;
  EXPECT_DEATH({ auto r = groebner_transition(sys, tc); (void)r; }, "exceeded max_spolys");
  SharedMemoryConfig sc;
  sc.gb = gb;
  EXPECT_DEATH({ auto r = groebner_shared(sys, sc); (void)r; }, "exceeded max_spolys");
  PipelineConfig pc;
  pc.gb = gb;
  EXPECT_DEATH({ auto r = groebner_pipeline(sys, pc); (void)r; }, "exceeded max_spolys");
  ParallelConfig glp;
  glp.nprocs = 4;
  glp.gb = gb;
  EXPECT_DEATH({ auto r = groebner_parallel(sys, glp); (void)r; }, "exceeded max_spolys");
}

TEST(ContractsDeathTest, BaselineEnginesRejectConfigTheyHaveNoPathFor) {
  // The transition, shared-memory and pipeline engines are exact, per-poly
  // and head-reducing, never select by sugar, and they cannot stop.
  static const std::atomic<bool> stop{false};
  const ConfigCase cases[] = {
      {[](GbConfig* g) { g->coeff = CoeffOptions::zp(32003); }, "exact-only"},
      {[](GbConfig* g) { g->matrix_reduce = true; }, "does not support matrix_reduce"},
      {[](GbConfig* g) { g->tail_reduce = true; }, "does not support tail_reduce"},
      {[](GbConfig* g) { g->interreduce_input = true; }, "does not support interreduce_input"},
      {[](GbConfig* g) { g->selection = Selection::kSugar; }, "does not support sugar selection"},
      {[](GbConfig* g) { g->stop = &stop; }, "does not support stop"},
  };
  PolySystem sys = load_problem("arnborg4");
  for (const ConfigCase& c : cases) {
    TransitionConfig tc;
    c.set(&tc.gb);
    EXPECT_DEATH({ auto r = groebner_transition(sys, tc); (void)r; }, c.message);
    SharedMemoryConfig sc;
    c.set(&sc.gb);
    EXPECT_DEATH({ auto r = groebner_shared(sys, sc); (void)r; }, c.message);
    PipelineConfig pc;
    c.set(&pc.gb);
    EXPECT_DEATH({ auto r = groebner_pipeline(sys, pc); (void)r; }, c.message);
  }
}

}  // namespace
}  // namespace gbd
