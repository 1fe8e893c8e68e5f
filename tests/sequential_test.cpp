// Tests for the sequential Buchberger engine (Algorithm S) and the
// verification oracles.
#include "gb/sequential.hpp"

#include <gtest/gtest.h>

#include "gb/parallel.hpp"
#include "gb/pipeline.hpp"
#include "gb/shared_memory.hpp"
#include "gb/transition.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "problems/problems.hpp"
#include "support/rng.hpp"

namespace gbd {
namespace {

PolySystem make_system(std::vector<std::string> vars, std::vector<const char*> polys,
                       OrderKind order = OrderKind::kGrLex) {
  PolySystem sys;
  sys.ctx.vars = std::move(vars);
  sys.ctx.order = order;
  for (const char* p : polys) sys.polys.push_back(parse_poly_or_die(sys.ctx, p));
  return sys;
}

TEST(SequentialTest, TextbookExample) {
  // Cox–Little–O'Shea example: {x^2 - y, x^3 - z} under grlex. The reduced
  // basis is {x^2 - y, x*y - z, x*z - y^2, y^3 - z^2}; reduce_basis lists it
  // in ascending head order (x*z < x*y < x^2 in grlex).
  PolySystem sys = make_system({"x", "y", "z"}, {"x^2 - y", "x^3 - z"});
  SequentialResult res = groebner_sequential(sys);
  EXPECT_TRUE(verify_groebner_result(sys.ctx, sys.polys, res.basis));
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), 4u);
  EXPECT_EQ(red[0].to_string(sys.ctx), "x*z - y^2");
  EXPECT_EQ(red[1].to_string(sys.ctx), "x*y - z");
  EXPECT_EQ(red[2].to_string(sys.ctx), "x^2 - y");
  EXPECT_EQ(red[3].to_string(sys.ctx), "y^3 - z^2");
}

TEST(SequentialTest, AlreadyGroebnerAddsNothing) {
  // A single polynomial is trivially a Gröbner basis.
  PolySystem sys = make_system({"x", "y"}, {"x^2 + y"});
  SequentialResult res = groebner_sequential(sys);
  EXPECT_EQ(res.basis.size(), 1u);
  EXPECT_EQ(res.stats.basis_added, 0u);
  EXPECT_EQ(res.stats.spolys_computed, 0u);
}

TEST(SequentialTest, UnivariateComputesGcd) {
  // In one variable, a Gröbner basis of (f, g) is generated by gcd(f, g).
  // gcd(x^2-1, x^3-1) = x-1.
  PolySystem sys = make_system({"x"}, {"x^2 - 1", "x^3 - 1"});
  SequentialResult res = groebner_sequential(sys);
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), 1u);
  EXPECT_EQ(red[0].to_string(sys.ctx), "x - 1");
}

TEST(SequentialTest, InconsistentSystemYieldsUnitIdeal) {
  // {x, x + 1} generates 1: the reduced basis is {1}.
  PolySystem sys = make_system({"x", "y"}, {"x", "x + 1"});
  SequentialResult res = groebner_sequential(sys);
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), 1u);
  EXPECT_EQ(red[0].to_string(sys.ctx), "1");
}

TEST(SequentialTest, ZeroAndDuplicateInputsHandled) {
  PolySystem sys = make_system({"x", "y"}, {"x - y", "x - y"});
  sys.polys.push_back(Polynomial());
  SequentialResult res = groebner_sequential(sys);
  EXPECT_TRUE(is_groebner_basis(sys.ctx, res.basis));
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), 1u);
  EXPECT_EQ(red[0].to_string(sys.ctx), "x - y");
}

TEST(SequentialTest, ResultIndependentOfGeneratorOrder) {
  PolySystem sys = load_problem("trinks2");
  SequentialResult a = groebner_sequential(sys);
  std::reverse(sys.polys.begin(), sys.polys.end());
  SequentialResult b = groebner_sequential(sys);
  std::vector<Polynomial> ra = reduce_basis(sys.ctx, a.basis);
  std::vector<Polynomial> rb = reduce_basis(sys.ctx, b.basis);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(ra[i].equals(rb[i])) << i;
  }
}

/// One engine run for the pair-conservation table.
struct EngineRun {
  const char* name;
  GbResult (*run)(const PolySystem&, const GbConfig&);
};

GbResult run_sequential(const PolySystem& sys, GbConfig gb, bool matrix, bool zp) {
  gb.matrix_reduce = matrix;
  if (zp) gb.coeff = CoeffOptions::zp(32003);
  return groebner_sequential(sys, gb);
}

GbResult run_shared(const PolySystem& sys, const GbConfig& gb, int workers) {
  SharedMemoryConfig cfg;
  cfg.gb = gb;
  cfg.nprocs = workers;
  return groebner_shared(sys, cfg);
}

GbResult run_pipeline(const PolySystem& sys, const GbConfig& gb, int stages) {
  PipelineConfig cfg;
  cfg.gb = gb;
  cfg.nstages = stages;
  return groebner_pipeline(sys, cfg);
}

const EngineRun kEngines[] = {
    {"sequential per-poly Q", [](const PolySystem& s, const GbConfig& g) {
       return run_sequential(s, g, false, false);
     }},
    {"sequential per-poly Zp", [](const PolySystem& s, const GbConfig& g) {
       return run_sequential(s, g, false, true);
     }},
    {"sequential matrix Q", [](const PolySystem& s, const GbConfig& g) {
       return run_sequential(s, g, true, false);
     }},
    {"sequential matrix Zp", [](const PolySystem& s, const GbConfig& g) {
       return run_sequential(s, g, true, true);
     }},
    {"transition", [](const PolySystem& s, const GbConfig& g) -> GbResult {
       TransitionConfig cfg;
       cfg.gb = g;
       return groebner_transition(s, cfg);
     }},
    {"shared-memory 1", [](const PolySystem& s, const GbConfig& g) { return run_shared(s, g, 1); }},
    {"shared-memory 4", [](const PolySystem& s, const GbConfig& g) { return run_shared(s, g, 4); }},
    {"pipeline 1", [](const PolySystem& s, const GbConfig& g) { return run_pipeline(s, g, 1); }},
    {"pipeline 4", [](const PolySystem& s, const GbConfig& g) { return run_pipeline(s, g, 4); }},
    {"GL-P Sim P=4", [](const PolySystem& s, const GbConfig& g) -> GbResult {
       ParallelConfig cfg;
       cfg.gb = g;
       cfg.nprocs = 4;
       return groebner_parallel(s, cfg);
     }},
};

TEST(SequentialTest, StatsAreConsistent) {
  // Pair conservation on every engine, under the default criteria and the
  // paper-era ones (coprime only): every created pair is pruned or reduced,
  // and every computed s-polynomial either died or joined the basis.
  PolySystem sys = load_problem("katsura4");
  GbConfig paper_era;
  paper_era.chain_criterion = false;
  paper_era.gm_update = false;
  for (const GbConfig& gb : {GbConfig{}, paper_era}) {
    for (const EngineRun& e : kEngines) {
      SCOPED_TRACE(std::string(e.name) + (gb.gm_update ? ", default criteria" : ", paper-era"));
      GbResult res = e.run(sys, gb);
      const GbStats& s = res.stats;
      EXPECT_EQ(s.pairs_created,
                s.pairs_pruned_coprime + s.pairs_pruned_chain + s.spolys_computed);
      EXPECT_EQ(s.spolys_computed, s.reductions_to_zero + s.basis_added);
      EXPECT_EQ(res.basis.size(), sys.polys.size() + s.basis_added);
      EXPECT_GT(s.reduction_steps, 0u);
      EXPECT_GT(s.work_units, 0u);
    }
  }
  SequentialResult res = groebner_sequential(sys);
  EXPECT_GE(res.stats.max_step_cost, 1u);
}

TEST(SequentialTest, CriteriaDoNotChangeTheAnswer) {
  PolySystem sys = load_problem("pavelle4");
  GbConfig all, none;
  none.coprime_criterion = false;
  none.chain_criterion = false;
  none.gm_update = false;
  SequentialResult a = groebner_sequential(sys, all);
  SequentialResult b = groebner_sequential(sys, none);
  EXPECT_LT(a.stats.spolys_computed, b.stats.spolys_computed)
      << "criteria should save s-polynomial computations";
  std::vector<Polynomial> ra = reduce_basis(sys.ctx, a.basis);
  std::vector<Polynomial> rb = reduce_basis(sys.ctx, b.basis);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(ra[i].equals(rb[i])) << i;
  }
}

TEST(SequentialTest, SelectionStrategiesAgreeOnReducedBasis) {
  PolySystem sys = load_problem("arnborg4");
  std::vector<Polynomial> reference;
  for (Selection sel :
       {Selection::kNormal, Selection::kDegree, Selection::kFifo, Selection::kSugar}) {
    GbConfig cfg;
    cfg.selection = sel;
    SequentialResult res = groebner_sequential(sys, cfg);
    EXPECT_TRUE(is_groebner_basis(sys.ctx, res.basis)) << selection_name(sel);
    std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
    if (reference.empty()) {
      reference = std::move(red);
    } else {
      ASSERT_EQ(red.size(), reference.size()) << selection_name(sel);
      for (std::size_t i = 0; i < red.size(); ++i) {
        EXPECT_TRUE(red[i].equals(reference[i])) << selection_name(sel) << " " << i;
      }
    }
  }
}

TEST(SequentialTest, ReducerAccountingSumsToTotal) {
  PolySystem sys = load_problem("trinks2");
  SequentialResult res = groebner_sequential(sys);
  std::uint64_t sum = 0;
  for (std::uint64_t w : res.reducers.stage_work) sum += w;
  EXPECT_EQ(sum, res.reducers.total_reduction_work);
  EXPECT_GE(res.reducers.pipeline_parallelism(), 1.0);
  EXPECT_LE(res.reducers.max_step_cost, res.reducers.max_stage_work());
  // The Table 1 observation: a single reduction step is far finer grain than
  // a whole pipeline stage.
  EXPECT_LT(res.reducers.max_step_cost, res.reducers.max_stage_work());
}

TEST(SequentialTest, AllBenchmarksVerify) {
  for (const auto& info : problem_list()) {
    if (info.extra) continue;  // katsura5's full pairwise verification is a bench-scale job
    PolySystem sys = load_problem(info.name);
    SequentialResult res = groebner_sequential(sys);
    std::string why;
    EXPECT_TRUE(verify_groebner_result(sys.ctx, sys.polys, res.basis, &why))
        << info.name << ": " << why;
  }
}

TEST(SequentialTest, InterreductionPreservesTheAnswer) {
  PolySystem sys = load_problem("trinks1");
  // Add redundancy the interreduction should strip.
  sys.polys.push_back(sys.polys[0].mul(sys.ctx, sys.polys[1]));
  sys.polys.push_back(sys.polys[2]);
  GbConfig plain, inter;
  inter.interreduce_input = true;
  SequentialResult a = groebner_sequential(sys, plain);
  SequentialResult b = groebner_sequential(sys, inter);
  std::vector<Polynomial> ra = reduce_basis(sys.ctx, a.basis);
  std::vector<Polynomial> rb = reduce_basis(sys.ctx, b.basis);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(ra[i].equals(rb[i])) << i;
  }
}

TEST(SequentialTest, ExtraProblemsComputeAndNoon3Verifies) {
  // katsura5 is compute-heavy: check it terminates with a plausible basis;
  // noon3 is cheap enough to verify fully.
  PolySystem k5 = load_problem("katsura5");
  SequentialResult rk = groebner_sequential(k5);
  EXPECT_GT(rk.stats.basis_added, 0u);
  EXPECT_FALSE(reduce_basis(k5.ctx, rk.basis).empty());

  PolySystem n3 = load_problem("noon3");
  SequentialResult rn = groebner_sequential(n3);
  std::string why;
  EXPECT_TRUE(verify_groebner_result(n3.ctx, n3.polys, rn.basis, &why)) << why;
}

class SequentialPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequentialPropertyTest, RandomSystemsVerify) {
  Rng rng(GetParam());
  PolySystem sys = random_system(rng, 3, 3, 3, 3, 5);
  GbConfig cfg;
  cfg.max_spolys = 200000;
  SequentialResult res = groebner_sequential(sys, cfg);
  std::string why;
  EXPECT_TRUE(verify_groebner_result(sys.ctx, sys.polys, res.basis, &why)) << why;
  // The reduced basis is itself a Gröbner basis of the same ideal.
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  EXPECT_TRUE(is_groebner_basis(sys.ctx, red, &why)) << why;
  EXPECT_TRUE(same_ideal(sys.ctx, res.basis, red));
}

TEST_P(SequentialPropertyTest, EveryIdealMemberReducesToZero) {
  // Random combinations q1·f1 + q2·f2 of the inputs must vanish modulo the
  // computed basis (the defining property NF_G(p) = {0} for p in IDEAL(P)).
  Rng rng(GetParam() ^ 0xfeedface);
  PolySystem sys = random_system(rng, 3, 2, 2, 3, 4);
  SequentialResult res = groebner_sequential(sys);
  VectorReducerSet set(&res.basis);
  for (int iter = 0; iter < 5; ++iter) {
    PolySystem mults = random_system(rng, 3, 2, 2, 3, 4);
    Polynomial member = sys.polys[0].mul(sys.ctx, mults.polys[0])
                            .add(sys.ctx, sys.polys[1].mul(sys.ctx, mults.polys[1]));
    ReduceOutcome out = reduce_full(sys.ctx, member, set);
    EXPECT_TRUE(out.poly.is_zero()) << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialPropertyTest,
                         ::testing::Values(31, 62, 93, 124, 155, 186));

}  // namespace
}  // namespace gbd
