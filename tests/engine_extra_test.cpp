// Additional engine-level regression anchors: the superlinear mechanism,
// repeated real-thread runs (race coverage), stats arithmetic, and config
// corner cases.
#include <gtest/gtest.h>

#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "io/parse.hpp"
#include "problems/problems.hpp"

namespace gbd {
namespace {

TEST(SuperlinearTest, LazardShortcutsUnderParallelExploration) {
  // The constructed lazard stand-in must keep its defining property: some
  // schedule at P=8 finds the deferred "magic" pairs early and beats the
  // one-processor run by far more than 8/1 would ever explain... at least
  // by a solid factor. Deterministic on the simulator, so this is a stable
  // regression anchor for the Fig. 8(a) phenomenon.
  PolySystem sys = load_problem("lazard");
  GbConfig era;
  era.chain_criterion = false;
  era.gm_update = false;

  ParallelConfig one;
  one.gb = era;
  one.nprocs = 1;
  std::uint64_t t1 = groebner_parallel(sys, one).machine.makespan;

  std::uint64_t best = t1;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ParallelConfig cfg;
    cfg.gb = era;
    cfg.nprocs = 8;
    cfg.seed = seed;
    ParallelResult res = groebner_parallel(sys, cfg);
    EXPECT_TRUE(is_groebner_basis(sys.ctx, res.basis)) << "seed " << seed;
    best = std::min(best, res.machine.makespan);
  }
  EXPECT_LT(best * 2, t1) << "parallel exploration no longer shortcuts lazard";
}

TEST(ThreadEngineTest, RepeatedRacyRunsStayCorrect) {
  // Real threads, no virtual-time serialization: three consecutive runs with
  // genuinely different interleavings must all produce the canonical basis.
  PolySystem sys = load_problem("arnborg4");
  std::vector<Polynomial> ref = reduce_basis(sys.ctx, groebner_sequential(sys).basis);
  for (int round = 0; round < 3; ++round) {
    ParallelConfig cfg;
    cfg.nprocs = 5;
    cfg.seed = static_cast<std::uint64_t>(round + 1);
    ParallelResult res = groebner_parallel_threads(sys, cfg);
    std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
    ASSERT_EQ(red.size(), ref.size()) << "round " << round;
    for (std::size_t i = 0; i < red.size(); ++i) {
      EXPECT_TRUE(red[i].equals(ref[i])) << "round " << round << " elt " << i;
    }
  }
}

TEST(ThreadEngineTest, HybridBasisOnRealThreads) {
  PolySystem sys = load_problem("trinks2");
  std::vector<Polynomial> ref = reduce_basis(sys.ctx, groebner_sequential(sys).basis);
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.basis_mode = BasisMode::kHybrid;
  cfg.hybrid_homes = 1;
  cfg.hybrid_cache_capacity = 6;
  ParallelResult res = groebner_parallel_threads(sys, cfg);
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), ref.size());
  for (std::size_t i = 0; i < red.size(); ++i) {
    EXPECT_TRUE(red[i].equals(ref[i])) << i;
  }
}

TEST(GbStatsTest, MergeSumsAndMaxes) {
  GbStats a, b;
  a.pairs_created = 10;
  a.max_step_cost = 100;
  a.reduction_steps = 3;
  b.pairs_created = 5;
  b.max_step_cost = 200;
  b.reduction_steps = 9;
  a.merge(b);
  EXPECT_EQ(a.pairs_created, 15u);
  EXPECT_EQ(a.reduction_steps, 12u);
  EXPECT_EQ(a.max_step_cost, 200u);  // max, not sum
}

TEST(BasisStatsTest, MergeSumsTrafficAndMaxesResidency) {
  BasisStats a, b;
  a.bodies_received = 4;
  a.max_resident = 7;
  a.body_batches = 1;
  b.bodies_received = 6;
  b.max_resident = 5;
  b.body_batches = 2;
  a.merge(b);
  EXPECT_EQ(a.bodies_received, 10u);
  EXPECT_EQ(a.body_batches, 3u);
  EXPECT_EQ(a.max_resident, 7u);  // high-water mark: max, not sum
}

TEST(ConfigCornersTest, TwoProcsReservedCoordinatorStillWorks) {
  // One worker + one coordinator: degenerates to sequential-with-protocol.
  PolySystem sys = load_problem("morgenstern");
  std::vector<Polynomial> ref = reduce_basis(sys.ctx, groebner_sequential(sys).basis);
  ParallelConfig cfg;
  cfg.nprocs = 2;
  cfg.reserve_coordinator = true;
  ParallelResult res = groebner_parallel(sys, cfg);
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), ref.size());
  for (std::size_t i = 0; i < red.size(); ++i) {
    EXPECT_TRUE(red[i].equals(ref[i])) << i;
  }
  EXPECT_EQ(res.per_proc[0].spolys_computed, 0u);
}

TEST(ConfigCornersTest, EmptyAndTrivialInputs) {
  PolySystem sys;
  sys.ctx.vars = {"x", "y"};
  // All-zero generators: empty basis, nothing to do, on every engine.
  sys.polys = {Polynomial(), Polynomial()};
  SequentialResult seq = groebner_sequential(sys);
  EXPECT_TRUE(seq.basis.empty());
  ParallelConfig cfg;
  cfg.nprocs = 3;
  ParallelResult par = groebner_parallel(sys, cfg);
  EXPECT_TRUE(par.basis.empty());
  EXPECT_EQ(par.stats.spolys_computed, 0u);
}

TEST(ConfigCornersTest, SingleGeneratorManyProcs) {
  PolySystem sys;
  sys.ctx.vars = {"x", "y"};
  sys.polys = {parse_poly_or_die(sys.ctx, "x^3*y - x + 2")};
  ParallelConfig cfg;
  cfg.nprocs = 16;  // far more processors than work
  ParallelResult res = groebner_parallel(sys, cfg);
  ASSERT_EQ(res.basis.size(), 1u);
  EXPECT_TRUE(res.basis[0].equals(sys.polys[0]));
}

}  // namespace
}  // namespace gbd
