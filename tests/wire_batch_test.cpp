// Differential tests for wire batching: the coalesced protocol (multi-id
// invalidation envelopes + multi-add lock rounds, batched validation
// fetch/body traffic) must compute exactly the same reduced Gröbner basis
// as the one-message-per-id protocol, stay deterministic on the
// simulator, actually put fewer envelopes on the wire, and survive chaos
// schedules that reorder and duplicate the batched messages themselves.
#include <gtest/gtest.h>

#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"

namespace gbd {
namespace {

std::vector<Polynomial> reduced_reference(const PolySystem& sys) {
  return reduce_basis(sys.ctx, groebner_sequential(sys).basis);
}

void expect_same_reduced(const PolySystem& sys, const std::vector<Polynomial>& basis,
                         const std::vector<Polynomial>& ref, const std::string& label) {
  std::vector<Polynomial> red = reduce_basis(sys.ctx, basis);
  ASSERT_EQ(red.size(), ref.size()) << label;
  for (std::size_t i = 0; i < red.size(); ++i) {
    EXPECT_TRUE(red[i].equals(ref[i])) << label << " element " << i;
  }
}

ParallelConfig batched_cfg(int nprocs, std::uint64_t seed = 1) {
  ParallelConfig cfg;
  cfg.nprocs = nprocs;
  cfg.seed = seed;
  cfg.wire.batch_invalidations = true;
  cfg.wire.batch_fetches = true;
  return cfg;
}

class WireBatchProblemTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WireBatchProblemTest, BatchedMatchesOracleAcrossProcessorCounts) {
  PolySystem sys = load_problem(GetParam());
  std::vector<Polynomial> ref = reduced_reference(sys);
  for (int nprocs : {2, 4, 7}) {
    ParallelResult res = groebner_parallel(sys, batched_cfg(nprocs));
    std::string why;
    EXPECT_TRUE(verify_groebner_result(sys.ctx, sys.polys, res.basis, &why)) << why;
    expect_same_reduced(sys, res.basis, ref,
                        std::string(GetParam()) + " P=" + std::to_string(nprocs));
  }
}

INSTANTIATE_TEST_SUITE_P(Problems, WireBatchProblemTest,
                         ::testing::Values("katsura4", "trinks2", "arnborg4"));

TEST(WireBatchTest, EachKnobAloneMatchesOracle) {
  PolySystem sys = load_problem("trinks2");
  std::vector<Polynomial> ref = reduced_reference(sys);
  ParallelConfig inv_only = batched_cfg(4);
  inv_only.wire.batch_fetches = false;
  expect_same_reduced(sys, groebner_parallel(sys, inv_only).basis, ref, "inv-only");
  ParallelConfig fetch_only = batched_cfg(4);
  fetch_only.wire.batch_invalidations = false;
  expect_same_reduced(sys, groebner_parallel(sys, fetch_only).basis, ref, "fetch-only");
}

TEST(WireBatchTest, DeterministicOnSimulator) {
  PolySystem sys = load_problem("trinks2");
  ParallelConfig cfg = batched_cfg(4, /*seed=*/9);
  ParallelResult a = groebner_parallel(sys, cfg);
  ParallelResult b = groebner_parallel(sys, cfg);
  EXPECT_EQ(a.machine.makespan, b.machine.makespan);
  EXPECT_EQ(a.machine.total(&ProcCommStats::messages_sent),
            b.machine.total(&ProcCommStats::messages_sent));
  ASSERT_EQ(a.basis_ids.size(), b.basis_ids.size());
  for (std::size_t i = 0; i < a.basis_ids.size(); ++i) {
    EXPECT_EQ(a.basis_ids[i].first, b.basis_ids[i].first);
    EXPECT_TRUE(a.basis_ids[i].second.equals(b.basis_ids[i].second));
  }
}

TEST(WireBatchTest, BatchingPutsFewerEnvelopesOnTheWire) {
  // The point of the exercise: same algebra, fewer messages. Batched adds
  // also save whole lock hand-offs, so on a problem big enough for lock
  // contention (trinks1) the total message count drops sharply (~40% at
  // P=4 when measured); small problems can go either way because batching
  // perturbs the schedule and may change the intermediate basis trajectory.
  PolySystem sys = load_problem("trinks1");
  ParallelConfig plain;
  plain.nprocs = 4;
  ParallelResult unbatched = groebner_parallel(sys, plain);
  ParallelResult batched = groebner_parallel(sys, batched_cfg(4));
  const std::uint64_t batched_msgs = batched.machine.total(&ProcCommStats::messages_sent);
  const std::uint64_t unbatched_msgs = unbatched.machine.total(&ProcCommStats::messages_sent);
  EXPECT_LT(batched_msgs, unbatched_msgs)
      << "batched=" << batched_msgs << " unbatched=" << unbatched_msgs;
  expect_same_reduced(sys, batched.basis, reduce_basis(sys.ctx, unbatched.basis),
                      "batched vs unbatched");
}

TEST(WireBatchTest, EnvelopeCountersShowCompression) {
  // Schedule-independent form of the claim: the same logical traffic
  // (per-destination invalidation announcements) travels in strictly fewer
  // envelopes, i.e. some lock round carried more than one add.
  PolySystem sys = load_problem("trinks1");
  ParallelResult res = groebner_parallel(sys, batched_cfg(4));
  ASSERT_GT(res.wire.invalidation_batches, 0u);
  EXPECT_LT(res.wire.invalidation_batches, res.wire.invalidations_sent);
  // Fetch batching: logical fetches >= envelopes, with at least one
  // multi-id envelope on a problem with real validation traffic.
  ASSERT_GT(res.wire.fetch_batches, 0u);
  EXPECT_LE(res.wire.fetch_batches, res.wire.fetches_sent);
  EXPECT_GT(res.wire.body_batches, 0u);
  // The oracle run keeps the batch counters at zero.
  ParallelConfig plain;
  plain.nprocs = 4;
  ParallelResult oracle = groebner_parallel(sys, plain);
  EXPECT_EQ(oracle.wire.invalidation_batches, 0u);
  EXPECT_EQ(oracle.wire.fetch_batches, 0u);
  EXPECT_EQ(oracle.wire.body_batches, 0u);
}

TEST(WireBatchTest, MatrixReductionMatchesOracle) {
  // Exact coefficients, F4-style batches. On this schedule a dequeued
  // pair's s-polynomial is zero (one basis element is a monomial multiple
  // of another); it used to enter the matrix as an empty row that the
  // elimination neither zeroed nor kept, and the run aborted.
  PolySystem sys = load_problem("katsura4");
  ParallelConfig cfg = batched_cfg(2);
  cfg.gb.matrix_reduce = true;
  expect_same_reduced(sys, groebner_parallel(sys, cfg).basis, reduced_reference(sys), "matrix");
}

class WireBatchChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireBatchChaosTest, ChaoticSchedulesReorderAndDuplicateBatches) {
  // Batched envelopes declared dup-safe: chaos may duplicate a whole
  // multi-id invalidation round or a bulk body reply, and reorder them
  // against everything else. The protocol invariants (replica coherence,
  // task conservation, termination safety) must hold on every sweep and the
  // answer must still be the canonical reduced basis.
  PolySystem sys = load_problem("trinks2");
  std::vector<Polynomial> ref = reduced_reference(sys);
  ParallelConfig cfg = batched_cfg(4, /*seed=*/GetParam());
  cfg.chaos.seed = GetParam();
  cfg.chaos.jitter = 40;
  cfg.chaos.reorder_permille = 250;
  cfg.chaos.reorder_window = 200;
  cfg.chaos.dup_permille = 250;  // dup_safe filled in by groebner_parallel
  cfg.check_invariants = true;
  cfg.invariant_period = 64;
  ParallelResult res = groebner_parallel(sys, cfg);
  EXPECT_TRUE(res.violations.empty()) << res.violations.front();
  EXPECT_GT(res.invariant_sweeps, 0u);
  expect_same_reduced(sys, res.basis, ref, "chaos seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireBatchChaosTest,
                         ::testing::Values(1, 7, 42, 1234, 99991));

}  // namespace
}  // namespace gbd
