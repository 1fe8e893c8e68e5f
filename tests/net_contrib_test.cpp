// Round trip of the per-rank contribution codec (net/net_engine.hpp), in
// process and without sockets: each rank of a simulated GL-P run is cut out
// as the partial result a SocketMachine rank would hold, encoded, and merged
// at "rank 0" exactly as groebner_parallel_socket does. The merge must
// rebuild the algebra totals, the BasisStats totals (max_resident as a max)
// and the added bodies, and the decoder must refuse a blob of another
// format version — it reads bytes that come from peer processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gb/parallel.hpp"
#include "net/net_engine.hpp"
#include "problems/problems.hpp"

namespace gbd {
namespace {

constexpr int kRanks = 3;

/// Rank r's BasisStats, distinct per rank so sums and maxes are visible.
BasisStats rank_wire(int r) {
  BasisStats b;
  b.invalidations_sent = 10 + static_cast<std::uint64_t>(r);
  b.fetches_sent = 20 + static_cast<std::uint64_t>(r);
  b.bodies_received = 30 + static_cast<std::uint64_t>(r);
  b.bodies_served = 40 + static_cast<std::uint64_t>(r);
  b.bodies_forwarded = 50 + static_cast<std::uint64_t>(r);
  b.evictions = 60 + static_cast<std::uint64_t>(r);
  b.max_resident = r == 1 ? 99 : 7 + static_cast<std::size_t>(r);
  b.invalidation_batches = 70 + static_cast<std::uint64_t>(r);
  b.fetch_batches = 80 + static_cast<std::uint64_t>(r);
  b.body_batches = 90 + static_cast<std::uint64_t>(r);
  return b;
}

/// What rank r of a socket run holds after the engine returns: its own
/// per_proc slot, its own store's counters, the inputs and its own adds.
ParallelResult rank_partial(const ParallelResult& full, std::size_t input_count, int r) {
  ParallelResult part;
  part.per_proc.resize(full.per_proc.size());
  part.per_proc[static_cast<std::size_t>(r)] = full.per_proc[static_cast<std::size_t>(r)];
  part.stats = full.per_proc[static_cast<std::size_t>(r)];
  part.wire = rank_wire(r);
  part.invariant_sweeps = 1;
  part.violations.push_back("rank " + std::to_string(r));
  for (const auto& [id, poly] : full.basis_ids) {
    const bool input = poly_id_owner(id) == 0 && poly_id_seq(id) < input_count;
    if (input || poly_id_owner(id) == r) part.basis_ids.emplace_back(id, poly);
  }
  return part;
}

TEST(RankContributionTest, MergeRebuildsTheSingleProcessResult) {
  PolySystem sys = load_problem("trinks2");
  ParallelConfig cfg;
  cfg.nprocs = kRanks;
  ParallelResult full = groebner_parallel(sys, cfg);
  const std::size_t input_count = sys.polys.size();

  ParallelResult total = rank_partial(full, input_count, 0);
  for (int r = 1; r < kRanks; ++r) {
    merge_rank_contribution(&total,
                            encode_rank_contribution(r, input_count,
                                                     rank_partial(full, input_count, r)));
  }

  // Algebra: per-rank slots and their merge.
  for (std::size_t r = 0; r < full.per_proc.size(); ++r) {
    EXPECT_EQ(total.per_proc[r].spolys_computed, full.per_proc[r].spolys_computed) << r;
    EXPECT_EQ(total.per_proc[r].work_units, full.per_proc[r].work_units) << r;
  }
  EXPECT_EQ(total.stats.pairs_created, full.stats.pairs_created);
  EXPECT_EQ(total.stats.pairs_pruned_coprime, full.stats.pairs_pruned_coprime);
  EXPECT_EQ(total.stats.pairs_pruned_chain, full.stats.pairs_pruned_chain);
  EXPECT_EQ(total.stats.spolys_computed, full.stats.spolys_computed);
  EXPECT_EQ(total.stats.reductions_to_zero, full.stats.reductions_to_zero);
  EXPECT_EQ(total.stats.basis_added, full.stats.basis_added);
  EXPECT_EQ(total.stats.reduction_steps, full.stats.reduction_steps);
  EXPECT_EQ(total.stats.max_step_cost, full.stats.max_step_cost);
  EXPECT_EQ(total.stats.work_units, full.stats.work_units);

  // BasisStats: traffic summed over ranks, residency the peak.
  BasisStats want;
  for (int r = 0; r < kRanks; ++r) {
    const BasisStats b = rank_wire(r);
    want.invalidations_sent += b.invalidations_sent;
    want.fetches_sent += b.fetches_sent;
    want.bodies_received += b.bodies_received;
    want.bodies_served += b.bodies_served;
    want.bodies_forwarded += b.bodies_forwarded;
    want.evictions += b.evictions;
    want.invalidation_batches += b.invalidation_batches;
    want.fetch_batches += b.fetch_batches;
    want.body_batches += b.body_batches;
  }
  EXPECT_EQ(total.wire.invalidations_sent, want.invalidations_sent);
  EXPECT_EQ(total.wire.fetches_sent, want.fetches_sent);
  EXPECT_EQ(total.wire.bodies_received, want.bodies_received);
  EXPECT_EQ(total.wire.bodies_served, want.bodies_served);
  EXPECT_EQ(total.wire.bodies_forwarded, want.bodies_forwarded);
  EXPECT_EQ(total.wire.evictions, want.evictions);
  EXPECT_EQ(total.wire.max_resident, 99u);
  EXPECT_EQ(total.wire.invalidation_batches, want.invalidation_batches);
  EXPECT_EQ(total.wire.fetch_batches, want.fetch_batches);
  EXPECT_EQ(total.wire.body_batches, want.body_batches);

  // Invariant findings travel too.
  EXPECT_EQ(total.invariant_sweeps, static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(total.violations.size(), static_cast<std::size_t>(kRanks));

  // Bodies: every added polynomial arrives once, under its id; inputs are
  // preloaded everywhere and never sent.
  std::sort(total.basis_ids.begin(), total.basis_ids.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  ASSERT_EQ(total.basis_ids.size(), full.basis_ids.size());
  for (std::size_t i = 0; i < full.basis_ids.size(); ++i) {
    EXPECT_EQ(total.basis_ids[i].first, full.basis_ids[i].first) << i;
    EXPECT_TRUE(total.basis_ids[i].second.equals(full.basis_ids[i].second)) << i;
  }
}

TEST(RankContributionDeathTest, OtherFormatVersionAborts) {
  PolySystem sys = load_problem("arnborg4");
  ParallelConfig cfg;
  cfg.nprocs = 2;
  ParallelResult full = groebner_parallel(sys, cfg);
  std::vector<std::uint8_t> blob =
      encode_rank_contribution(1, sys.polys.size(), rank_partial(full, sys.polys.size(), 1));
  ASSERT_EQ(blob.at(0), 2u) << "format version";
  for (std::uint8_t version : {std::uint8_t{1}, std::uint8_t{3}}) {
    blob[0] = version;
    ParallelResult total = rank_partial(full, sys.polys.size(), 0);
    EXPECT_DEATH(merge_rank_contribution(&total, blob), "version mismatch");
  }
}

}  // namespace
}  // namespace gbd
