// PairBook driven directly on hand-built heads: which screened or dropped
// pairs become citable by the chain criterion, and the queue's pair order.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "gb/pairs.hpp"

namespace gbd {
namespace {

PolyContext ctx3() { return PolyContext{{"x", "y", "z"}, OrderKind::kGrLex}; }

/// One basis element whose head is x^a y^b z^c.
Polynomial head(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return Polynomial::monomial(BigInt(1), Monomial({a, b, c}));
}

std::pair<std::uint32_t, std::uint32_t> ij(const PendingPair& p) { return {p.i, p.j}; }

TEST(PairBookTest, CoprimePairPoppedFromTheQueueIsTreated) {
  PolyContext ctx = ctx3();
  GbConfig cfg;
  GbStats stats;
  PairBook book(ctx, cfg, &stats);
  book.seed({head(1, 0, 0), head(0, 1, 0)});
  ASSERT_FALSE(book.empty());
  PendingPair p = book.pop();
  EXPECT_FALSE(book.screen(p));
  EXPECT_TRUE(book.is_treated(0, 1));
  EXPECT_EQ(stats.pairs_created, 1u);
  EXPECT_EQ(stats.pairs_pruned_coprime, 1u);
  EXPECT_EQ(stats.spolys_computed, 0u);
  EXPECT_TRUE(book.empty());
}

/// Heads xy, yz, y: y divides lcm(xy, yz) = xyz, so (0,1) is chain-prunable
/// once (0,2) and (1,2) are treated. Both of those have degree-2 lcms and
/// leave the queue before (0,1).
PairBook chain_book(const PolyContext& ctx, const GbConfig& cfg, GbStats* stats) {
  PairBook book(ctx, cfg, stats);
  book.seed({head(1, 1, 0), head(0, 1, 1), head(0, 1, 0)});
  return book;
}

TEST(PairBookTest, ChainPrunedPairIsNotTreated) {
  PolyContext ctx = ctx3();
  GbConfig cfg;
  GbStats stats;
  PairBook book = chain_book(ctx, cfg, &stats);
  for (int k = 0; k < 2; ++k) {
    PendingPair p = book.pop();
    ASSERT_NE(ij(p), std::make_pair(0u, 1u));
    ASSERT_TRUE(book.screen(p));
    book.treated(p.i, p.j);  // reduced one at a time, as the per-poly loop does
  }
  PendingPair p = book.pop();
  ASSERT_EQ(ij(p), std::make_pair(0u, 1u));
  EXPECT_FALSE(book.screen(p));
  EXPECT_FALSE(book.is_treated(0, 1));
  EXPECT_EQ(stats.pairs_pruned_chain, 1u);
  EXPECT_EQ(stats.spolys_computed, 2u);
  EXPECT_EQ(stats.pairs_created,
            stats.pairs_pruned_coprime + stats.pairs_pruned_chain + stats.spolys_computed);
}

TEST(PairBookTest, BatchRoundCannotCiteItsOwnPairs) {
  // A matrix round screens its whole batch before the elimination and marks
  // it treated only afterwards: until then no pair of the round is citable.
  PolyContext ctx = ctx3();
  GbConfig cfg;
  GbStats stats;
  PairBook book = chain_book(ctx, cfg, &stats);
  std::vector<PendingPair> batch;
  while (!book.empty()) {
    PendingPair p = book.pop();
    if (book.screen(p)) batch.push_back(std::move(p));
  }
  EXPECT_EQ(batch.size(), 3u) << "(0,1) must survive: (0,2) and (1,2) are not treated yet";
  EXPECT_EQ(stats.pairs_pruned_chain, 0u);
  for (const PendingPair& p : batch) book.treated(p.i, p.j);
  EXPECT_TRUE(book.is_treated(0, 1));
}

TEST(PairBookTest, GmCoprimeDropIsTreatedAndMDropIsNot) {
  // Inputs x and xy^2, then y joins. lcm(x, y) = xy strictly divides
  // lcm(xy^2, y) = xy^2, so M drops (1,2); (0,2) is dropped as coprime.
  PolyContext ctx = ctx3();
  GbConfig cfg;
  GbStats stats;
  PairBook book(ctx, cfg, &stats);
  book.seed({head(1, 0, 0), head(1, 2, 0)});
  book.add(head(0, 1, 0), 1);
  EXPECT_TRUE(book.is_treated(0, 2)) << "coprime drop is grounded by criterion 1";
  EXPECT_FALSE(book.is_treated(1, 2)) << "an M drop must stay uncitable";
  EXPECT_EQ(stats.pairs_created, 3u);
  EXPECT_EQ(stats.pairs_pruned_coprime, 1u);
  EXPECT_EQ(stats.pairs_pruned_chain, 1u);
  // Only the input pair is left in the queue.
  PendingPair p = book.pop();
  EXPECT_EQ(ij(p), std::make_pair(0u, 1u));
  EXPECT_TRUE(book.empty());
}

TEST(PairBookTest, WithoutGmEveryNewPairIsQueued) {
  PolyContext ctx = ctx3();
  GbConfig cfg;
  cfg.gm_update = false;
  GbStats stats;
  PairBook book(ctx, cfg, &stats);
  book.seed({head(1, 0, 0), head(1, 2, 0)});
  book.add(head(0, 1, 0), 1);
  EXPECT_EQ(stats.pairs_created, 3u);
  EXPECT_EQ(stats.pairs_pruned_coprime + stats.pairs_pruned_chain, 0u);
  EXPECT_FALSE(book.is_treated(0, 2));
  int queued = 0;
  while (!book.empty()) {
    book.pop();
    ++queued;
  }
  EXPECT_EQ(queued, 3);
}

TEST(PairBookTest, FifoPopsInputPairsInCreationOrder) {
  // Heads whose lcm order differs from creation order: under kFifo the
  // input pairs still leave as (0,1), (0,2), ..., (1,2), ...
  PolyContext ctx = ctx3();
  GbConfig cfg;
  cfg.selection = Selection::kFifo;
  GbStats stats;
  PairBook book(ctx, cfg, &stats);
  book.seed({head(3, 0, 0), head(0, 2, 1), head(1, 1, 0), head(0, 0, 1)});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
  while (!book.empty()) got.push_back(ij(book.pop()));
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(got, want);

  // The same heads under the normal strategy leave in lcm order instead.
  GbConfig normal;
  GbStats stats2;
  PairBook by_lcm(ctx, normal, &stats2);
  by_lcm.seed({head(3, 0, 0), head(0, 2, 1), head(1, 1, 0), head(0, 0, 1)});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lcm_order;
  while (!by_lcm.empty()) lcm_order.push_back(ij(by_lcm.pop()));
  EXPECT_NE(lcm_order, want);
}

TEST(PairBookTest, AddedElementInheritsSugarIntoItsPairs) {
  // Sugar selection: an input's sugar is its total degree, and a pair's is
  // max over both sides of sugar + deg(lcm / head).
  PolyContext ctx = ctx3();
  GbConfig cfg;
  cfg.gm_update = false;
  cfg.selection = Selection::kSugar;
  GbStats stats;
  PairBook book(ctx, cfg, &stats);
  Polynomial f = Polynomial::from_terms(
      ctx, {Term{BigInt(1), Monomial({1, 0, 0})}, Term{BigInt(1), Monomial({0, 0, 3})}});
  book.seed({f, head(0, 1, 0)});  // f = x + z^3 under grlex has head z^3
  ASSERT_TRUE(book.heads()[0] == Monomial({0, 0, 3}));
  PendingPair p = book.pop();
  EXPECT_EQ(p.sugar, 4u);  // max(3 + 1, 1 + 3)
  book.add(head(1, 0, 0), 7);
  PendingPair q = book.pop();
  EXPECT_EQ(ij(q), std::make_pair(1u, 2u));  // lowest sugar: max(1 + 1, 7 + 1) = 8
  EXPECT_EQ(q.sugar, 8u);
}

}  // namespace
}  // namespace gbd
