// Differential coverage for the batched F4-style matrix reduction path
// (poly/symbolic + poly/matrix + poly/echelon and its engine wiring):
//
//   · per-row normal forms: reduce_batch with interreduce off must reproduce
//     the per-poly geobucket oracle (reduce_full, tail_reduce) bit-for-bit —
//     including which rows die — across random systems × orderings ×
//     {exact, three primes}. This is the bit-identity claim of echelon.hpp:
//     symbolic preprocessing delegates reducer *choice* to the same
//     ReducerSet::find_reducer, and the kernel performs the identical
//     fraction-free (resp. modular-inverse) cancellation steps;
//   · whole runs: the sequential engine with matrix_reduce on must reach the
//     same reduced basis as the per-poly path on the benchmark corpus, over
//     Q and over Zp, for small batch caps (many rounds) and a threaded
//     elimination kernel (thread count must not change results);
//   · the GL-P engine under chaos: batching changes *when* replicas are
//     polled (never during a matrix round — the frame holds pointers into
//     replica storage), so the protocol invariants get their own sweep;
//   · the multi-modular driver passes matrix_reduce through to its per-prime
//     jobs and still reconstructs the exact rational answer;
//   · the run table and stage 2 on columns: frames from one table kept for a
//     whole run equal frames from a fresh table every round, and the
//     column-space stage 2 equals the polynomial-level oracle;
//   · s-pair rows: reduce_pairs, which builds each row from its pair's two
//     halves, equals reduce_batch over the pairs' s-polynomials row for row;
//   · charges from counts: every Zp matrix charges DESIGN.md §20's formula
//     on its own counts.
#include "poly/echelon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bigint/zp.hpp"
#include "gb/modular.hpp"
#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "io/parse.hpp"
#include "machine/chaos.hpp"
#include "machine/thread_machine.hpp"
#include "poly/coeff.hpp"
#include "poly/reduce.hpp"
#include "poly/simd.hpp"
#include "poly/spoly.hpp"
#include "problems/problems.hpp"
#include "oracles.hpp"
#include "simd_env.hpp"
#include "support/cost.hpp"
#include "support/rng.hpp"

namespace gbd {
namespace {

/// Three moduli of very different sizes: a 31-bit engine-sized prime, a
/// 20-bit one, and a small prime where coefficient collisions (rows dying
/// mod p that survive over Q) are common.
const std::uint64_t kPrimes[] = {prev_prime_u64(std::uint64_t{1} << 31),
                                 prev_prime_u64(std::uint64_t{1} << 20), prev_prime_u64(40000)};

/// Rebuild a system under a different monomial order (terms re-sorted;
/// content untouched, so primitivity survives). The elimination order
/// eliminates the first half of the variables.
PolySystem with_order(const PolySystem& sys, OrderKind order) {
  PolySystem out;
  out.name = sys.name;
  out.ctx = sys.ctx;
  out.ctx.order = order;
  if (order == OrderKind::kElim) out.ctx.elim_vars = out.ctx.nvars() / 2;
  for (const auto& p : sys.polys) {
    std::vector<Term> terms(p.terms().begin(), p.terms().end());
    out.polys.push_back(Polynomial::from_terms(out.ctx, std::move(terms)));
  }
  return out;
}

/// Canonical nonzero image of a generating set for `coeff` (reduce_batch and
/// spoly both require canonical inputs; over a small prime a generator can
/// vanish entirely).
std::vector<Polynomial> canonical_set(const PolyContext& ctx, const std::vector<Polynomial>& in,
                                      const CoeffOptions& coeff) {
  std::vector<Polynomial> out;
  for (const auto& p : in) {
    Polynomial q = p;
    coeff_normalize(ctx, &q, coeff);
    if (!q.is_zero()) out.push_back(std::move(q));
  }
  return out;
}

/// Every nonzero S-polynomial of a non-coprime pair of `set`, in (i, j) order.
std::vector<Polynomial> pair_spolys(const PolyContext& ctx, const std::vector<Polynomial>& set,
                                    const CoeffOptions& coeff) {
  std::vector<Polynomial> rows;
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (Monomial::coprime(set[i].hmono(), set[j].hmono())) continue;
      Polynomial s = spoly(ctx, set[i], set[j], coeff);
      if (!s.is_zero()) rows.push_back(std::move(s));
    }
  }
  return rows;
}

/// The differential core: every pairwise non-coprime S-polynomial of
/// `reducers` goes through the matrix as one batch; each surviving row must
/// equal the per-poly tail-reduced normal form exactly, and src_zeroed must
/// flag exactly the rows whose oracle normal form is zero.
void expect_matrix_matches_per_poly(const PolyContext& ctx,
                                    const std::vector<Polynomial>& reducers,
                                    const CoeffOptions& coeff, const std::string& label) {
  VectorReducerSet set(&reducers);
  std::vector<Polynomial> rows = pair_spolys(ctx, reducers, coeff);
  if (rows.empty()) return;

  ReduceOptions ropts;
  ropts.tail_reduce = true;
  ropts.coeff = coeff;
  std::vector<Polynomial> oracle;
  oracle.reserve(rows.size());
  for (const auto& r : rows) oracle.push_back(reduce_full(ctx, r, set, ropts).poly);

  EchelonOptions eopts;
  eopts.coeff = coeff;
  eopts.interreduce = false;  // one output row per input row, no D-block mixing
  EchelonOutput out = reduce_batch(ctx, rows, set, eopts);

  ASSERT_EQ(out.src_zeroed.size(), rows.size()) << label;
  std::size_t next = 0;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    if (oracle[s].is_zero()) {
      EXPECT_TRUE(out.src_zeroed[s]) << label << " row " << s << ": matrix kept a row the "
                                     << "per-poly path reduces to zero";
      continue;
    }
    ASSERT_LT(next, out.rows.size()) << label << " row " << s << ": matrix zeroed a surviving row";
    ASSERT_EQ(out.rows[next].src, s) << label;
    EXPECT_FALSE(out.src_zeroed[s]) << label << " row " << s;
    EXPECT_TRUE(out.rows[next].poly.equals(oracle[s]))
        << label << " row " << s << "\n  matrix: " << out.rows[next].poly.to_string(ctx)
        << "\n  oracle: " << oracle[s].to_string(ctx);
    ++next;
  }
  EXPECT_EQ(next, out.rows.size()) << label << ": matrix produced extra rows";
}

TEST(MatrixNormalFormTest, RandomSystemsAcrossOrderingsAndFields) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    PolySystem base = random_system(rng, 4, 6, 4, 5, 8);
    for (OrderKind order : {OrderKind::kGrLex, OrderKind::kGRevLex, OrderKind::kLex}) {
      PolySystem sys = with_order(base, order);
      std::string where =
          "seed " + std::to_string(seed) + " order " + order_name(order);
      expect_matrix_matches_per_poly(sys.ctx, canonical_set(sys.ctx, sys.polys, {}),
                                     CoeffOptions{}, where + " exact");
      for (std::uint64_t p : kPrimes) {
        CoeffOptions zp = CoeffOptions::zp(p);
        expect_matrix_matches_per_poly(sys.ctx, canonical_set(sys.ctx, sys.polys, zp), zp,
                                       where + " mod " + std::to_string(p));
      }
    }
  }
}

TEST(MatrixNormalFormTest, CorpusGenerators) {
  // The real benchmark inputs exercise deeper reduction chains (transitive
  // symbolic closure) than the random systems do.
  for (const char* name : {"arnborg4", "katsura4", "trinks2"}) {
    PolySystem sys = load_problem(name);
    expect_matrix_matches_per_poly(sys.ctx, canonical_set(sys.ctx, sys.polys, {}),
                                   CoeffOptions{}, std::string(name) + " exact");
    CoeffOptions zp = CoeffOptions::zp(kPrimes[0]);
    expect_matrix_matches_per_poly(sys.ctx, canonical_set(sys.ctx, sys.polys, zp), zp,
                                   std::string(name) + " zp");
  }
}

/// Run the sequential engine both ways and compare canonical reduced bases.
void expect_equal_reduced_basis(const PolySystem& sys, const CoeffOptions& coeff,
                                std::size_t batch_max) {
  GbConfig per_poly;
  per_poly.coeff = coeff;
  GbConfig matrix = per_poly;
  matrix.matrix_reduce = true;
  matrix.matrix_batch_max = batch_max;

  SequentialResult a = groebner_sequential(sys, per_poly);
  SequentialResult b = groebner_sequential(sys, matrix);
  std::vector<Polynomial> ga = reduce_basis(sys.ctx, a.basis, coeff);
  std::vector<Polynomial> gb = reduce_basis(sys.ctx, b.basis, coeff);
  std::string label = sys.name + " batch_max " + std::to_string(batch_max);
  ASSERT_EQ(ga.size(), gb.size()) << label;
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_TRUE(ga[i].equals(gb[i])) << label << " element " << i;
  }
}

TEST(MatrixSequentialTest, CorpusReducedBasesMatchExact) {
  for (const char* name : {"arnborg4", "katsura4", "trinks2", "rose"}) {
    expect_equal_reduced_basis(load_problem(name), CoeffOptions{}, 64);
  }
}

TEST(MatrixSequentialTest, CorpusReducedBasesMatchZp) {
  for (const char* name : {"arnborg4", "katsura4", "trinks1", "rose"}) {
    for (std::uint64_t p : {kPrimes[0], kPrimes[2]}) {
      expect_equal_reduced_basis(load_problem(name), CoeffOptions::zp(p), 64);
    }
  }
}

TEST(MatrixSequentialTest, TinyBatchesDoNotChangeResults) {
  // batch_max 2 and 3 force many small rounds (frame reuse across degrees).
  PolySystem sys = load_problem("katsura4");
  expect_equal_reduced_basis(sys, CoeffOptions{}, 2);
  expect_equal_reduced_basis(sys, CoeffOptions::zp(kPrimes[0]), 2);
  expect_equal_reduced_basis(load_problem("arnborg4"), CoeffOptions::zp(kPrimes[2]), 3);
}

TEST(MatrixSequentialTest, ParametricFamiliesMatch) {
  // Generated (not table-text) inputs, one size beyond the builtin corpus.
  expect_equal_reduced_basis(load_problem("katsura(5)"), CoeffOptions::zp(kPrimes[0]), 64);
  expect_equal_reduced_basis(load_problem("cyclic(5)"), CoeffOptions::zp(kPrimes[0]), 64);
}

TEST(MatrixGlpTest, SimMatchesSequentialOracle) {
  for (const char* name : {"arnborg4", "katsura4"}) {
    PolySystem sys = load_problem(name);
    for (bool use_zp : {false, true}) {
      CoeffOptions coeff = use_zp ? CoeffOptions::zp(kPrimes[0]) : CoeffOptions{};
      GbConfig seq;
      seq.coeff = coeff;
      std::vector<Polynomial> want =
          reduce_basis(sys.ctx, groebner_sequential(sys, seq).basis, coeff);

      ParallelConfig cfg;
      cfg.gb.coeff = coeff;
      cfg.gb.matrix_reduce = true;
      cfg.gb.matrix_batch_max = 8;
      cfg.nprocs = 4;
      cfg.seed = 3;
      cfg.check_invariants = true;
      ParallelResult res = groebner_parallel(sys, cfg);
      EXPECT_TRUE(res.violations.empty())
          << name << (use_zp ? " zp: " : " exact: ")
          << (res.violations.empty() ? "" : res.violations.front());
      EXPECT_GT(res.invariant_sweeps, 0u);
      std::vector<Polynomial> got = reduce_basis(sys.ctx, res.basis, coeff);
      ASSERT_EQ(got.size(), want.size()) << name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].equals(want[i])) << name << " element " << i;
      }
    }
  }
}

// Charged cost units are the simulated machine's clock, so kernel changes
// that keep the matrix path's counts must not move them. These figures were
// recorded when the matrix path moved to charges from counts (DESIGN.md
// §20); they hold with SIMD dispatch on or off, and for any prime (the
// charges count cells and terms, not values).
TEST(MatrixCostParityTest, ChargedUnitsArePinned) {
  {
    GbConfig cfg;
    cfg.coeff = CoeffOptions::zp(kPrimes[0]);
    cfg.matrix_reduce = true;
    SequentialResult r = groebner_sequential(load_problem("katsura(5)"), cfg);
    EXPECT_EQ(r.stats.work_units, 476719u);
    EXPECT_EQ(r.elapsed_units, 476719u);
  }
  {
    ParallelConfig cfg;
    cfg.nprocs = 4;
    cfg.gb.coeff = CoeffOptions::zp(kPrimes[0]);
    cfg.gb.matrix_reduce = true;
    ParallelResult r = groebner_parallel(load_problem("katsura(5)"), cfg);
    EXPECT_EQ(r.stats.work_units, 7433825u);
    EXPECT_EQ(r.elapsed_units, 2962102u);
  }
  {
    // The exact sweep reads pivot products straight from the frame and
    // charges per step; its symbolic layer and build charge from counts.
    ParallelConfig cfg;
    cfg.nprocs = 4;
    cfg.gb.matrix_reduce = true;
    ParallelResult r = groebner_parallel(load_problem("katsura4"), cfg);
    EXPECT_EQ(r.stats.work_units, 11250472u);
    EXPECT_EQ(r.elapsed_units, 6140860u);
  }
}

TEST(MatrixGlpTest, ChaosScheduleStaysCoherent) {
  // Full-intensity schedule adversary: jitter, reordering, duplication of
  // the idempotent handlers, starvation. Matrix rounds must neither serve
  // the network mid-frame (pointer stability) nor break protocol
  // invariants, and the answer must still be the oracle's.
  PolySystem sys = load_problem("arnborg4");
  CoeffOptions coeff = CoeffOptions::zp(kPrimes[0]);
  GbConfig seq;
  seq.coeff = coeff;
  std::vector<Polynomial> want =
      reduce_basis(sys.ctx, groebner_sequential(sys, seq).basis, coeff);

  for (std::uint64_t chaos_seed : {11u, 12u}) {
    ParallelConfig cfg;
    cfg.gb.coeff = coeff;
    cfg.gb.matrix_reduce = true;
    cfg.gb.matrix_batch_max = 4;
    cfg.nprocs = 4;
    cfg.seed = 1;
    cfg.chaos = ChaosConfig::intensity(3, chaos_seed);
    cfg.check_invariants = true;
    ParallelResult res = groebner_parallel(sys, cfg);
    EXPECT_TRUE(res.violations.empty())
        << "chaos seed " << chaos_seed << ": "
        << (res.violations.empty() ? "" : res.violations.front());
    EXPECT_GT(res.invariant_sweeps, 0u);
    std::vector<Polynomial> got = reduce_basis(sys.ctx, res.basis, coeff);
    ASSERT_EQ(got.size(), want.size()) << "chaos seed " << chaos_seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].equals(want[i])) << "chaos seed " << chaos_seed << " element " << i;
    }
  }
}

// ——— Vectorized sweep, dispatch pinning, frame memo ———

TEST(SimdDispatchTest, EnvVarForcesScalarAndBack) {
  {
    ScopedSimdEnv force("1");
    EXPECT_EQ(simd_level(), SimdLevel::kScalar);
  }
  {
    ScopedSimdEnv clear(nullptr);
    SimdLevel native = simd_level();
#if defined(__x86_64__) && !defined(GBD_DISABLE_SIMD)
    EXPECT_EQ(native, cpu_has_avx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar);
#else
    EXPECT_EQ(native, SimdLevel::kScalar);
#endif
  }
}

TEST(SimdKernelTest, DelayedAxpyLanesMatchWideOracle) {
  // Edge moduli for the overflow-budget proof: the smallest legal field,
  // the Mersenne prime 2^31−1, and the largest SIMD-eligible prime below
  // 2^32 (products graze the top of the 64-bit lane).
  for (std::uint64_t p : {std::uint64_t{3}, (std::uint64_t{1} << 31) - 1,
                          prev_prime_u64(std::uint64_t{1} << 32)}) {
    ZpField field(p);
    ASSERT_TRUE(field.delayed_reduction_ok());
    const std::uint64_t r64 = field.r_mod_p();
    Rng rng(7 + p);
    const std::size_t ncols = 37;
    const std::size_t ncells = kSweepLanes * ncols;
    std::vector<std::uint64_t> lanes(ncells), lanes_scalar(ncells);
    std::vector<std::uint64_t> want(ncells);  // true residues, tracked alongside
    for (std::size_t i = 0; i < ncells; ++i) {
      lanes[i] = rng.next();  // arbitrary u64 starting point
      lanes_scalar[i] = lanes[i];
      want[i] = lanes[i] % p;
    }
    // Many unnormalized updates in a row: lanes wander the full 64-bit
    // range and wrap repeatedly — exactly the regime the proof covers.
    for (int round = 0; round < 64; ++round) {
      std::vector<std::uint32_t> cols, coeffs;  // a scattered pivot tail
      for (std::uint32_t c = 0; c < ncols; ++c) {
        if (rng.below(3) == 0) continue;
        cols.push_back(c);
        coeffs.push_back(static_cast<std::uint32_t>(rng.below(p)));
      }
      std::uint64_t fneg[kSweepLanes];
      for (std::uint64_t& f : fneg) f = rng.below(4) == 0 ? 0 : p - (1 + rng.below(p - 1));
      for (std::size_t j = 0; j < cols.size(); ++j) {
        for (std::size_t r = 0; r < kSweepLanes; ++r) {
          std::uint64_t& w = want[kSweepLanes * cols[j] + r];
          unsigned __int128 t = static_cast<unsigned __int128>(fneg[r]) * coeffs[j] + w;
          w = static_cast<std::uint64_t>(t % p);
        }
      }
      zp_axpy_lanes(lanes.data(), cols.data(), coeffs.data(), cols.size(), fneg, r64,
                    simd_level());
      zp_axpy_lanes(lanes_scalar.data(), cols.data(), coeffs.data(), cols.size(), fneg, r64,
                    SimdLevel::kScalar);
    }
    for (std::size_t i = 0; i < ncells; ++i) {
      // The two levels perform the identical lane arithmetic: raw 64-bit
      // lanes agree bit for bit, and both are congruent to the oracle.
      EXPECT_EQ(lanes[i], lanes_scalar[i]) << "p " << p << " cell " << i;
      EXPECT_EQ(lanes[i] % p, want[i]) << "p " << p << " cell " << i;
    }
  }
}

TEST(SimdDifferentialTest, ForcedScalarAndAutoDispatchAgreeRowForRow) {
  // Whole-kernel differential: reduce_batch under pinned-scalar dispatch
  // against automatic dispatch, row for row, across field sizes including
  // one past the delayed-reduction bound (2^62: auto dispatch itself must
  // fall back to the Montgomery kernel).
  const std::uint64_t primes[] = {3, (std::uint64_t{1} << 31) - 1,
                                  prev_prime_u64(std::uint64_t{1} << 32),
                                  prev_prime_u64(std::uint64_t{1} << 62)};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    PolySystem sys = random_system(rng, 4, 6, 4, 5, 8);
    for (std::uint64_t p : primes) {
      CoeffOptions zp = CoeffOptions::zp(p);
      std::vector<Polynomial> reducers = canonical_set(sys.ctx, sys.polys, zp);
      VectorReducerSet set(&reducers);
      std::vector<Polynomial> rows = pair_spolys(sys.ctx, reducers, zp);
      if (rows.empty()) continue;
      EchelonOptions opts;
      opts.coeff = zp;
      EchelonOutput a = reduce_batch(sys.ctx, rows, set, opts);
      EchelonOutput b;
      {
        ScopedSimdEnv scalar("1");
        b = reduce_batch(sys.ctx, rows, set, opts);
      }
      std::string label = "seed " + std::to_string(seed) + " mod " + std::to_string(p);
      ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
      EXPECT_EQ(a.src_zeroed, b.src_zeroed) << label;
      for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].src, b.rows[i].src) << label;
        EXPECT_TRUE(a.rows[i].poly.equals(b.rows[i].poly)) << label << " row " << i;
      }
    }
  }
}

/// `inner`, except that `kept` is irreducible. Reducing a monic row with
/// head `kept` against it keeps the head and tail-reduces the rest: the
/// per-poly oracle for one row of reduce_tails.
class KeepHeadSet final : public ReducerSet {
 public:
  KeepHeadSet(const ReducerSet& inner, Monomial kept) : inner_(inner), kept_(std::move(kept)) {}
  const Polynomial* find_reducer(const Monomial& m, std::uint64_t* out_id) const override {
    return m == kept_ ? nullptr : inner_.find_reducer(m, out_id);
  }

 private:
  const ReducerSet& inner_;
  Monomial kept_;
};

/// Two dispatch runs of the same batch agree exactly.
void expect_same_output(const EchelonOutput& a, const EchelonOutput& b, const std::string& label) {
  EXPECT_EQ(a.src_zeroed, b.src_zeroed) << label;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].src, b.rows[i].src) << label << " row " << i;
    EXPECT_TRUE(a.rows[i].poly.equals(b.rows[i].poly)) << label << " row " << i;
  }
}

TEST(BlockSweepTest, BlockBoundariesMatchOracleUnderEveryDispatch) {
  // The block sweep packs the nonempty rows kSweepLanes at a time, so
  // batches of 1–9 rows with empty rows between them give full and partial
  // blocks whose lanes start at different heads. Automatic dispatch,
  // pinned-scalar lanes and the per-poly oracle must agree row for row, in
  // both sweep modes; the last prime takes the Montgomery row sweep instead.
  const std::uint64_t primes[] = {3, (std::uint64_t{1} << 31) - 1,
                                  prev_prime_u64(std::uint64_t{1} << 32),
                                  prev_prime_u64(std::uint64_t{1} << 62)};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    PolySystem sys = [&] {
      Rng rng(seed);
      return random_system(rng, 4, 6, 4, 5, 8);
    }();
    for (std::uint64_t p : primes) {
      const CoeffOptions zp = CoeffOptions::zp(p);
      const ZpField field(p);
      std::vector<Polynomial> reducers = canonical_set(sys.ctx, sys.polys, zp);
      VectorReducerSet set(&reducers);
      // Rows with heads all over the frame: the s-polynomials, and the
      // reducers themselves (which reduce to zero).
      std::vector<Polynomial> pool = pair_spolys(sys.ctx, reducers, zp);
      pool.insert(pool.end(), reducers.begin(), reducers.end());
      Rng rng(seed * 31 + p);
      for (std::size_t k = 1; k <= 9; ++k) {
        std::vector<Polynomial> rows, monic;
        while (monic.size() < k) {
          if (rng.below(3) == 0) rows.emplace_back();  // an empty work row
          Polynomial r = pool[rng.below(pool.size())];
          rows.push_back(r);
          r.make_monic(field);
          monic.push_back(std::move(r));
        }
        ReduceOptions ropts;
        ropts.tail_reduce = true;
        ropts.coeff = zp;
        const std::string label = "seed " + std::to_string(seed) + " mod " +
                                  std::to_string(p) + " rows " + std::to_string(k);
        EchelonOptions opts;
        opts.coeff = zp;
        opts.interreduce = false;  // one output row per input row
        EchelonOutput got = reduce_batch(sys.ctx, rows, set, opts);
        std::vector<Polynomial> tails = reduce_tails(sys.ctx, monic, set, opts);
        {
          ScopedSimdEnv scalar("1");
          expect_same_output(got, reduce_batch(sys.ctx, rows, set, opts), label + " scalar");
          std::vector<Polynomial> tails_scalar = reduce_tails(sys.ctx, monic, set, opts);
          ASSERT_EQ(tails.size(), tails_scalar.size()) << label;
          for (std::size_t i = 0; i < tails.size(); ++i) {
            EXPECT_TRUE(tails[i].equals(tails_scalar[i])) << label << " tails scalar " << i;
          }
        }

        ASSERT_EQ(got.src_zeroed.size(), rows.size()) << label;
        std::size_t next = 0;
        for (std::size_t s = 0; s < rows.size(); ++s) {
          const Polynomial want = reduce_full(sys.ctx, rows[s], set, ropts).poly;
          if (want.is_zero()) {
            // An empty work row is not "eliminated": it had nothing to lose.
            EXPECT_EQ(got.src_zeroed[s], !rows[s].is_zero()) << label << " row " << s;
            continue;
          }
          EXPECT_FALSE(got.src_zeroed[s]) << label << " row " << s;
          ASSERT_LT(next, got.rows.size()) << label << " row " << s;
          EXPECT_EQ(got.rows[next].src, s) << label;
          EXPECT_TRUE(got.rows[next].poly.equals(want)) << label << " row " << s;
          ++next;
        }
        EXPECT_EQ(next, got.rows.size()) << label;

        ASSERT_EQ(tails.size(), monic.size()) << label;
        for (std::size_t i = 0; i < monic.size(); ++i) {
          KeepHeadSet keep(set, monic[i].hmono());
          EXPECT_TRUE(tails[i].equals(reduce_full(sys.ctx, monic[i], keep, ropts).poly))
              << label << " tails row " << i;
        }
      }
    }
  }
}

TEST(MatrixSequentialTest, ForcedScalarMatchesAutoDispatchAndMemoEngages) {
  PolySystem sys = load_problem("katsura4");
  CoeffOptions zp = CoeffOptions::zp(kPrimes[0]);
  GbConfig cfg;
  cfg.coeff = zp;
  cfg.matrix_reduce = true;

  const MatrixKernelStats& ks = matrix_kernel_stats();
  const std::uint64_t hits_before = ks.memo_hits;
  const std::uint64_t simd_before = ks.simd_rows;
  SequentialResult a = groebner_sequential(sys, cfg);
  // Adjacent-degree rounds share closure monomials: the frame memo must
  // actually fire, not just exist.
  EXPECT_GT(ks.memo_hits, hits_before);
  if (simd_level() != SimdLevel::kScalar) {
    EXPECT_GT(ks.simd_rows, simd_before) << "host dispatches vector but kernel ran scalar";
  }

  const std::uint64_t scalar_rows_before = ks.scalar_rows;
  SequentialResult b;
  {
    ScopedSimdEnv scalar("1");
    b = groebner_sequential(sys, cfg);
  }
  EXPECT_GT(ks.scalar_rows, scalar_rows_before);

  std::vector<Polynomial> ga = reduce_basis(sys.ctx, a.basis, zp);
  std::vector<Polynomial> gb = reduce_basis(sys.ctx, b.basis, zp);
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_TRUE(ga[i].equals(gb[i])) << "element " << i;
  }
}

TEST(MatrixGlpTest, SimIsDeterministicAndMatchesOracle) {
  PolySystem sys = load_problem("katsura4");
  CoeffOptions coeff = CoeffOptions::zp(kPrimes[0]);
  GbConfig seq;
  seq.coeff = coeff;
  std::vector<Polynomial> want =
      reduce_basis(sys.ctx, groebner_sequential(sys, seq).basis, coeff);

  ParallelConfig cfg;
  cfg.gb.coeff = coeff;
  cfg.gb.matrix_reduce = true;
  cfg.gb.matrix_batch_max = 8;
  cfg.nprocs = 4;
  cfg.seed = 3;
  ParallelResult r1 = groebner_parallel(sys, cfg);
  ParallelResult r2 = groebner_parallel(sys, cfg);
  // Virtual time must be a pure function of the configuration: a Zp matrix
  // charges its counts, which are schedule-independent.
  EXPECT_EQ(r1.machine.makespan, r2.machine.makespan);
  std::vector<Polynomial> got = reduce_basis(sys.ctx, r1.basis, coeff);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].equals(want[i])) << "element " << i;
  }
}

TEST(MatrixGlpTest, ThreadBackendMatchesOracle) {
  // Matrix rounds on real processor threads (the TSan job runs this): each
  // proc sweeps its own matrices against its basis replica while the others
  // send it invalidations and fetches, so a frame or matrix that reads
  // shared state without synchronization shows up as a race or a wrong
  // basis.
  PolySystem sys = load_problem("arnborg4");
  CoeffOptions coeff = CoeffOptions::zp(kPrimes[0]);
  GbConfig seq;
  seq.coeff = coeff;
  std::vector<Polynomial> want =
      reduce_basis(sys.ctx, groebner_sequential(sys, seq).basis, coeff);

  ParallelConfig cfg;
  cfg.gb.coeff = coeff;
  cfg.gb.matrix_reduce = true;
  cfg.gb.matrix_batch_max = 8;
  cfg.nprocs = 2;
  cfg.seed = 5;
  ThreadMachine machine(cfg.nprocs);
  ParallelResult res = groebner_parallel_machine(machine, sys, cfg);
  std::vector<Polynomial> got = reduce_basis(sys.ctx, res.basis, coeff);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].equals(want[i])) << "element " << i;
  }
}

TEST(MatrixModularTest, PerPrimeJobsInheritMatrixReduce) {
  PolySystem sys = load_problem("katsura4");
  std::vector<Polynomial> want = reduce_basis(sys.ctx, groebner_sequential(sys).basis, {});

  ModularConfig cfg;
  cfg.gb.matrix_reduce = true;
  cfg.initial_primes = 3;
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_FALSE(res.primes.empty());
  ASSERT_EQ(res.basis.size(), want.size());
  for (std::size_t i = 0; i < res.basis.size(); ++i) {
    EXPECT_TRUE(res.basis[i].equals(want[i])) << "element " << i;
  }
}

// ——— One monomial table per run, column-space stage 2 ———

TEST(MatrixStageTwoTest, ColumnSpaceMatchesPolynomialOracle) {
  // echelon_reduce with interreduce on must return exactly what the
  // polynomial-level stage 2 makes of its interreduce-off output: same
  // rows, same zeroed sources.
  std::uint64_t combinations = 0;
  for (const char* name : {"katsura(5)", "katsura(6)", "cyclic(5)", "trinks1", "eco(6)"}) {
    PolySystem base = load_problem(name);
    for (OrderKind order :
         {OrderKind::kLex, OrderKind::kGrLex, OrderKind::kGRevLex, OrderKind::kElim}) {
      PolySystem sys = with_order(base, order);
      for (std::uint64_t p : kPrimes) {
        const CoeffOptions zp = CoeffOptions::zp(p);
        const ZpField field(p);
        std::vector<Polynomial> gens = canonical_set(sys.ctx, sys.polys, zp);
        VectorReducerSet set(&gens);
        std::vector<Polynomial> rows = pair_spolys(sys.ctx, gens, zp);
        if (rows.empty()) continue;
        for (bool force_scalar : {false, true}) {
          std::optional<ScopedSimdEnv> scalar;
          if (force_scalar) scalar.emplace("1");
          const std::string label = std::string(name) + " " + order_name(order) + " mod " +
                                    std::to_string(p) + (force_scalar ? " scalar" : " auto");
          SymbolicFrame frame = symbolic_preprocess(sys.ctx, rows, set);
          MacaulayMatrix mat =
              build_matrix(sys.ctx, frame, rows, zp, matrix_wants_simd_lanes(zp));
          EchelonOptions on;
          on.coeff = zp;
          EchelonOptions off = on;
          off.interreduce = false;

          const std::uint64_t axpys0 = matrix_kernel_stats().axpys;
          EchelonOutput swept = echelon_reduce(sys.ctx, frame, mat, off);
          const std::uint64_t axpys1 = matrix_kernel_stats().axpys;
          EchelonOutput got = echelon_reduce(sys.ctx, frame, mat, on);
          combinations += (matrix_kernel_stats().axpys - axpys1) - (axpys1 - axpys0);
          EchelonOutput want = oracle::zp_interreduce_polys(sys.ctx, field, std::move(swept));

          EXPECT_EQ(got.src_zeroed, want.src_zeroed) << label;
          ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
          for (std::size_t i = 0; i < got.rows.size(); ++i) {
            EXPECT_EQ(got.rows[i].src, want.rows[i].src) << label << " row " << i;
            EXPECT_TRUE(got.rows[i].poly.equals(want.rows[i].poly)) << label << " row " << i;
          }
        }
      }
    }
  }
  EXPECT_GT(combinations, 0u) << "no input reached a stage-2 combination";
}

/// Field-by-field frame equality.
void expect_same_frame(const SymbolicFrame& a, const SymbolicFrame& b, const std::string& label) {
  ASSERT_EQ(a.cols.size(), b.cols.size()) << label;
  for (std::size_t c = 0; c < a.cols.size(); ++c) {
    EXPECT_TRUE(a.cols[c] == b.cols[c]) << label << " column " << c;
  }
  EXPECT_EQ(a.pivot_of_col, b.pivot_of_col) << label;
  ASSERT_EQ(a.pivots.size(), b.pivots.size()) << label;
  for (std::size_t k = 0; k < a.pivots.size(); ++k) {
    EXPECT_EQ(a.pivots[k].reducer_id, b.pivots[k].reducer_id) << label << " pivot " << k;
    EXPECT_TRUE(a.pivots[k].mult == b.pivots[k].mult) << label << " pivot " << k;
    EXPECT_EQ(a.pivots[k].cols, b.pivots[k].cols) << label << " pivot " << k;
  }
  EXPECT_EQ(a.row_cols, b.row_cols) << label;
}

TEST(MatrixTableTest, RunTableFramesMatchFreshTablesEveryRound) {
  // A plain F4 loop — every non-coprime pair, lowest lcm degree first, one
  // matrix per degree — builds each round's frame twice: from one table
  // kept for the whole run, and from a table of the call's own.
  for (const char* name : {"katsura(5)", "cyclic(5)"}) {
    PolySystem sys = load_problem(name);
    const CoeffOptions zp = CoeffOptions::zp(kPrimes[0]);
    std::vector<Polynomial> basis = canonical_set(sys.ctx, sys.polys, zp);
    VectorReducerSet set(&basis);
    SymbolicTable table;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    auto add_pairs = [&](std::size_t j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (!Monomial::coprime(basis[i].hmono(), basis[j].hmono())) pairs.emplace_back(i, j);
      }
    };
    for (std::size_t j = 1; j < basis.size(); ++j) add_pairs(j);
    auto lcm_degree = [&](const std::pair<std::size_t, std::size_t>& pr) {
      return Monomial::lcm(basis[pr.first].hmono(), basis[pr.second].hmono()).degree();
    };
    const std::uint64_t hits_before = matrix_kernel_stats().product_cache_hits;
    std::size_t rounds = 0;
    while (!pairs.empty()) {
      std::uint32_t deg = lcm_degree(pairs.front());
      for (const auto& pr : pairs) deg = std::min(deg, lcm_degree(pr));
      std::vector<Polynomial> rows;
      std::vector<std::pair<std::size_t, std::size_t>> rest;
      for (const auto& pr : pairs) {
        if (lcm_degree(pr) != deg) {
          rest.push_back(pr);
          continue;
        }
        Polynomial s = spoly(sys.ctx, basis[pr.first], basis[pr.second], zp);
        if (!s.is_zero()) rows.push_back(std::move(s));
      }
      pairs = std::move(rest);
      if (rows.empty()) continue;
      const std::string label = std::string(name) + " round " + std::to_string(rounds);
      SymbolicFrame run = symbolic_preprocess(sys.ctx, rows, set, &table);
      SymbolicFrame fresh = symbolic_preprocess(sys.ctx, rows, set);
      expect_same_frame(run, fresh, label);
      EchelonOptions eopts;
      eopts.coeff = zp;
      MacaulayMatrix mat = build_matrix(sys.ctx, run, rows, zp);
      EchelonOutput out = echelon_reduce(sys.ctx, run, mat, eopts);
      for (EchelonOutput::NewRow& nr : out.rows) {
        basis.push_back(std::move(nr.poly));
        add_pairs(basis.size() - 1);
      }
      ++rounds;
    }
    EXPECT_GT(rounds, 2u) << name;
    EXPECT_GT(matrix_kernel_stats().product_cache_hits, hits_before) << name;
  }
}

TEST(MatrixTableTest, DisplacedReducerRederivesTheCachedProduct) {
  // x^2*y is first reduced by g0 (head x^2). Appending g1 (head x*y, fewer
  // terms, so preferred) displaces g0 for that monomial: the table must
  // notice, resolve it again and derive x*g1 instead of walking y*g0.
  PolySystem sys = parse_system_or_die(R"(
    vars x, y, z;
    order grevlex;
    x^2 + y*z + 1;
  )");
  const PolyContext& ctx = sys.ctx;
  std::vector<Polynomial> basis = sys.polys;
  VectorReducerSet set(&basis);
  SymbolicTable table;
  const std::vector<Polynomial> rows = {parse_poly_or_die(ctx, "x^2*y + z")};
  const Monomial m = rows[0].hmono();
  const MatrixKernelStats& ks = matrix_kernel_stats();

  auto round = [&](const std::string& label, std::uint64_t want_reducer,
                   std::uint64_t want_cache_hits) {
    const std::uint64_t hits_before = ks.product_cache_hits;
    SymbolicFrame run = symbolic_preprocess(ctx, rows, set, &table);
    EXPECT_EQ(ks.product_cache_hits - hits_before, want_cache_hits) << label;
    expect_same_frame(run, symbolic_preprocess(ctx, rows, set), label);
    const auto c = std::find(run.cols.begin(), run.cols.end(), m);
    ASSERT_NE(c, run.cols.end()) << label;
    const std::int32_t pv = run.pivot_of_col[static_cast<std::size_t>(c - run.cols.begin())];
    ASSERT_GE(pv, 0) << label;
    EXPECT_EQ(run.pivots[static_cast<std::size_t>(pv)].reducer_id, want_reducer) << label;
  };
  round("first sight", 0, 0);
  round("unchanged set", 0, 1);
  basis.push_back(parse_poly_or_die(ctx, "x*y + z"));
  round("after the displacing append", 1, 0);
  round("unchanged again", 1, 1);
}

// ——— s-pair rows and charges from counts ———

/// Every non-coprime pair of `gens` as an SPair, then (0, 0): one element
/// against itself, identical halves and so an empty row.
std::vector<SPair> all_spairs(const std::vector<Polynomial>& gens) {
  std::vector<SPair> pairs;
  for (std::uint64_t j = 0; j < gens.size(); ++j) {
    for (std::uint64_t i = 0; i < j; ++i) {
      if (!Monomial::coprime(gens[i].hmono(), gens[j].hmono())) pairs.push_back(SPair{i, j});
    }
  }
  if (!gens.empty()) pairs.push_back(SPair{0, 0});
  return pairs;
}

/// The rows reduce_batch gets for the same pairs: their monic s-polynomials.
std::vector<Polynomial> spolys_of(const PolyContext& ctx, const std::vector<Polynomial>& gens,
                                  const std::vector<SPair>& pairs, const CoeffOptions& coeff) {
  std::vector<Polynomial> rows;
  for (const SPair& pr : pairs) rows.push_back(spoly(ctx, gens[pr.i], gens[pr.j], coeff));
  return rows;
}

/// Pairs whose halves cancel some tail cell, beyond the cancelled head: the
/// s-polynomial has fewer terms than the halves have distinct monomials.
std::size_t pairs_cancelling_tails(const std::vector<Polynomial>& gens,
                                   const std::vector<SPair>& pairs,
                                   const std::vector<Polynomial>& rows) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < pairs.size(); ++r) {
    const Polynomial& a = gens[pairs[r].i];
    const Polynomial& b = gens[pairs[r].j];
    const Monomial lcm = Monomial::lcm(a.hmono(), b.hmono());
    std::unordered_set<Monomial, MonoHash> monos;
    for (const Polynomial* g : {&a, &b}) {
      const Monomial mult = lcm / g->hmono();
      for (std::size_t k = 1; k < g->nterms(); ++k) monos.insert(g->terms()[k].mono * mult);
    }
    if (rows[r].nterms() < monos.size()) ++n;
  }
  return n;
}

TEST(PairRowTest, PairRowsMatchSpolyRowsEverywhere) {
  // reduce_pairs builds each row from its pair's halves; reduce_batch gets
  // the pair's s-polynomial. Rows, sources and zeroed flags must agree
  // exactly, for every order, field size and dispatch, with stage 2 on and
  // off.
  const std::uint64_t primes[] = {kPrimes[0], kPrimes[1], kPrimes[2],
                                  prev_prime_u64(std::uint64_t{1} << 62)};
  std::size_t cancelling = 0, empty_rows = 0, zeroed = 0;
  for (const char* name : {"katsura(5)", "katsura(6)", "cyclic(5)", "trinks1", "eco(6)"}) {
    PolySystem base = load_problem(name);
    for (OrderKind order :
         {OrderKind::kLex, OrderKind::kGrLex, OrderKind::kGRevLex, OrderKind::kElim}) {
      PolySystem sys = with_order(base, order);
      for (std::uint64_t p : primes) {
        const CoeffOptions zp = CoeffOptions::zp(p);
        std::vector<Polynomial> gens = canonical_set(sys.ctx, sys.polys, zp);
        VectorReducerSet set(&gens);
        const std::vector<SPair> pairs = all_spairs(gens);
        const std::vector<Polynomial> rows = spolys_of(sys.ctx, gens, pairs, zp);
        cancelling += pairs_cancelling_tails(gens, pairs, rows);
        for (const Polynomial& r : rows) empty_rows += r.is_zero() ? 1 : 0;
        for (bool force_scalar : {false, true}) {
          std::optional<ScopedSimdEnv> scalar;
          if (force_scalar) scalar.emplace("1");
          for (bool interreduce : {true, false}) {
            const std::string label = std::string(name) + " " + order_name(order) + " mod " +
                                      std::to_string(p) + (force_scalar ? " scalar" : " auto") +
                                      (interreduce ? " stage 2" : " no stage 2");
            EchelonOptions opts;
            opts.coeff = zp;
            opts.interreduce = interreduce;
            const EchelonOutput want = reduce_batch(sys.ctx, rows, set, opts);
            const EchelonOutput got = reduce_pairs(sys.ctx, pairs, set, opts);
            expect_same_output(got, want, label);
            for (bool z : want.src_zeroed) zeroed += z ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(cancelling, 0u) << "no pair cancelled a tail cell";
  EXPECT_GT(empty_rows, 0u) << "no pair had identical halves";
  EXPECT_GT(zeroed, 0u) << "no pair row was eliminated to zero";
}

TEST(PairRowTest, CancellingAndIdenticalHalvesThroughARunTable) {
  // g0, g1 share the head and y^2, so their halves cancel beyond the head;
  // g2 is 3·g0, whose monic image is g0's: identical halves under distinct
  // ids. Through a run table kept over two calls, the second call walks
  // every half whose element is its lcm's reducer: that half is the lcm's
  // cached pivot product.
  PolySystem sys = parse_system_or_die(R"(
    vars x, y, z;
    order grevlex;
    x^2 + y^2 + z;
    x^2 + y^2 + 1;
    3*x^2 + 3*y^2 + 3*z;
    x*y + y^2 + z^2;
    y^3 + x*z + 1;
  )");
  const std::vector<SPair> pairs = {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {2, 3},
                                    {3, 4}, {1, 4}, {1, 1}, {4, 3}};
  for (std::uint64_t p : {kPrimes[0], kPrimes[2], prev_prime_u64(std::uint64_t{1} << 62)}) {
    const CoeffOptions zp = CoeffOptions::zp(p);
    std::vector<Polynomial> gens = canonical_set(sys.ctx, sys.polys, zp);
    ASSERT_EQ(gens.size(), 5u);
    VectorReducerSet set(&gens);
    const std::vector<Polynomial> rows = spolys_of(sys.ctx, gens, pairs, zp);
    EXPECT_EQ(pairs_cancelling_tails(gens, {pairs[0]}, {rows[0]}), 1u);
    EXPECT_TRUE(rows[1].is_zero());
    EchelonOptions opts;
    opts.coeff = zp;
    const EchelonOutput want = reduce_batch(sys.ctx, rows, set, opts);
    std::uint64_t pivot_halves = 0;
    for (const SPair& pr : pairs) {
      std::uint64_t id = 0;
      set.find_reducer(Monomial::lcm(gens[pr.i].hmono(), gens[pr.j].hmono()), &id);
      pivot_halves += (id == pr.i ? 1 : 0) + (id == pr.j ? 1 : 0);
    }
    EXPECT_GT(pivot_halves, 0u);
    SymbolicTable table;
    const MatrixKernelStats& ks = matrix_kernel_stats();
    for (int call = 0; call < 2; ++call) {
      const std::string label = "mod " + std::to_string(p) + " call " + std::to_string(call);
      const std::uint64_t shared_before = ks.pair_halves_shared;
      const std::uint64_t rows_before = ks.pair_rows;
      expect_same_output(reduce_pairs(sys.ctx, pairs, set, opts, &table), want, label);
      EXPECT_EQ(ks.pair_rows - rows_before, pairs.size()) << label;
      if (call == 1) {
        EXPECT_EQ(ks.pair_halves_shared - shared_before, pivot_halves) << label;
      }
    }
  }
}

/// DESIGN.md §20: the units one Zp matrix charges, from its counts (the
/// deltas between two snapshots of matrix_kernel_stats around it).
std::uint64_t formula_units(const MatrixKernelStats& a, const MatrixKernelStats& b,
                            std::uint64_t nvars) {
  auto d = [&](std::uint64_t MatrixKernelStats::*f) { return b.*f - a.*f; };
  return nvars * d(&MatrixKernelStats::frame_cols) +
         (nvars + 1) * (d(&MatrixKernelStats::pivot_cells) + d(&MatrixKernelStats::work_cells)) +
         d(&MatrixKernelStats::axpy_cells) + d(&MatrixKernelStats::dense_cells) / 8 +
         (nvars + 1) * d(&MatrixKernelStats::merge_cells);
}

TEST(MatrixChargeTest, EveryZpBatchChargesTheFormula) {
  // Around one reduce_batch, reduce_pairs or reduce_tails call, the units
  // charged equal the formula on that call's counts, and so do not depend
  // on dispatch.
  std::uint64_t merge_cells = 0;
  for (const char* name : {"katsura(5)", "cyclic(5)", "trinks1"}) {
    PolySystem sys = load_problem(name);
    for (std::uint64_t p : {kPrimes[0], prev_prime_u64(std::uint64_t{1} << 62)}) {
      const CoeffOptions zp = CoeffOptions::zp(p);
      std::vector<Polynomial> gens = canonical_set(sys.ctx, sys.polys, zp);
      VectorReducerSet set(&gens);
      const std::vector<SPair> pairs = all_spairs(gens);
      const std::vector<Polynomial> rows = spolys_of(sys.ctx, gens, pairs, zp);
      std::uint64_t first[3] = {0, 0, 0};
      for (bool force_scalar : {false, true}) {
        std::optional<ScopedSimdEnv> scalar;
        if (force_scalar) scalar.emplace("1");
        const std::string label =
            std::string(name) + " mod " + std::to_string(p) + (force_scalar ? " scalar" : " auto");
        EchelonOptions opts;
        opts.coeff = zp;
        for (int call = 0; call < 3; ++call) {
          const MatrixKernelStats before = matrix_kernel_stats();
          CostScope cost;
          if (call == 0) {
            reduce_batch(sys.ctx, rows, set, opts);
          } else if (call == 1) {
            reduce_pairs(sys.ctx, pairs, set, opts);
          } else {
            reduce_tails(sys.ctx, gens, set, opts);
          }
          const std::uint64_t units = cost.elapsed();
          const MatrixKernelStats& after = matrix_kernel_stats();
          EXPECT_EQ(after.batches - before.batches, 1u) << label << " call " << call;
          EXPECT_EQ(units, formula_units(before, after, sys.ctx.nvars()))
              << label << " call " << call;
          merge_cells += after.merge_cells - before.merge_cells;
          if (first[call] == 0) first[call] = units;
          EXPECT_EQ(units, first[call]) << label << " call " << call;
        }
      }
    }
  }
  EXPECT_GT(merge_cells, 0u) << "no batch reached a stage-2 combination";
}

/// A reducer set that drains the cost counter on every lookup, as a set
/// that yielded to a machine mid-search would.
class DrainingReducerSet final : public ReducerSet {
 public:
  explicit DrainingReducerSet(const std::vector<Polynomial>* polys) : inner_(polys) {}
  const Polynomial* find_reducer(const Monomial& m, std::uint64_t* out_id) const override {
    CostCounter::drain();
    return inner_.find_reducer(m, out_id);
  }
  const Polynomial* by_id(std::uint64_t id) const override { return inner_.by_id(id); }

 private:
  VectorReducerSet inner_;
};

TEST(MatrixChargeTest, DrainDuringSymbolicPreprocessingIsCaught) {
  // symbolic_preprocess rewinds the counter to drop its monomial charges;
  // after a drain that would hand back units the clock already has.
  PolySystem sys = load_problem("katsura(4)");
  const CoeffOptions zp = CoeffOptions::zp(kPrimes[0]);
  std::vector<Polynomial> gens = canonical_set(sys.ctx, sys.polys, zp);
  const std::vector<Polynomial> rows = spolys_of(sys.ctx, gens, all_spairs(gens), zp);
  DrainingReducerSet set(&gens);
  EXPECT_DEATH(symbolic_preprocess(sys.ctx, rows, set), "drained mid-batch");
}

}  // namespace
}  // namespace gbd
