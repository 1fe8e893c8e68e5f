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
//     column-space stage 2 equals the polynomial-level oracle, rows and
//     charged units both.
#include "poly/echelon.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
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
                                std::size_t batch_max, std::size_t threads) {
  GbConfig per_poly;
  per_poly.coeff = coeff;
  GbConfig matrix = per_poly;
  matrix.matrix_reduce = true;
  matrix.matrix_batch_max = batch_max;
  matrix.matrix_threads = threads;

  SequentialResult a = groebner_sequential(sys, per_poly);
  SequentialResult b = groebner_sequential(sys, matrix);
  std::vector<Polynomial> ga = reduce_basis(sys.ctx, a.basis, coeff);
  std::vector<Polynomial> gb = reduce_basis(sys.ctx, b.basis, coeff);
  std::string label = sys.name + " batch_max " + std::to_string(batch_max) + " threads " +
                      std::to_string(threads);
  ASSERT_EQ(ga.size(), gb.size()) << label;
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_TRUE(ga[i].equals(gb[i])) << label << " element " << i;
  }
}

TEST(MatrixSequentialTest, CorpusReducedBasesMatchExact) {
  for (const char* name : {"arnborg4", "katsura4", "trinks2", "rose"}) {
    expect_equal_reduced_basis(load_problem(name), CoeffOptions{}, 64, 1);
  }
}

TEST(MatrixSequentialTest, CorpusReducedBasesMatchZp) {
  for (const char* name : {"arnborg4", "katsura4", "trinks1", "rose"}) {
    for (std::uint64_t p : {kPrimes[0], kPrimes[2]}) {
      expect_equal_reduced_basis(load_problem(name), CoeffOptions::zp(p), 64, 1);
    }
  }
}

TEST(MatrixSequentialTest, TinyBatchesAndThreadsDoNotChangeResults) {
  // batch_max 2 forces many small rounds (frame reuse across degrees);
  // threads 3 exercises the parallel pivot sweep's determinism claim.
  PolySystem sys = load_problem("katsura4");
  expect_equal_reduced_basis(sys, CoeffOptions{}, 2, 1);
  expect_equal_reduced_basis(sys, CoeffOptions::zp(kPrimes[0]), 2, 3);
  expect_equal_reduced_basis(load_problem("arnborg4"), CoeffOptions::zp(kPrimes[2]), 3, 2);
}

TEST(MatrixSequentialTest, ParametricFamiliesMatch) {
  // Generated (not table-text) inputs, one size beyond the builtin corpus.
  expect_equal_reduced_basis(load_problem("katsura(5)"), CoeffOptions::zp(kPrimes[0]), 64, 1);
  expect_equal_reduced_basis(load_problem("cyclic(5)"), CoeffOptions::zp(kPrimes[0]), 64, 1);
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

// Charged cost units are the simulated machine's clock, so representation
// changes (inline monomials, frame column lists) must not move them. These
// figures were recorded before either change; they hold with SIMD dispatch on
// or off, and for any prime (the charges count term operations, not values).
TEST(MatrixCostParityTest, ChargedUnitsArePinned) {
  {
    GbConfig cfg;
    cfg.coeff = CoeffOptions::zp(kPrimes[0]);
    cfg.matrix_reduce = true;
    SequentialResult r = groebner_sequential(load_problem("katsura(5)"), cfg);
    EXPECT_EQ(r.stats.work_units, 745172u);
    EXPECT_EQ(r.elapsed_units, 745172u);
  }
  {
    ParallelConfig cfg;
    cfg.nprocs = 4;
    cfg.gb.coeff = CoeffOptions::zp(kPrimes[0]);
    cfg.gb.matrix_reduce = true;
    ParallelResult r = groebner_parallel(load_problem("katsura(5)"), cfg);
    EXPECT_EQ(r.stats.work_units, 8320541u);
    EXPECT_EQ(r.elapsed_units, 3216034u);
  }
  {
    // The exact sweep reads pivot products straight from the frame.
    ParallelConfig cfg;
    cfg.nprocs = 4;
    cfg.gb.matrix_reduce = true;
    ParallelResult r = groebner_parallel(load_problem("katsura4"), cfg);
    EXPECT_EQ(r.stats.work_units, 11288557u);
    EXPECT_EQ(r.elapsed_units, 6183706u);
  }
}

TEST(MatrixCostParityTest, ThreadedSweepChargesArePinned) {
  // Recorded before the run table and column-space stage 2. Three sweep
  // workers write column rows in parallel; the makespan charge must not move.
  GbConfig cfg;
  cfg.coeff = CoeffOptions::zp(kPrimes[0]);
  cfg.matrix_reduce = true;
  cfg.matrix_threads = 3;
  SequentialResult r = groebner_sequential(load_problem("katsura(5)"), cfg);
  EXPECT_EQ(r.stats.work_units, 665737u);
  EXPECT_EQ(r.elapsed_units, 665737u);
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

// ——— PR-8: vectorized sweep, dispatch pinning, frame memo, kernel lanes ———

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
    const std::size_t n = 37;  // covers the 4-lane vector body and the tail
    std::vector<std::uint64_t> lanes(n), lanes_scalar(n);
    std::vector<std::uint64_t> want(n);  // true residues, tracked alongside
    for (std::size_t i = 0; i < n; ++i) {
      lanes[i] = rng.next();  // arbitrary u64 starting point
      lanes_scalar[i] = lanes[i];
      want[i] = lanes[i] % p;
    }
    std::vector<std::uint32_t> coeffs(n);
    // Many unnormalized updates in a row: lanes wander the full 64-bit
    // range and wrap repeatedly — exactly the regime the proof covers.
    for (int round = 0; round < 64; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        coeffs[i] = static_cast<std::uint32_t>(rng.below(p));
      }
      std::uint64_t fneg = p - (1 + rng.below(p - 1));
      for (std::size_t i = 0; i < n; ++i) {
        unsigned __int128 t =
            static_cast<unsigned __int128>(fneg) * coeffs[i] + want[i];
        want[i] = static_cast<std::uint64_t>(t % p);
      }
      zp_axpy_delayed(lanes.data(), coeffs.data(), n, fneg, r64, simd_level());
      zp_axpy_delayed_scalar(lanes_scalar.data(), coeffs.data(), n, fneg, r64);
    }
    for (std::size_t i = 0; i < n; ++i) {
      // The two kernels perform the identical lane arithmetic: raw 64-bit
      // lanes agree bit for bit, and both are congruent to the oracle.
      EXPECT_EQ(lanes[i], lanes_scalar[i]) << "p " << p << " lane " << i;
      EXPECT_EQ(lanes[i] % p, want[i]) << "p " << p << " lane " << i;
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

TEST(MatrixGlpTest, KernelLanesAreDeterministicOnSimAndMatchOracle) {
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
  cfg.gb.matrix_threads = 3;  // sim grants lanes freely; makespan-charged
  cfg.nprocs = 4;
  cfg.seed = 3;
  ParallelResult r1 = groebner_parallel(sys, cfg);
  ParallelResult r2 = groebner_parallel(sys, cfg);
  // Virtual time must be a pure function of the configuration — real lane
  // threads may interleave arbitrarily, but the makespan charge is the max
  // per-lane tally, which is schedule-independent.
  EXPECT_EQ(r1.machine.makespan, r2.machine.makespan);

  cfg.gb.matrix_threads = 1;
  ParallelResult r3 = groebner_parallel(sys, cfg);
  for (const ParallelResult* r : {&r1, &r3}) {
    std::vector<Polynomial> got = reduce_basis(sys.ctx, r->basis, coeff);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].equals(want[i])) << "element " << i;
    }
  }
}

TEST(MatrixGlpTest, ThreadBackendKernelLanesMatchOracle) {
  // Real threads under the elimination kernel (the TSan job runs this):
  // lanes share nothing but the frame and matrix, so any missing
  // synchronization shows up as a race or a wrong basis.
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
  cfg.gb.matrix_threads = 2;
  cfg.nprocs = 2;
  cfg.seed = 5;
  // Explicit 2-lane grant: the auto grant divides the host's cores and
  // would silently degrade to 1 lane on small boxes, skipping the very
  // path under test.
  ThreadMachine machine(cfg.nprocs, /*kernel_lanes=*/2);
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
  // polynomial-level stage 2 makes of its interreduce-off output — same
  // rows, same zeroed sources — and charge exactly what that stage charges.
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
          for (std::size_t threads : {1u, 3u}) {
            const std::string label = std::string(name) + " " + order_name(order) + " mod " +
                                      std::to_string(p) + (force_scalar ? " scalar" : " auto") +
                                      " threads " + std::to_string(threads);
            SymbolicFrame frame = symbolic_preprocess(sys.ctx, rows, set);
            MacaulayMatrix mat = build_matrix(sys.ctx, frame, rows, zp, matrix_wants_runs(zp));
            EchelonOptions on;
            on.coeff = zp;
            on.nthreads = threads;
            EchelonOptions off = on;
            off.interreduce = false;

            const std::uint64_t axpys0 = matrix_kernel_stats().axpys;
            CostScope off_cost;
            EchelonOutput swept = echelon_reduce(sys.ctx, frame, mat, off);
            const std::uint64_t off_units = off_cost.elapsed();
            const std::uint64_t axpys1 = matrix_kernel_stats().axpys;
            CostScope on_cost;
            EchelonOutput got = echelon_reduce(sys.ctx, frame, mat, on);
            const std::uint64_t on_units = on_cost.elapsed();
            combinations += (matrix_kernel_stats().axpys - axpys1) - (axpys1 - axpys0);
            CostScope oracle_cost;
            EchelonOutput want = oracle::zp_interreduce_polys(sys.ctx, field, std::move(swept));
            const std::uint64_t oracle_units = oracle_cost.elapsed();

            EXPECT_EQ(got.src_zeroed, want.src_zeroed) << label;
            ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
            for (std::size_t i = 0; i < got.rows.size(); ++i) {
              EXPECT_EQ(got.rows[i].src, want.rows[i].src) << label << " row " << i;
              EXPECT_TRUE(got.rows[i].poly.equals(want.rows[i].poly)) << label << " row " << i;
            }
            EXPECT_EQ(on_units - off_units, oracle_units) << label;
          }
        }
      }
    }
  }
  EXPECT_GT(combinations, 0u) << "no input reached a stage-2 combination";
}

/// Field-by-field frame equality (col_of is `cols` inverted).
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
    const std::int64_t c = run.col_of(m);
    ASSERT_GE(c, 0) << label;
    const std::int32_t pv = run.pivot_of_col[static_cast<std::size_t>(c)];
    ASSERT_GE(pv, 0) << label;
    EXPECT_EQ(run.pivots[static_cast<std::size_t>(pv)].reducer_id, want_reducer) << label;
  };
  round("first sight", 0, 0);
  round("unchanged set", 0, 1);
  basis.push_back(parse_poly_or_die(ctx, "x*y + z"));
  round("after the displacing append", 1, 0);
  round("unchanged again", 1, 1);
}

}  // namespace
}  // namespace gbd
