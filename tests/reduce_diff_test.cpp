// Differential and fuzz coverage for the reduction-kernel overhaul:
//
//   · geobucket reduce_full vs the naive flat-vector path must produce
//     bit-identical normal forms AND identical step counts, across random
//     systems × orderings × tail on/off and on the real benchmark inputs
//     (the scalar-multiple argument of geobucket.hpp, checked exactly);
//   · the divmask prefilter must be sound (a | b implies may_divide) and the
//     divmask-indexed find_reducer must agree with a plain linear scan —
//     including for the replicated basis while chaos mode reorders,
//     duplicates and delays the invalidation/fetch protocol underneath it.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "basis/replicated_basis.hpp"
#include "bigint/zp.hpp"
#include "gb/modular.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "io/parse.hpp"
#include "machine/sim_machine.hpp"
#include "poly/divmask.hpp"
#include "poly/geobucket.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "problems/problems.hpp"
#include "support/cost.hpp"
#include "support/rng.hpp"
#include "basis_helpers.hpp"
#include "oracles.hpp"

namespace gbd {
namespace {

Monomial random_monomial(Rng& rng, std::size_t nvars, std::uint32_t maxexp) {
  std::vector<std::uint32_t> exps;
  exps.reserve(nvars);
  for (std::size_t v = 0; v < nvars; ++v) {
    exps.push_back(static_cast<std::uint32_t>(rng.below(maxexp + 1)));
  }
  return Monomial(std::move(exps));
}

/// The pre-divmask linear scan, verbatim: the reference oracle.
const Polynomial* linear_scan(const std::vector<Polynomial>& polys, const Monomial& m,
                              std::uint64_t* out_id) {
  const Polynomial* best = nullptr;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < polys.size(); ++i) {
    const Polynomial& r = polys[i];
    if (!r.is_zero() && r.hmono().divides(m)) {
      if (best == nullptr || reducer_preferred(r, *best)) {
        best = &r;
        best_i = i;
      }
    }
  }
  if (best && out_id) *out_id = best_i;
  return best;
}

/// find_reducer counter deltas across one reduce_full call (thread-local
/// stats windowed the same way obs/metrics.hpp does per worker).
struct ProbeDelta {
  std::uint64_t calls, probes, mask_rejects, divides_calls;
  bool operator==(const ProbeDelta&) const = default;
};

ReduceOutcome windowed_reduce(const PolyContext& ctx, const Polynomial& p,
                              const VectorReducerSet& set, const ReduceOptions& opt,
                              ProbeDelta* delta) {
  FindReducerStats before = find_reducer_stats();
  ReduceOutcome out = reduce_full(ctx, p, set, opt);
  FindReducerStats after = find_reducer_stats();
  *delta = ProbeDelta{after.calls - before.calls, after.probes - before.probes,
                      after.mask_rejects - before.mask_rejects,
                      after.divides_calls - before.divides_calls};
  return out;
}

void expect_both_paths_agree(const PolyContext& ctx, const Polynomial& p,
                             const std::vector<Polynomial>& basis, bool tail) {
  VectorReducerSet set(&basis);
  ReduceOptions geo;
  geo.tail_reduce = tail;
  geo.use_geobuckets = true;
  geo.max_steps = 200000;
  ReduceOptions naive = geo;
  naive.use_geobuckets = false;
  ProbeDelta da{}, db{};
  GeobucketStats gb_before = geobucket_stats();
  ReduceOutcome a = windowed_reduce(ctx, p, set, geo, &da);
  std::uint64_t geo_axpys = geobucket_stats().axpys - gb_before.axpys;
  ReduceOutcome b = windowed_reduce(ctx, p, set, naive, &db);
  EXPECT_TRUE(a.poly.equals(b.poly))
      << "geobucket: " << a.poly.to_string(ctx) << "\nnaive:     " << b.poly.to_string(ctx);
  EXPECT_EQ(a.steps, b.steps);
  // Both paths walk the identical sequence of leading monomials, so the
  // reducer-lookup work — probes, divmask rejects, full divides — must be
  // bit-identical, not merely similar. The geobucket changes *how* the
  // accumulation is represented, never *what* is looked up.
  EXPECT_EQ(da, db) << "find_reducer probe/reject counts diverged between paths";
  // And only the geobucket path touches geobucket machinery.
  if (a.steps > 0) EXPECT_GT(geo_axpys, 0u);
  EXPECT_EQ(geobucket_stats().axpys - gb_before.axpys, geo_axpys)
      << "naive path must not perform geobucket axpys";
}

class GeobucketDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeobucketDiffTest, RandomSystemsAcrossOrderingsAndModes) {
  for (OrderKind order : {OrderKind::kGrLex, OrderKind::kLex, OrderKind::kGRevLex}) {
    Rng rng(GetParam() ^ (static_cast<std::uint64_t>(order) << 32));
    PolySystem sys = random_system(rng, 3, 6, 4, 5, 50);
    sys.ctx.order = order;
    // random_system canonicalized under its default order; re-sort the term
    // vectors under the order actually being tested.
    for (auto& p : sys.polys) {
      p = Polynomial::from_terms(sys.ctx, std::vector<Term>(p.terms().begin(), p.terms().end()));
    }
    const PolyContext& c = sys.ctx;
    std::vector<Polynomial> basis(sys.polys.begin(), sys.polys.begin() + 4);
    for (auto& g : basis) g.make_primitive();
    for (std::size_t i = 4; i < sys.polys.size(); ++i) {
      expect_both_paths_agree(c, sys.polys[i], basis, /*tail=*/false);
      expect_both_paths_agree(c, sys.polys[i], basis, /*tail=*/true);
    }
    // Products of basis elements reduce to zero both ways.
    Polynomial member = basis[0].mul(c, sys.polys[4]);
    expect_both_paths_agree(c, member, basis, /*tail=*/true);
  }
}

TEST_P(GeobucketDiffTest, LargeCoefficientsForceNormalization) {
  // Huge reducer head coefficients drive the pending-scale bits past the
  // geobucket's normalization threshold, exercising the mid-reduction
  // materialize/make_primitive/rebuild path.
  Rng rng(GetParam() ^ 0x9e3779b9);
  PolySystem sys = random_system(rng, 3, 5, 3, 4, 1000000007LL);
  const PolyContext& c = sys.ctx;
  std::vector<Polynomial> basis(sys.polys.begin(), sys.polys.begin() + 3);
  for (auto& g : basis) g.make_primitive();
  expect_both_paths_agree(c, sys.polys[3], basis, /*tail=*/true);
  expect_both_paths_agree(c, sys.polys[4], basis, /*tail=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeobucketDiffTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(GeobucketDiffTest, BenchmarkProblemSpolys) {
  for (const char* name : {"arnborg4", "katsura4", "trinks1"}) {
    PolySystem sys = load_problem(name);
    const PolyContext& c = sys.ctx;
    std::vector<Polynomial> basis = sys.polys;
    for (auto& g : basis) g.make_primitive();
    for (std::size_t i = 0; i < basis.size(); ++i) {
      for (std::size_t j = i + 1; j < basis.size(); ++j) {
        Polynomial s = spoly(c, basis[i], basis[j]);
        if (s.is_zero()) continue;
        expect_both_paths_agree(c, s, basis, /*tail=*/false);
        expect_both_paths_agree(c, s, basis, /*tail=*/true);
      }
    }
  }
}

// --- Zp coefficient path -----------------------------------------------------

// Small, mid and edge primes for the per-prime differential runs.
const std::uint64_t kZpDiffPrimes[] = {
    1000003,
    prev_prime_u64(std::uint64_t{1} << 31),
    prev_prime_u64(std::uint64_t{1} << 62),
};

std::vector<Polynomial> zp_image(const PolyContext& ctx, const std::vector<Polynomial>& basis,
                                 std::uint64_t prime) {
  CoeffOptions zp = CoeffOptions::zp(prime);
  std::vector<Polynomial> out;
  out.reserve(basis.size());
  for (const auto& g : basis) {
    Polynomial q = g;
    coeff_normalize(ctx, &q, zp);
    out.push_back(std::move(q));
  }
  return out;
}

/// Mod p there is no scalar freedom at all (both paths cancel to the exact
/// residue), so the geobucket and naive Zp reducers must agree
/// coefficient-for-coefficient at identical step counts — a stronger
/// statement than the exact paths' scalar-multiple argument.
Polynomial expect_zp_paths_agree(const PolyContext& ctx, const Polynomial& p,
                                 const std::vector<Polynomial>& zp_basis, std::uint64_t prime,
                                 bool tail) {
  VectorReducerSet set(&zp_basis);
  ReduceOptions geo;
  geo.tail_reduce = tail;
  geo.use_geobuckets = true;
  geo.max_steps = 200000;
  geo.coeff = CoeffOptions::zp(prime);
  ReduceOptions naive = geo;
  naive.use_geobuckets = false;
  ReduceOutcome a = reduce_full(ctx, p, set, geo);
  ReduceOutcome b = reduce_full(ctx, p, set, naive);
  EXPECT_TRUE(a.poly.equals(b.poly))
      << "p=" << prime << "\ngeobucket: " << a.poly.to_string(ctx)
      << "\nnaive:     " << b.poly.to_string(ctx);
  EXPECT_EQ(a.steps, b.steps) << "p=" << prime;
  return a.poly;
}

class ZpDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZpDiffTest, GeobucketMatchesNaiveModP) {
  Rng rng(GetParam() ^ 0x5A5A);
  PolySystem sys = random_system(rng, 3, 6, 4, 5, 50);
  const PolyContext& c = sys.ctx;
  std::vector<Polynomial> basis(sys.polys.begin(), sys.polys.begin() + 4);
  for (std::uint64_t prime : kZpDiffPrimes) {
    std::vector<Polynomial> zb;
    for (const auto& g : zp_image(c, basis, prime)) {
      if (!g.is_zero()) zb.push_back(g);
    }
    if (zb.empty()) continue;
    for (std::size_t i = 4; i < sys.polys.size(); ++i) {
      expect_zp_paths_agree(c, sys.polys[i], zb, prime, /*tail=*/false);
      expect_zp_paths_agree(c, sys.polys[i], zb, prime, /*tail=*/true);
    }
    // An ideal member reduces to zero mod p on both paths.
    Polynomial member = zb[0].mul(c, sys.polys[4]);
    Polynomial nf = expect_zp_paths_agree(c, member, zb, prime, /*tail=*/true);
    EXPECT_TRUE(nf.is_zero()) << "p=" << prime;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZpDiffTest, ::testing::Values(0xA1, 0xB2, 0xC3, 0xD4));

TEST(ZpDiffTest, ThreeWayAgainstExactOnBenchmarkProblems) {
  // Three-way differential on the corpus: exact-geobucket vs exact-naive is
  // covered above; here each normal form additionally crosses the field
  // boundary. Over the reduced Gröbner basis the (tail-reduced) normal form
  // is *unique*, so the mod-p image of the exact normal form must be monic-
  // equal to the normal form computed natively in Zp — two entirely disjoint
  // arithmetic paths (BigInt gcd/divide vs Montgomery) landing on one value.
  for (const char* name : {"arnborg4", "katsura4", "trinks1"}) {
    PolySystem sys = load_problem(name);
    const PolyContext& c = sys.ctx;
    std::vector<Polynomial> gb = reduce_basis(c, groebner_sequential(sys).basis);
    VectorReducerSet exact_set(&gb);
    ReduceOptions exact_opts;
    exact_opts.tail_reduce = true;
    for (std::uint64_t prime : kZpDiffPrimes) {
      ZpField field(prime);
      CoeffOptions zp = CoeffOptions::zp(prime);
      std::vector<Polynomial> zb = zp_image(c, gb, prime);
      // These primes are lucky for the corpus: the image stays a GB mod p.
      std::string why;
      ASSERT_TRUE(verify_groebner_result(c, sys.polys, zb, &why, zp))
          << name << " p=" << prime << ": " << why;
      std::vector<Polynomial> probes = sys.polys;
      for (std::size_t i = 0; i < gb.size(); ++i) {
        for (std::size_t j = i + 1; j < gb.size() && probes.size() < 24; ++j) {
          probes.push_back(spoly(c, gb[i], gb[j]));
        }
      }
      for (const Polynomial& q : probes) {
        if (q.is_zero()) continue;
        Polynomial zp_nf = expect_zp_paths_agree(c, q, zb, prime, /*tail=*/true);
        Polynomial exact_nf = reduce_full(c, q, exact_set, exact_opts).poly;
        Polynomial img = poly_mod(c, exact_nf, field);
        img.make_monic(field);
        EXPECT_TRUE(img.equals(zp_nf))
            << name << " p=" << prime << "\nexact mod p: " << img.to_string(c)
            << "\nnative Zp:   " << zp_nf.to_string(c);
      }
    }
  }
}

TEST(ZpDiffTest, LiftedMultimodularBasisIsCoefficientIdenticalToExact) {
  // The full circle: per-prime Zp bases, CRT-lifted and rationally
  // reconstructed, must land on the very same primitive integer polynomials
  // as the exact engine — not just the same ideal.
  PolySystem sys = load_problem("trinks1");
  std::vector<Polynomial> exact = reduce_basis(sys.ctx, groebner_sequential(sys).basis);
  ModularConfig cfg;
  ModularResult res = groebner_multimodular(sys, cfg);
  EXPECT_TRUE(res.stats.verified);
  EXPECT_FALSE(res.stats.used_exact_fallback);
  ASSERT_EQ(res.basis.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_TRUE(res.basis[i].equals(exact[i])) << "element " << i;
  }
}

// --- reduce_basis against the copying oracle --------------------------------

/// The system with its terms re-sorted under `order` (elimination block: the
/// first half of the variables).
PolySystem reordered(const PolySystem& sys, OrderKind order) {
  PolySystem out = sys;
  out.ctx.order = order;
  out.ctx.elim_vars = sys.ctx.nvars() / 2;
  out.polys.clear();
  for (const auto& p : sys.polys) {
    std::vector<Term> terms(p.terms().begin(), p.terms().end());
    out.polys.push_back(Polynomial::from_terms(out.ctx, std::move(terms)));
  }
  return out;
}

/// What one call charged: cost units and reducer-lookup work.
struct Charges {
  std::uint64_t units = 0;
  std::uint64_t calls = 0;
  std::uint64_t probes = 0;
  std::uint64_t divides = 0;
};

template <typename F>
Charges charges_of(F&& f) {
  const FindReducerStats f0 = find_reducer_stats();
  CostScope cost;
  f();
  const FindReducerStats f1 = find_reducer_stats();
  return Charges{cost.elapsed(), f1.calls - f0.calls, f1.probes - f0.probes,
                 f1.divides_calls - f0.divides_calls};
}

void expect_same_polys(const PolyContext& ctx, const std::vector<Polynomial>& got,
                       const std::vector<Polynomial>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].equals(want[i]))
        << label << " element " << i << "\n  got:  " << got[i].to_string(ctx)
        << "\n  want: " << want[i].to_string(ctx);
  }
}

/// reduce_basis and the copying oracle on one input: identical polynomials.
/// The exact path must also charge identical units and reducer-lookup work.
/// The Zp path is one Macaulay matrix; it returns what it charged.
Charges expect_reduce_basis_matches_oracle(const PolyContext& ctx,
                                           const std::vector<Polynomial>& input,
                                           const CoeffOptions& coeff, const std::string& label) {
  std::vector<Polynomial> want, got;
  const Charges w = charges_of([&] { want = oracle::copying_reduce_basis(ctx, input, coeff); });
  const Charges g = charges_of([&] { got = reduce_basis(ctx, input, coeff); });
  expect_same_polys(ctx, got, want, label);
  if (!coeff.is_zp()) {
    EXPECT_EQ(g.units, w.units) << label;
    EXPECT_EQ(g.calls, w.calls) << label;
    EXPECT_EQ(g.probes, w.probes) << label;
    EXPECT_EQ(g.divides, w.divides) << label;
  }
  return g;
}

/// Charged units (one per kZpDiffPrimes entry) and find_reducer probes of
/// the Zp matrix reduce_basis, recorded when the matrix path moved to
/// charges from counts (DESIGN.md §20). Identical for either sweep
/// dispatch (GBD_DISABLE_SIMD). On duplicate heads the 62-bit prime charges
/// more, by as much as it does in the oracle: the extra is in the input
/// normalization both share. The per-poly path this replaced charged, for
/// example, 732 units and 155 probes on arnborg4 lex raw, and 26649 units
/// and 3540 probes on katsura4 elim raw.
struct ZpPin {
  const char* cell;
  std::uint64_t units[3];
  std::uint64_t probes;
};
const ZpPin kZpReduceBasisPins[] = {
    {"arnborg4 lex raw", {852, 852, 852}, 162},
    {"arnborg4 lex dup", {1717, 1717, 1805}, 162},
    {"arnborg4 grlex raw", {621, 621, 621}, 168},
    {"arnborg4 grlex dup", {1145, 1145, 1193}, 168},
    {"arnborg4 grevlex raw", {1030, 1030, 1030}, 287},
    {"arnborg4 grevlex dup", {1576, 1576, 1616}, 287},
    {"arnborg4 elim raw", {653, 653, 653}, 120},
    {"arnborg4 elim dup", {1341, 1341, 1409}, 120},
    {"katsura4 grlex raw", {7610, 7610, 7610}, 976},
    {"katsura4 grlex dup", {9819, 9819, 10103}, 976},
    {"katsura4 grevlex raw", {7569, 7569, 7569}, 1079},
    {"katsura4 grevlex dup", {9105, 9105, 9289}, 1079},
    {"katsura4 elim raw", {8503, 8503, 8503}, 494},
    {"katsura4 elim dup", {16510, 16510, 18306}, 494},
    {"trinks1 grlex raw", {4995, 4995, 4995}, 756},
    {"trinks1 grlex dup", {6554, 6554, 6734}, 756},
    {"trinks1 grevlex raw", {4651, 4651, 4651}, 676},
    {"trinks1 grevlex dup", {6116, 6116, 6304}, 676},
    {"trinks1 elim raw", {2322, 2322, 2322}, 225},
    {"trinks1 elim dup", {3535, 3535, 3651}, 225},
};

TEST(ReduceBasisOracleTest, MatchesCopyingOracleInEveryOrderAndField) {
  std::vector<CoeffOptions> fields = {CoeffOptions{}};
  for (std::uint64_t prime : kZpDiffPrimes) fields.push_back(CoeffOptions::zp(prime));
  std::map<std::string, ZpPin> pins;
  for (const ZpPin& pin : kZpReduceBasisPins) pins.emplace(pin.cell, pin);
  for (const std::string name : {"arnborg4", "katsura4", "trinks1"}) {
    for (OrderKind order :
         {OrderKind::kLex, OrderKind::kGrLex, OrderKind::kGRevLex, OrderKind::kElim}) {
      // Exact lex bases of the larger inputs take far too long to compute.
      if (order == OrderKind::kLex && name != "arnborg4") continue;
      PolySystem sys = reordered(load_problem(name), order);
      for (std::size_t f = 0; f < fields.size(); ++f) {
        const CoeffOptions& coeff = fields[f];
        GbConfig cfg;
        cfg.coeff = coeff;
        const std::vector<Polynomial> raw = groebner_sequential(sys, cfg).basis;
        const std::string cell = name + " " + order_name(order);
        const std::string label = cell + " " + coeff.to_string();
        auto check_pin = [&](const Charges& got, const std::string& input) {
          if (!coeff.is_zp()) return;
          auto it = pins.find(cell + " " + input);
          ASSERT_NE(it, pins.end()) << "no pin for " << cell << " " << input;
          EXPECT_EQ(got.units, it->second.units[f - 1]) << label << " " << input;
          EXPECT_EQ(got.probes, it->second.probes) << label << " " << input;
        };
        // The engine's raw basis: many elements whose heads others divide.
        check_pin(expect_reduce_basis_matches_oracle(sys.ctx, raw, coeff, label + " raw"), "raw");

        // Duplicate heads: every element twice (once scaled), and once more
        // with its tail changed by a smaller-headed element of the ideal.
        // Minimization keeps the first of each equal head, in both versions.
        std::vector<Polynomial> dup;
        for (std::size_t i = 0; i < raw.size(); ++i) {
          const Polynomial& g = raw[i];
          dup.push_back(g);
          dup.push_back(g.mul_term(BigInt(3), Monomial(sys.ctx.nvars())));
          for (const Polynomial& h : raw) {
            if (sys.ctx.cmp(h.hmono(), g.hmono()) < 0) {
              dup.push_back(g.add(sys.ctx, h));
              break;
            }
          }
        }
        check_pin(expect_reduce_basis_matches_oracle(sys.ctx, dup, coeff,
                                                     label + " duplicate heads"),
                  "dup");
      }
    }
  }
}

TEST(ReduceBasisOracleTest, EdgeInputsMatchOracleInEveryField) {
  std::vector<CoeffOptions> fields = {CoeffOptions{}};
  for (std::uint64_t prime : kZpDiffPrimes) fields.push_back(CoeffOptions::zp(prime));
  struct Case {
    const char* what;
    std::vector<const char*> basis;  // each a Gröbner basis in both orders below
    std::size_t reduced_size;
  };
  const std::vector<Case> cases = {
      // A constant makes the ideal the whole ring: the reduced basis is {1}.
      {"unit ideal", {"x*y + 1", "3", "y^2 - x", "x - 2"}, 1},
      {"unit ideal alone", {"5"}, 1},
      // One-term elements: a monomial ideal (one element redundant), and
      // one-term elements beside a binomial.
      {"monomials", {"x^2", "x*y", "y^3", "x^2*y"}, 3},
      {"monomials and a binomial", {"x^2", "y^3", "x*y - y^2"}, 3},
      // A tail term equal to another minimal element's head.
      {"tail is a head", {"x - y", "y - 1"}, 2},
      {"tail is a head twice", {"x^3 - y^2 - z^2", "y^2 - z^2", "z^2 - 1"}, 3},
  };
  for (OrderKind order : {OrderKind::kLex, OrderKind::kGrLex}) {
    PolyContext ctx{{"x", "y", "z"}, order};
    for (const Case& c : cases) {
      std::vector<Polynomial> input;
      for (const char* text : c.basis) input.push_back(parse_poly_or_die(ctx, text));
      for (const CoeffOptions& coeff : fields) {
        const std::string label =
            std::string(c.what) + " " + order_name(order) + " " + coeff.to_string();
        ASSERT_TRUE(is_groebner_basis(ctx, input, nullptr, coeff)) << label;
        expect_reduce_basis_matches_oracle(ctx, input, coeff, label);
        std::vector<Polynomial> got = reduce_basis(ctx, input, coeff);
        ASSERT_EQ(got.size(), c.reduced_size) << label;
        for (const Polynomial& g : got) {
          EXPECT_EQ(zp_residue_u64(g.hcoef()), 1u) << label << " not monic";
        }
      }
    }
  }
}

// --- interreduce against the copying oracle ----------------------------------

TEST(InterreduceOracleTest, MatchesCopyingOracleOnInterreduceInputRuns) {
  std::vector<CoeffOptions> fields = {CoeffOptions{}};
  for (std::uint64_t prime : kZpDiffPrimes) fields.push_back(CoeffOptions::zp(prime));
  auto check = [&](const PolySystem& sys, const std::string& name) {
    for (const CoeffOptions& coeff : fields) {
      const std::string label = name + " " + coeff.to_string();
      std::vector<Polynomial> want, got;
      const Charges w =
          charges_of([&] { want = oracle::copying_interreduce(sys.ctx, sys.polys, coeff); });
      const Charges g = charges_of([&] { got = interreduce(sys.ctx, sys.polys, coeff); });
      expect_same_polys(sys.ctx, got, want, label);
      EXPECT_EQ(g.units, w.units) << label;
      EXPECT_EQ(g.calls, w.calls) << label;
      EXPECT_EQ(g.probes, w.probes) << label;
      EXPECT_EQ(g.divides, w.divides) << label;
      // The engine's interreduce_input path runs the library version.
      GbConfig cfg;
      cfg.coeff = coeff;
      cfg.interreduce_input = true;
      EXPECT_TRUE(verify_groebner_result(sys.ctx, sys.polys, groebner_sequential(sys, cfg).basis,
                                         nullptr, coeff))
          << label;
    }
  };
  for (const std::string name : {"arnborg4", "katsura4", "trinks1", "trinks2"}) {
    check(load_problem(name), name);
  }
  // Random generating sets: elements reduce to zero, get replaced and reduce
  // others again, so every branch of the loop runs.
  Rng rng(0x1A7E);
  for (int k = 0; k < 12; ++k) {
    PolySystem sys = random_system(rng, 3, 6, 3, 4, 20);
    sys.polys.push_back(sys.polys[0].add(sys.ctx, sys.polys[1]));
    sys.polys.push_back(sys.polys[2].mul_term(BigInt(2), Monomial(sys.ctx.nvars())));
    check(sys, "random " + std::to_string(k));
  }
}

// --- divmask -----------------------------------------------------------------

TEST(DivmaskTest, FilterIsSound) {
  for (std::size_t nvars : {1u, 3u, 7u, 13u, 70u}) {
    DivMaskRuler ruler(nvars);
    Rng rng(0xD1FF ^ nvars);
    for (int iter = 0; iter < 2000; ++iter) {
      Monomial a = random_monomial(rng, nvars, 6);
      Monomial b = random_monomial(rng, nvars, 6);
      if (a.divides(b)) {
        EXPECT_TRUE(DivMaskRuler::may_divide(ruler.mask(a), ruler.mask(b)));
      }
      // A monomial always divides itself and its multiples.
      Monomial ab = a * b;
      EXPECT_TRUE(DivMaskRuler::may_divide(ruler.mask(a), ruler.mask(ab)));
      EXPECT_TRUE(DivMaskRuler::may_divide(ruler.mask(b), ruler.mask(ab)));
    }
  }
}

TEST(DivmaskTest, FilterActuallyRejects) {
  // Not a correctness property, but the point of the index: on disjoint
  // supports the mask must reject without an exponent walk.
  DivMaskRuler ruler(4);
  Monomial x = Monomial({1, 0, 0, 0});
  Monomial y3 = Monomial({0, 3, 0, 0});
  EXPECT_FALSE(DivMaskRuler::may_divide(ruler.mask(x), ruler.mask(y3)));
}

class DivmaskFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DivmaskFuzzTest, IndexedFindReducerMatchesLinearScan) {
  Rng rng(GetParam());
  PolySystem sys = random_system(rng, 4, 10, 4, 4, 30);
  std::vector<Polynomial> basis;
  VectorReducerSet set(&basis);
  auto check_queries = [&](int n) {
    for (int q = 0; q < n; ++q) {
      Monomial m = random_monomial(rng, 4, 5);
      if (!basis.empty() && rng.below(2)) {
        // Bias toward hits: query a multiple of some head.
        m = basis[rng.below(basis.size())].hmono() * m;
      }
      std::uint64_t got_id = ~0ull, want_id = ~0ull;
      const Polynomial* got = set.find_reducer(m, &got_id);
      const Polynomial* want = linear_scan(basis, m, &want_id);
      ASSERT_EQ(got, want);
      if (want != nullptr) ASSERT_EQ(got_id, want_id);
    }
  };
  // Grow the backing vector between query rounds: the lazy mask extension
  // must pick up appended elements (the engines' append-only usage).
  for (auto& p : sys.polys) {
    p.make_primitive();
    basis.push_back(std::move(p));
    check_queries(25);
  }
}

TEST_P(DivmaskFuzzTest, ReplicatedBasisUnderChaosMatchesLinearScan) {
  // Chaos mode jitters, reorders and duplicates the invalidate/ack/fetch/body
  // traffic while every processor adds elements and validates; at every
  // stage each processor's divmask-indexed ReducerView must agree with a
  // linear scan over whatever its local replica happens to hold.
  const int kP = 4;
  ChaosConfig chaos = ChaosConfig::intensity(2, GetParam());
  chaos.dup_safe = {kBaInvalidate, kBaInvAck, kBaFetch, kBaBody};
  SimMachine m(kP, CostModel{}, chaos);

  Rng gen(GetParam() ^ 0xFEED);
  PolySystem sys = random_system(gen, 3, 2 * kP, 3, 4, 20);
  for (auto& p : sys.polys) p.make_primitive();

  m.run([&](Proc& self) {
    ReplicatedBasis basis(self);
    Rng qrng(GetParam() ^ static_cast<std::uint64_t>(self.id()));
    auto cross_check = [&]() {
      // Reference: the same preference policy over the local replica.
      std::vector<Polynomial> local;
      for (PolyId id : basis.local_ids()) local.push_back(*basis.find(id));
      for (int q = 0; q < 20; ++q) {
        Monomial mono = random_monomial(qrng, 3, 4);
        if (!local.empty() && qrng.below(2)) {
          mono = local[qrng.below(local.size())].hmono() * mono;
        }
        std::uint64_t got_id = 0, want_i = 0;
        const Polynomial* got = basis.reducer_set().find_reducer(mono, &got_id);
        const Polynomial* want = linear_scan(local, mono, &want_i);
        if (want == nullptr) {
          ASSERT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          ASSERT_TRUE(got->equals(*want));
          ASSERT_EQ(got_id, basis.local_ids()[want_i]);
        }
      }
    };
    // Each processor adds two elements, one at a time, round-robin by id.
    for (int round = 0; round < 2; ++round) {
      for (int owner = 0; owner < kP; ++owner) {
        if (owner == self.id()) {
          add_one(basis, sys.polys[static_cast<std::size_t>(2 * owner + round)]);
          while (!basis.add_done()) {
            ASSERT_TRUE(self.wait());
          }
        } else {
          // Drain protocol traffic until the adder's element is known here.
          PolyId expect = make_poly_id(owner, static_cast<std::uint32_t>(round));
          while (!basis.known(expect)) {
            ASSERT_TRUE(self.wait());
          }
        }
        cross_check();
      }
      // Re-issue begin_validate on every wake: a later turn's invalidation
      // can land mid-validation (in-flight fetches dedup, so this is safe).
      while (!basis.valid()) {
        basis.begin_validate();
        ASSERT_TRUE(self.wait());
      }
      cross_check();
    }
    while (self.wait()) {
    }
    // Everything settled: replicas are complete and must still agree.
    EXPECT_EQ(basis.replica_size(), static_cast<std::size_t>(2 * kP));
    cross_check();
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivmaskFuzzTest,
                         ::testing::Values(0x101, 0x202, 0x303, 0x404, 0x505, 0x606));

}  // namespace
}  // namespace gbd
