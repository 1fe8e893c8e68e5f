// Unit and property tests for monomials and monomial orderings.
#include "poly/monomial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "oracles.hpp"
#include "problems/problems.hpp"
#include "support/cost.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace gbd {
namespace {

Monomial mono(std::vector<std::uint32_t> e) { return Monomial(std::move(e)); }

Monomial random_mono(Rng& rng, std::size_t nvars, std::uint32_t maxexp) {
  std::vector<std::uint32_t> e(nvars);
  for (auto& x : e) x = static_cast<std::uint32_t>(rng.below(maxexp + 1));
  return Monomial(std::move(e));
}

TEST(MonomialTest, UnitMonomial) {
  Monomial one(3);
  EXPECT_TRUE(one.is_one());
  EXPECT_EQ(one.degree(), 0u);
  EXPECT_EQ(one.to_string({"x", "y", "z"}), "1");
}

TEST(MonomialTest, DegreeCaching) {
  EXPECT_EQ(mono({2, 3, 0}).degree(), 5u);
  EXPECT_EQ((mono({2, 3, 0}) * mono({1, 0, 4})).degree(), 10u);
}

TEST(MonomialTest, MultiplicationAddsExponents) {
  Monomial p = mono({2, 1, 0}) * mono({0, 3, 5});
  EXPECT_EQ(p.exp(0), 2u);
  EXPECT_EQ(p.exp(1), 4u);
  EXPECT_EQ(p.exp(2), 5u);
}

TEST(MonomialTest, Divisibility) {
  EXPECT_TRUE(mono({1, 0, 2}).divides(mono({2, 0, 2})));
  EXPECT_FALSE(mono({1, 0, 3}).divides(mono({2, 0, 2})));
  EXPECT_TRUE(Monomial(3).divides(mono({5, 5, 5})));  // 1 divides everything
  EXPECT_FALSE(mono({0, 0, 1}).divides(Monomial(3)));
}

TEST(MonomialTest, QuotientSubtractsExponents) {
  Monomial q = mono({3, 2, 2}) / mono({1, 0, 2});
  EXPECT_EQ(q.exp(0), 2u);
  EXPECT_EQ(q.exp(1), 2u);
  EXPECT_EQ(q.exp(2), 0u);
  EXPECT_EQ(q.degree(), 4u);
}

TEST(MonomialTest, HcfLcm) {
  Monomial a = mono({3, 0, 2});
  Monomial b = mono({1, 4, 2});
  Monomial h = Monomial::hcf(a, b);
  Monomial l = Monomial::lcm(a, b);
  EXPECT_EQ(h.exp(0), 1u);
  EXPECT_EQ(h.exp(1), 0u);
  EXPECT_EQ(h.exp(2), 2u);
  EXPECT_EQ(l.exp(0), 3u);
  EXPECT_EQ(l.exp(1), 4u);
  EXPECT_EQ(l.exp(2), 2u);
}

TEST(MonomialTest, Coprime) {
  EXPECT_TRUE(Monomial::coprime(mono({2, 0, 0}), mono({0, 3, 1})));
  EXPECT_FALSE(Monomial::coprime(mono({2, 1, 0}), mono({0, 3, 1})));
  EXPECT_TRUE(Monomial::coprime(Monomial(3), mono({1, 1, 1})));
}

TEST(MonomialTest, ToStringFormats) {
  EXPECT_EQ(mono({2, 1, 0}).to_string({"x", "y", "z"}), "x^2*y");
  EXPECT_EQ(mono({0, 0, 1}).to_string({"x", "y", "z"}), "z");
  EXPECT_EQ(mono({1, 1, 1}).to_string({"x", "y", "z"}), "x*y*z");
}

TEST(MonomialTest, LexOrder) {
  // x > y^5 under lex with x > y.
  EXPECT_GT(mono_cmp(OrderKind::kLex, mono({1, 0}), mono({0, 5})), 0);
  EXPECT_GT(mono_cmp(OrderKind::kLex, mono({2, 0}), mono({1, 9})), 0);
  EXPECT_LT(mono_cmp(OrderKind::kLex, mono({1, 1}), mono({1, 2})), 0);
  EXPECT_EQ(mono_cmp(OrderKind::kLex, mono({1, 2}), mono({1, 2})), 0);
}

TEST(MonomialTest, GrLexOrder) {
  // degree dominates; lex breaks ties.
  EXPECT_LT(mono_cmp(OrderKind::kGrLex, mono({1, 0}), mono({0, 5})), 0);
  EXPECT_GT(mono_cmp(OrderKind::kGrLex, mono({2, 1}), mono({1, 2})), 0);
}

TEST(MonomialTest, GRevLexOrder) {
  // Classic discriminating example: x*z vs y^2 (degree 2 each, vars x,y,z):
  // grlex has x*z > y^2, grevlex has y^2 > x*z.
  Monomial xz = mono({1, 0, 1});
  Monomial y2 = mono({0, 2, 0});
  EXPECT_GT(mono_cmp(OrderKind::kGrLex, xz, y2), 0);
  EXPECT_LT(mono_cmp(OrderKind::kGRevLex, xz, y2), 0);
  // Degree still dominates.
  EXPECT_GT(mono_cmp(OrderKind::kGRevLex, mono({0, 3, 0}), xz), 0);
}

TEST(MonomialTest, SerializationRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    Monomial m = random_mono(rng, 5, 9);
    Writer w;
    m.write(w);
    Reader r(w.data());
    Monomial back = Monomial::read(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back, m);
    EXPECT_EQ(back.degree(), m.degree());
    EXPECT_EQ(m.wire_size(), w.size());
  }
}

// ---------------------------------------------------------------------------
// Order-axiom properties for every ordering.

class OrderPropertyTest : public ::testing::TestWithParam<OrderKind> {};

TEST_P(OrderPropertyTest, TotalOrderAxioms) {
  OrderKind kind = GetParam();
  Rng rng(42 + static_cast<int>(kind));
  for (int iter = 0; iter < 50; ++iter) {
    Monomial a = random_mono(rng, 4, 6);
    Monomial b = random_mono(rng, 4, 6);
    Monomial c = random_mono(rng, 4, 6);
    // Antisymmetry.
    EXPECT_EQ(mono_cmp(kind, a, b), -mono_cmp(kind, b, a));
    // Reflexivity via equality.
    EXPECT_EQ(mono_cmp(kind, a, a), 0);
    EXPECT_EQ(mono_cmp(kind, a, b) == 0, a == b);
    // Transitivity (checked in one direction).
    if (mono_cmp(kind, a, b) <= 0 && mono_cmp(kind, b, c) <= 0) {
      EXPECT_LE(mono_cmp(kind, a, c), 0);
    }
  }
}

TEST_P(OrderPropertyTest, AdmissibilityAxioms) {
  // An admissible order has 1 <= m for all m and is multiplicative:
  // a < b implies a*c < b*c. Both are what Buchberger termination needs.
  OrderKind kind = GetParam();
  Rng rng(99 + static_cast<int>(kind));
  for (int iter = 0; iter < 50; ++iter) {
    Monomial a = random_mono(rng, 4, 5);
    Monomial b = random_mono(rng, 4, 5);
    Monomial c = random_mono(rng, 4, 5);
    EXPECT_LE(mono_cmp(kind, Monomial(4), a), 0);  // 1 <= a
    int ab = mono_cmp(kind, a, b);
    int acbc = mono_cmp(kind, a * c, b * c);
    EXPECT_EQ(ab < 0, acbc < 0);
    EXPECT_EQ(ab == 0, acbc == 0);
  }
}

TEST_P(OrderPropertyTest, DivisorNotLarger) {
  // If a | b then a <= b in any admissible order.
  OrderKind kind = GetParam();
  Rng rng(123 + static_cast<int>(kind));
  for (int iter = 0; iter < 50; ++iter) {
    Monomial b = random_mono(rng, 4, 6);
    std::vector<std::uint32_t> e(4);
    for (std::size_t i = 0; i < 4; ++i)
      e[i] = static_cast<std::uint32_t>(rng.below(b.exp(i) + 1));
    Monomial a(std::move(e));
    ASSERT_TRUE(a.divides(b));
    EXPECT_LE(mono_cmp(kind, a, b), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, OrderPropertyTest,
                         ::testing::Values(OrderKind::kLex, OrderKind::kGrLex,
                                           OrderKind::kGRevLex),
                         [](const ::testing::TestParamInfo<OrderKind>& info) {
                           return order_name(info.param);
                         });


// ---------------------------------------------------------------------------
// The inline/heap storage boundary. Monomial keeps up to kInlineVars
// exponents inline and spills wider vectors to the heap; every operation must
// behave identically on both sides, checked against the plain-vector oracle
// (tests/oracles.hpp). Widths: empty, one variable, exactly the inline
// capacity, one past it, and the 48 variables of the paper's replicated
// trinks1 input.

constexpr std::size_t kCap = Monomial::kInlineVars;

class MonomialWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST(MonomialStorageTest, LayoutIsCompact) {
  EXPECT_EQ(sizeof(Monomial), 48u);
  EXPECT_EQ(replicate_renamed(load_problem("trinks1"), 8).ctx.nvars(), 48u);
}

TEST_P(MonomialWidthTest, CopyMoveSelfAssignmentAndSwap) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  const Monomial a = random_mono(rng, n, 9);
  const Monomial b = random_mono(rng, n, 9);
  const oracle::VecMonomial va(a);

  Monomial copy(a);
  EXPECT_EQ(copy, a);
  EXPECT_TRUE(va.same_as(copy));

  // Copy assignment over every other width, both directions of the boundary.
  for (std::size_t w : {std::size_t{0}, std::size_t{1}, kCap, kCap + 1, std::size_t{48}}) {
    Monomial other = random_mono(rng, w, 5);
    const Monomial other_before = other;
    other = a;
    EXPECT_EQ(other, a) << "width " << w << " <- " << n;
    copy = other_before;
    EXPECT_EQ(copy, other_before) << "width " << n << " <- " << w;
    copy = a;
  }
  EXPECT_TRUE(va.same_as(a)) << "assignments must not alias the source";

  // Move construction and assignment; the moved-from object stays usable.
  Monomial src(a);
  Monomial moved(std::move(src));
  EXPECT_TRUE(va.same_as(moved));
  src = b;
  EXPECT_EQ(src, b);
  Monomial target = random_mono(rng, 48, 3);
  target = std::move(moved);
  EXPECT_TRUE(va.same_as(target));
  moved = a;
  EXPECT_EQ(moved, a);

  // Self-assignment, through aliases so the compiler cannot see it.
  Monomial self(a);
  Monomial& alias = self;
  self = alias;
  EXPECT_TRUE(va.same_as(self));
  self = std::move(alias);
  EXPECT_TRUE(va.same_as(self));

  // Swap with a same-width value and across the boundary.
  Monomial x(a), y(b);
  std::swap(x, y);
  EXPECT_EQ(x, b);
  EXPECT_EQ(y, a);
  Monomial wide = random_mono(rng, 48, 4);
  const Monomial wide_before = wide;
  std::swap(x, wide);
  EXPECT_EQ(x, wide_before);
  EXPECT_EQ(wide, b);
}

TEST_P(MonomialWidthTest, EqualValuesFromDifferentPathsAreEqualAndHashEqual) {
  const std::size_t n = GetParam();
  Rng rng(2000 + n);
  for (int iter = 0; iter < 20; ++iter) {
    const Monomial a = random_mono(rng, n, 6);
    const Monomial b = random_mono(rng, n, 6);
    const oracle::VecMonomial vab = oracle::VecMonomial(a).mul(oracle::VecMonomial(b));
    const Monomial direct(vab.e);
    Writer w;
    direct.write(w);
    Reader r(w.data());
    const Monomial paths[] = {
        a * b,
        b * a,
        ((a * b) * b) / b,
        Monomial::lcm(a * b, a),
        Monomial::hcf(a * b, (a * b) * a),
        Monomial::read(r),
        Monomial(n) * (a * b),
    };
    for (const Monomial& m : paths) {
      EXPECT_EQ(m, direct);
      EXPECT_FALSE(m != direct);
      EXPECT_EQ(m.degree(), vab.degree());
      EXPECT_EQ(m.hash(), direct.hash());
      EXPECT_EQ(m.hash(), vab.hash());
    }
  }
}

TEST_P(MonomialWidthTest, SerializationRoundTripKeepsWireFormat) {
  const std::size_t n = GetParam();
  Rng rng(3000 + n);
  for (int iter = 0; iter < 10; ++iter) {
    const Monomial m = random_mono(rng, n, 1000);
    Writer w;
    m.write(w);
    EXPECT_EQ(w.data(), oracle::VecMonomial(m).wire());
    EXPECT_EQ(m.wire_size(), w.size());
    EXPECT_EQ(m.wire_size(), 8 + 4 * n);
    Reader r(w.data());
    Monomial back = Monomial::read(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back, m);
    EXPECT_EQ(back.degree(), m.degree());
  }
}

TEST_P(MonomialWidthTest, ArithmeticMatchesVectorOracleAndChargesPerVariable) {
  const std::size_t n = GetParam();
  Rng rng(4000 + n);
  for (int iter = 0; iter < 50; ++iter) {
    const Monomial a = random_mono(rng, n, 4);
    const Monomial b = random_mono(rng, n, 4);
    const oracle::VecMonomial va(a), vb(b);
    {
      CostScope cost;
      EXPECT_TRUE(va.mul(vb).same_as(a * b));
      EXPECT_EQ(cost.elapsed(), n);
    }
    EXPECT_TRUE(va.hcf(vb).same_as(Monomial::hcf(a, b)));
    EXPECT_TRUE(va.lcm(vb).same_as(Monomial::lcm(a, b)));
    EXPECT_EQ(a.divides(b), va.divides(vb));
    EXPECT_EQ(Monomial::coprime(a, b), va.coprime(vb));
    const Monomial ab = a * b;
    {
      CostScope cost;
      EXPECT_TRUE(ab.divides(ab));
      EXPECT_TRUE(va.same_as(ab / b));
      EXPECT_EQ(cost.elapsed(), 2 * n);
    }
    EXPECT_EQ(a.is_one(), va.degree() == 0);
  }
}

TEST_P(MonomialWidthTest, OrderAxiomsHoldAndMatchOracleInEveryOrder) {
  const std::size_t n = GetParam();
  for (OrderKind kind :
       {OrderKind::kLex, OrderKind::kGrLex, OrderKind::kGRevLex, OrderKind::kElim}) {
    const std::size_t elim = n / 2;
    Rng rng(5000 + n * 8 + static_cast<std::size_t>(kind));
    for (int iter = 0; iter < 40; ++iter) {
      const Monomial a = random_mono(rng, n, 3);
      const Monomial b = random_mono(rng, n, 3);
      const Monomial c = random_mono(rng, n, 3);
      const int ab = mono_cmp(kind, a, b, elim);
      EXPECT_EQ(ab, oracle::vec_cmp(kind, oracle::VecMonomial(a), oracle::VecMonomial(b), elim))
          << order_name(kind);
      EXPECT_EQ(ab, -mono_cmp(kind, b, a, elim));
      EXPECT_EQ(ab == 0, a == b);
      EXPECT_LE(mono_cmp(kind, Monomial(n), a, elim), 0);  // 1 <= a
      if (ab <= 0 && mono_cmp(kind, b, c, elim) <= 0) {
        EXPECT_LE(mono_cmp(kind, a, c, elim), 0);
      }
      const int acbc = mono_cmp(kind, a * c, b * c, elim);
      EXPECT_EQ(ab < 0, acbc < 0);
      EXPECT_EQ(ab == 0, acbc == 0);
      EXPECT_LE(mono_cmp(kind, a, a * c, elim), 0);  // a divisor is not larger
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MonomialWidthTest,
                         ::testing::Values(std::size_t{0}, std::size_t{1}, kCap, kCap + 1,
                                           std::size_t{48}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "nvars" + std::to_string(info.param);
                         });

TEST(MonomialStorageTest, ReplicatedTrinksMonomialsMatchOracle) {
  // The paper's own 48-variable input: every generator's monomials, their
  // pairwise products and order against the oracle under the system's order.
  PolySystem sys = replicate_renamed(load_problem("trinks1"), 8);
  std::vector<Monomial> monos;
  for (const Polynomial& p : sys.polys)
    for (const Term& t : p.terms()) monos.push_back(t.mono);
  ASSERT_GT(monos.size(), 8u);
  for (std::size_t i = 0; i < monos.size(); ++i) {
    const std::size_t j = (i * 7 + 3) % monos.size();
    const oracle::VecMonomial vi(monos[i]), vj(monos[j]);
    EXPECT_TRUE(vi.mul(vj).same_as(monos[i] * monos[j]));
    EXPECT_EQ(sys.ctx.cmp(monos[i], monos[j]),
              oracle::vec_cmp(sys.ctx.order, vi, vj, sys.ctx.elim_vars));
    EXPECT_EQ(monos[i].hash(), vi.hash());
  }
}

}  // namespace
}  // namespace gbd
