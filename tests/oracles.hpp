// Reference implementations kept only as differential-test oracles.
//
//   · VecMonomial — a monomial stored as a plain std::vector of exponents,
//     the storage Monomial had before it kept exponents inline. Its
//     operations are written the obvious way, one exponent at a time, and
//     Monomial must agree with them bit for bit at every width, on both
//     sides of the inline/heap boundary (Monomial::kInlineVars).
//   · copying_reduce_basis — reduce_basis as first written: every element is
//     tail-reduced against a fresh vector holding copies of all the others.
//     Both must return the same polynomials. The library's exact path
//     reduces against one set over the whole minimal basis that refuses only
//     the element itself and must also charge the same cost units; its Zp
//     path is one Macaulay matrix and charges what the matrix kernel does.
//   · copying_interreduce — interreduce as first written: a fresh vector of
//     copies of the others per element visited. The library reduces against
//     one set over the working vector that refuses only the element itself;
//     both must return the same polynomials and charge the same cost units.
//   · zp_interreduce_polys — stage 2 of the Zp echelon kernel as first
//     written, on Polynomials: zp_combine merges on monomial order. The
//     library runs it on the sweep's (column, residue) rows, merging on
//     column order; both must keep the same rows, zero the same sources and
//     charge the same cost units.
//   · all_pairs_is_groebner_basis — is_groebner_basis as first written:
//     every pair except the coprime ones, each s-polynomial reduced on its
//     own by reduce_full. The library reduces only the pairs the
//     Gebauer–Möller criteria keep, together with the input generators, as
//     one Macaulay batch; both must accept and reject the same sets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "poly/coeff.hpp"
#include "poly/echelon.hpp"
#include "poly/monomial.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "support/check.hpp"
#include "support/serialize.hpp"

namespace gbd {
namespace oracle {

struct VecMonomial {
  std::vector<std::uint32_t> e;

  explicit VecMonomial(std::vector<std::uint32_t> exps) : e(std::move(exps)) {}
  explicit VecMonomial(const Monomial& m) {
    for (std::size_t i = 0; i < m.nvars(); ++i) e.push_back(m.exp(i));
  }

  std::uint32_t degree() const { return std::accumulate(e.begin(), e.end(), 0u); }

  VecMonomial mul(const VecMonomial& o) const {
    VecMonomial out(e);
    for (std::size_t i = 0; i < e.size(); ++i) out.e[i] += o.e[i];
    return out;
  }
  VecMonomial div(const VecMonomial& o) const {
    VecMonomial out(e);
    for (std::size_t i = 0; i < e.size(); ++i) out.e[i] -= o.e[i];
    return out;
  }
  bool divides(const VecMonomial& o) const {
    for (std::size_t i = 0; i < e.size(); ++i)
      if (e[i] > o.e[i]) return false;
    return true;
  }
  VecMonomial hcf(const VecMonomial& o) const {
    VecMonomial out(e);
    for (std::size_t i = 0; i < e.size(); ++i) out.e[i] = std::min(e[i], o.e[i]);
    return out;
  }
  VecMonomial lcm(const VecMonomial& o) const {
    VecMonomial out(e);
    for (std::size_t i = 0; i < e.size(); ++i) out.e[i] = std::max(e[i], o.e[i]);
    return out;
  }
  bool coprime(const VecMonomial& o) const {
    for (std::size_t i = 0; i < e.size(); ++i)
      if (e[i] != 0 && o.e[i] != 0) return false;
    return true;
  }

  /// FNV-1a over the exponents: the hash Monomial::hash has always used.
  std::size_t hash() const {
    std::size_t h = 1469598103934665603ULL;
    for (std::uint32_t x : e) {
      h ^= x;
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// Wire bytes: the length-prefixed word run Monomial::write emits.
  std::vector<std::uint8_t> wire() const {
    Writer w;
    w.words(e);
    return w.take();
  }

  bool same_as(const Monomial& m) const {
    if (m.nvars() != e.size() || m.degree() != degree()) return false;
    for (std::size_t i = 0; i < e.size(); ++i)
      if (m.exp(i) != e[i]) return false;
    return true;
  }
};

/// grlex restricted to the variables [lo, hi).
inline int grlex_range(const VecMonomial& a, const VecMonomial& b, std::size_t lo,
                       std::size_t hi) {
  std::uint32_t da = 0, db = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    da += a.e[i];
    db += b.e[i];
  }
  if (da != db) return da < db ? -1 : 1;
  for (std::size_t i = lo; i < hi; ++i)
    if (a.e[i] != b.e[i]) return a.e[i] < b.e[i] ? -1 : 1;
  return 0;
}

/// The monomial orders, written straight from their definitions.
inline int vec_cmp(OrderKind kind, const VecMonomial& a, const VecMonomial& b,
                   std::size_t elim_vars) {
  const std::size_t n = a.e.size();
  switch (kind) {
    case OrderKind::kLex:
      for (std::size_t i = 0; i < n; ++i)
        if (a.e[i] != b.e[i]) return a.e[i] < b.e[i] ? -1 : 1;
      return 0;
    case OrderKind::kGrLex:
      return grlex_range(a, b, 0, n);
    case OrderKind::kGRevLex: {
      if (a.degree() != b.degree()) return a.degree() < b.degree() ? -1 : 1;
      for (std::size_t i = n; i-- > 0;)
        if (a.e[i] != b.e[i]) return a.e[i] > b.e[i] ? -1 : 1;
      return 0;
    }
    case OrderKind::kElim: {
      std::size_t k = std::min(elim_vars, n);
      int c = grlex_range(a, b, 0, k);
      return c != 0 ? c : grlex_range(a, b, k, n);
    }
  }
  return 0;
}

/// reduce_basis with per-element copies of the others (see the file header).
inline std::vector<Polynomial> copying_reduce_basis(const PolyContext& ctx,
                                                    std::vector<Polynomial> basis,
                                                    const CoeffOptions& coeff = {}) {
  std::vector<Polynomial> in;
  for (auto& g : basis) {
    coeff_normalize(ctx, &g, coeff);
    if (!g.is_zero()) in.push_back(std::move(g));
  }
  std::vector<std::size_t> idx(in.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ctx.cmp(in[a].hmono(), in[b].hmono()) < 0;
  });
  std::vector<Polynomial> minimal;
  for (std::size_t i : idx) {
    bool covered = false;
    for (const auto& kept : minimal) {
      if (kept.hmono().divides(in[i].hmono())) {
        covered = true;
        break;
      }
    }
    if (!covered) minimal.push_back(in[i]);
  }
  std::vector<Polynomial> out(minimal.size());
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    std::vector<Polynomial> others;
    for (std::size_t j = 0; j < minimal.size(); ++j)
      if (j != i) others.push_back(minimal[j]);
    VectorReducerSet set(&others);
    ReduceOptions opts;
    opts.tail_reduce = true;
    opts.coeff = coeff;
    out[i] = reduce_full(ctx, minimal[i], set, opts).poly;
    GBD_CHECK(!out[i].is_zero());
  }
  std::sort(out.begin(), out.end(), [&](const Polynomial& a, const Polynomial& b) {
    return ctx.cmp(a.hmono(), b.hmono()) < 0;
  });
  return out;
}

/// interreduce with per-element copies of the others (see the file header).
inline std::vector<Polynomial> copying_interreduce(const PolyContext& ctx,
                                                   std::vector<Polynomial> gens,
                                                   const CoeffOptions& coeff = {}) {
  std::vector<Polynomial> work;
  for (auto& g : gens) {
    coeff_normalize(ctx, &g, coeff);
    if (!g.is_zero()) work.push_back(std::move(g));
  }
  ReduceOptions opts;
  opts.tail_reduce = true;
  opts.coeff = coeff;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < work.size();) {
      std::vector<Polynomial> others;
      for (std::size_t j = 0; j < work.size(); ++j)
        if (j != i) others.push_back(work[j]);
      VectorReducerSet set(&others);
      Polynomial nf = reduce_full(ctx, work[i], set, opts).poly;
      if (nf.is_zero()) {
        work.erase(work.begin() + static_cast<std::ptrdiff_t>(i));
        changed = true;
        continue;
      }
      if (!nf.equals(work[i])) {
        work[i] = std::move(nf);
        changed = true;
      }
      ++i;
    }
  }
  return work;
}

/// Stage 2 over Zp on Polynomials. `swept` is echelon_reduce's output with
/// interreduce off (monic rows in src order); the result is what the same
/// call with interreduce on must return.
inline EchelonOutput zp_interreduce_polys(const PolyContext& ctx, const ZpField& field,
                                          EchelonOutput swept) {
  std::vector<EchelonOutput::NewRow>& alive = swept.rows;
  if (alive.size() > 1) {
    std::sort(alive.begin(), alive.end(), [&](const auto& a, const auto& b) {
      int c = ctx.cmp(a.poly.hmono(), b.poly.hmono());
      if (c != 0) return c > 0;
      return a.src < b.src;
    });
    std::unordered_map<Monomial, std::size_t, MonoHash> head_of;
    std::vector<EchelonOutput::NewRow> kept;
    Monomial unit(ctx.nvars());
    for (auto& w : alive) {
      while (!w.poly.is_zero()) {
        auto it = head_of.find(w.poly.hmono());
        if (it == head_of.end()) break;
        const Polynomial& piv = kept[it->second].poly;  // monic
        std::uint64_t f = field.p() - zp_residue_u64(w.poly.hcoef());
        w.poly = zp_combine(ctx, field, 1, unit, w.poly, f, unit, piv);
      }
      if (w.poly.is_zero()) {
        swept.src_zeroed[w.src] = true;
        continue;
      }
      w.poly.make_monic(field);
      head_of.emplace(w.poly.hmono(), kept.size());
      kept.push_back(std::move(w));
    }
    alive = std::move(kept);
  }
  std::sort(alive.begin(), alive.end(), [](const auto& a, const auto& b) { return a.src < b.src; });
  return swept;
}

/// The all-pairs Buchberger check (see the file header). Operands are
/// canonicalized for `coeff` first, as the library certificate does.
inline bool all_pairs_is_groebner_basis(const PolyContext& ctx,
                                        const std::vector<Polynomial>& basis,
                                        std::string* why = nullptr,
                                        const CoeffOptions& coeff = {}) {
  std::vector<Polynomial> use = basis;
  for (Polynomial& p : use) coeff_normalize(ctx, &p, coeff);
  VectorReducerSet set(&use);
  ReduceOptions ropts;
  ropts.coeff = coeff;
  for (std::size_t i = 0; i < use.size(); ++i) {
    if (use[i].is_zero()) {
      if (why) *why = "basis contains the zero polynomial";
      return false;
    }
  }
  for (std::size_t i = 0; i < use.size(); ++i) {
    for (std::size_t j = i + 1; j < use.size(); ++j) {
      if (Monomial::coprime(use[i].hmono(), use[j].hmono())) continue;
      Polynomial s = spoly(ctx, use[i], use[j], coeff);
      ReduceOutcome out = reduce_full(ctx, std::move(s), set, ropts);
      if (!out.poly.is_zero()) {
        if (why) {
          *why = "SPOL(basis[" + std::to_string(i) + "], basis[" + std::to_string(j) +
                 "]) does not reduce to zero; normal form " + out.poly.to_string(ctx);
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace oracle
}  // namespace gbd
