#include "gb/verify.hpp"

#include "gb/pairs.hpp"
#include "gb/sequential.hpp"
#include "poly/echelon.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"

namespace gbd {

namespace {

/// Re-embed a polynomial into a ring with extra trailing variables.
Polynomial widen(const PolyContext& wide, const Polynomial& p) {
  std::vector<Term> terms;
  terms.reserve(p.nterms());
  for (const auto& t : p.terms()) {
    std::vector<std::uint32_t> exps(wide.nvars(), 0);
    for (std::size_t v = 0; v < t.mono.nvars(); ++v) exps[v] = t.mono.exp(v);
    terms.push_back(Term{t.coeff, Monomial(std::move(exps))});
  }
  return Polynomial::from_terms(wide, std::move(terms));
}

}  // namespace

bool radical_contains(const PolyContext& ctx, const std::vector<Polynomial>& gens,
                      const Polynomial& p) {
  if (p.is_zero()) return true;
  // Extended ring K[x1..xn, t], t last (lowest precedence in every order).
  PolySystem ext;
  ext.ctx.vars = ctx.vars;
  ext.ctx.vars.push_back("_rab_t");
  ext.ctx.order = ctx.order;
  for (const auto& g : gens) {
    if (!g.is_zero()) ext.polys.push_back(widen(ext.ctx, g));
  }
  // 1 - t·p
  std::vector<std::uint32_t> t_exp(ext.ctx.nvars(), 0);
  t_exp.back() = 1;
  Polynomial tp = widen(ext.ctx, p).mul_term(BigInt(1), Monomial(std::move(t_exp)));
  ext.polys.push_back(Polynomial::constant(ext.ctx, BigInt(1)).sub(ext.ctx, tp));

  SequentialResult res = groebner_sequential(ext);
  // 1 ∈ ideal iff the (any) Gröbner basis contains a nonzero constant.
  for (const auto& g : res.basis) {
    if (!g.is_zero() && g.hmono().is_one()) return true;
  }
  return false;
}

namespace {

/// For kZp, the canonical mod-p image of a set (zp_combine and friends
/// require canonical residues); for kExact, null — the caller uses the
/// original vector untouched.
std::vector<Polynomial> coeff_image(const PolyContext& ctx, const std::vector<Polynomial>& polys,
                                    const CoeffOptions& coeff) {
  std::vector<Polynomial> out;
  out.reserve(polys.size());
  for (const auto& p : polys) {
    Polynomial q = p;
    coeff_normalize(ctx, &q, coeff);
    out.push_back(std::move(q));
  }
  return out;
}

/// True iff every polynomial is already in the exact form coeff_image would
/// produce over Zp: monic with every coefficient a canonical residue. Engine
/// bases over Zp always are, so the certificate can skip re-normalizing them
/// (a per-call full copy of the basis, pre-PR7).
bool zp_canonical(const std::vector<Polynomial>& polys, const ZpField& field) {
  for (const Polynomial& p : polys) {
    if (p.is_zero()) continue;  // the image of zero is zero
    if (!p.hcoef().is_one()) return false;
    for (const Term& t : p.terms()) {
      if (t.coeff.is_negative() || t.coeff.bit_length() > 62) return false;
      if (zp_residue_u64(t.coeff) >= field.p()) return false;
    }
  }
  return true;
}

/// Shared verification context: the coefficient image (or the original
/// vector, when it is usable as-is) plus ONE divmask-backed reducer set over
/// it. Built once per top-level verify entry; pre-PR7 every containment
/// query rebuilt both, which made verify_s rival gb_s on small problems.
struct VerifyView {
  VerifyView(const PolyContext& ctx, const std::vector<Polynomial>& polys,
             const CoeffOptions& coeff) {
    if (coeff.is_zp() && !zp_canonical(polys, ZpField(coeff.prime))) {
      image_ = coeff_image(ctx, polys, coeff);
      use_ = &image_;
    } else {
      use_ = &polys;
    }
    set_ = VectorReducerSet(use_);
    ropts_.coeff = coeff;
  }
  VerifyView(const VerifyView&) = delete;
  VerifyView& operator=(const VerifyView&) = delete;

  const std::vector<Polynomial>& polys() const { return *use_; }
  const VectorReducerSet& set() const { return set_; }
  const ReduceOptions& ropts() const { return ropts_; }

 private:
  const std::vector<Polynomial>* use_ = nullptr;
  std::vector<Polynomial> image_;
  VectorReducerSet set_;
  ReduceOptions ropts_;
};

/// The certificate: every s-polynomial Buchberger's criteria leave, plus
/// every input generator, reduced together as ONE Macaulay batch against
/// the view's reducer set. `use` is certified iff every row is zeroed.
///
/// The pairs are the ones Buchberger's algorithm with the Gebauer–Möller
/// update would reduce if `use` were its input: the elements are installed
/// in list order and element r keeps the pairs (i, r), i < r, that
/// gm_new_pairs keeps against elements 0..r−1. The old-pair deletion B_k is
/// not applied, which only keeps more pairs. The chain criterion over
/// DonePairs is deliberately not mixed in (DESIGN.md §23).
bool certify_view(const PolyContext& ctx, const VerifyView& v,
                  const std::vector<Polynomial>& inputs, std::string* why,
                  const CoeffOptions& coeff) {
  const std::vector<Polynomial>& use = v.polys();
  // Reject zeros up front: spoly() has a nonzero precondition. (Over Zp an
  // exactly-nonzero element can vanish mod p — that still disqualifies the
  // set as a basis over this field.)
  for (std::size_t i = 0; i < use.size(); ++i) {
    if (use[i].is_zero()) {
      if (why) *why = "basis contains the zero polynomial";
      return false;
    }
  }
  // Row k is the s-polynomial of pairs[k] for k < pairs.size(), else the
  // input generator input_of[k − pairs.size()].
  std::vector<Polynomial> rows;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::size_t> input_of;
  std::vector<Monomial> heads;
  heads.reserve(use.size());
  for (std::size_t r = 0; r < use.size(); ++r) {
    for (std::size_t i : gm_new_pairs(ctx, heads, use[r].hmono())) {
      // spoly returns the canonical (primitive / monic) form reduce_batch wants.
      Polynomial s = spoly(ctx, use[i], use[r], coeff);
      if (s.is_zero()) continue;
      rows.push_back(std::move(s));
      pairs.emplace_back(i, r);
    }
    heads.push_back(use[r].hmono());
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    Polynomial g = inputs[k];
    coeff_normalize(ctx, &g, coeff);
    if (g.is_zero()) continue;
    rows.push_back(std::move(g));
    input_of.push_back(k);
  }
  if (rows.empty()) return true;

  EchelonOptions eopts;
  eopts.coeff = coeff;
  eopts.interreduce = false;
  EchelonOutput eo = reduce_batch(ctx, rows, v.set(), eopts);
  if (eo.rows.empty()) return true;
  if (why) {
    // Surviving rows come in src order, so a failing pair is reported before
    // a failing input generator.
    const EchelonOutput::NewRow& bad = eo.rows.front();
    if (bad.src < pairs.size()) {
      *why = "SPOL(basis[" + std::to_string(pairs[bad.src].first) + "], basis[" +
             std::to_string(pairs[bad.src].second) + "]) does not reduce to zero; normal form " +
             bad.poly.to_string(ctx);
    } else {
      *why = "input generator " + std::to_string(input_of[bad.src - pairs.size()]) +
             " not in the output ideal";
    }
  }
  return false;
}

bool ideal_contains_view(const PolyContext& ctx, const VerifyView& v, const Polynomial& p) {
  return reduce_full(ctx, p, v.set(), v.ropts()).poly.is_zero();
}

}  // namespace

bool is_groebner_basis(const PolyContext& ctx, const std::vector<Polynomial>& basis,
                       std::string* why, const CoeffOptions& coeff) {
  VerifyView v(ctx, basis, coeff);
  return certify_view(ctx, v, {}, why, coeff);
}

bool ideal_contains(const PolyContext& ctx, const std::vector<Polynomial>& gb,
                    const Polynomial& p, const CoeffOptions& coeff) {
  VerifyView v(ctx, gb, coeff);
  return ideal_contains_view(ctx, v, p);
}

bool same_ideal(const PolyContext& ctx, const std::vector<Polynomial>& gb1,
                const std::vector<Polynomial>& gb2, const CoeffOptions& coeff) {
  VerifyView v1(ctx, gb1, coeff);
  VerifyView v2(ctx, gb2, coeff);
  for (const auto& g : gb1) {
    if (!ideal_contains_view(ctx, v2, g)) return false;
  }
  for (const auto& g : gb2) {
    if (!ideal_contains_view(ctx, v1, g)) return false;
  }
  return true;
}

bool verify_groebner_result(const PolyContext& ctx, const std::vector<Polynomial>& inputs,
                            const std::vector<Polynomial>& basis, std::string* why,
                            const CoeffOptions& coeff) {
  VerifyView v(ctx, basis, coeff);
  return certify_view(ctx, v, inputs, why, coeff);
}

}  // namespace gbd
