#include "poly/reduce.hpp"

#include <algorithm>
#include <numeric>

#include "bigint/zp.hpp"
#include "poly/echelon.hpp"
#include "poly/geobucket.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

bool reducer_preferred(const Polynomial& a, const Polynomial& b) {
  std::size_t abits = a.hcoef().bit_length();
  std::size_t bbits = b.hcoef().bit_length();
  if (abits != bbits) return abits < bbits;
  return a.nterms() < b.nterms();
}

const Polynomial* VectorReducerSet::find_reducer(const Monomial& m, std::uint64_t* out_id) const {
  // A set holding only the excluded element is empty, and counts no call.
  if (polys_ == nullptr || polys_->size() == (excluded_ < polys_->size() ? 1u : 0u)) {
    return nullptr;
  }
  FindReducerStats& st = find_reducer_stats();
  st.calls += 1;
  // Extend the mask cache over elements appended since the last call.
  if (masks_.size() < polys_->size()) {
    if (ruler_.nvars() != m.nvars()) ruler_ = DivMaskRuler(m.nvars());
    for (std::size_t i = masks_.size(); i < polys_->size(); ++i) {
      const Polynomial& r = (*polys_)[i];
      // A zero element can never divide; all-ones almost always fails the
      // mask test, and the is_zero() check below covers the remainder.
      masks_.push_back(r.is_zero() ? ~std::uint64_t{0} : ruler_.mask(r.hmono()));
    }
  }
  const std::uint64_t tmask = ruler_.mask(m);
  // Among all applicable reducers prefer the one whose head coefficient is
  // smallest (the fraction-free step scales the reduct by hc(r)/g, so a big
  // head coefficient inflates every later coefficient), then the one with
  // the fewest terms; ties go to the oldest. This keeps reduction cost
  // stable across the different basis orders the parallel engines produce.
  // The running best's key (bits, terms) is carried through the scan instead
  // of re-deriving it per candidate (reducer_preferred recomputes both
  // bit_lengths on every call).
  const Polynomial* best = nullptr;
  std::size_t best_i = 0, best_bits = 0, best_terms = 0;
  for (std::size_t i = 0; i < polys_->size(); ++i) {
    if (i == excluded_) continue;
    st.probes += 1;
    if (!DivMaskRuler::may_divide(masks_[i], tmask)) {
      st.mask_rejects += 1;
      continue;
    }
    const Polynomial& r = (*polys_)[i];
    if (r.is_zero()) continue;
    st.divides_calls += 1;
    if (!r.hmono().divides(m)) continue;
    std::size_t rbits = r.hcoef().bit_length();
    std::size_t rterms = r.nterms();
    if (best == nullptr || rbits < best_bits || (rbits == best_bits && rterms < best_terms)) {
      best = &r;
      best_i = i;
      best_bits = rbits;
      best_terms = rterms;
    }
  }
  if (best && out_id) *out_id = best_i;
  return best;
}

bool VectorReducerSet::head_added_since(const Monomial& m, std::uint64_t stamp) const {
  if (polys_ == nullptr || stamp >= polys_->size()) return false;
  // Extend the mask cache exactly as find_reducer does, then scan only the
  // suffix appended after `stamp` — the memo-invalidation hot path is a
  // short suffix walk, not a full reducer search.
  if (masks_.size() < polys_->size()) {
    if (ruler_.nvars() != m.nvars()) ruler_ = DivMaskRuler(m.nvars());
    for (std::size_t i = masks_.size(); i < polys_->size(); ++i) {
      const Polynomial& r = (*polys_)[i];
      masks_.push_back(r.is_zero() ? ~std::uint64_t{0} : ruler_.mask(r.hmono()));
    }
  }
  const std::uint64_t tmask = ruler_.mask(m);
  for (std::size_t i = static_cast<std::size_t>(stamp); i < polys_->size(); ++i) {
    if (!DivMaskRuler::may_divide(masks_[i], tmask)) continue;
    const Polynomial& r = (*polys_)[i];
    if (r.is_zero()) continue;
    if (r.hmono().divides(m)) return true;
  }
  return false;
}

namespace {

/// Cancel the term of p at index k against reducer r (fraction-free).
/// Requires r.hmono() | p.terms()[k].mono. Monomials of terms 0..k-1 are
/// unchanged by construction (their coefficients get scaled).
Polynomial cancel_at(const PolyContext& ctx, const Polynomial& p, std::size_t k,
                     const Polynomial& r) {
  const Term& t = p.terms()[k];
  BigInt g = BigInt::gcd(t.coeff, r.hcoef());
  BigInt a = r.hcoef() / g;
  BigInt b = t.coeff / g;
  if (a.is_negative()) {
    a = -a;
    b = -b;
  }
  Monomial m = t.mono / r.hmono();
  Polynomial sub = r.mul_term(b, m);
  if (a.is_one()) return p.sub(ctx, sub);
  return p.mul_term(a, Monomial(t.mono.nvars())).sub(ctx, sub);
}

}  // namespace

Polynomial reduce_step(const PolyContext& ctx, const Polynomial& p, const Polynomial& r) {
  GBD_CHECK_MSG(!p.is_zero() && !r.is_zero(), "reduce_step with zero operand");
  GBD_CHECK_MSG(r.hmono().divides(p.hmono()), "reduce_step: reducer head does not divide");
  return cancel_at(ctx, p, 0, r);
}

namespace {

/// Cancel the term of p at index k against reducer r over Z/pZ:
/// p − (c·hc(r)^{-1})·(m·r), all coefficients canonical residues. Unlike the
/// fraction-free step there is no scalar ambiguity — the result is uniquely
/// determined, which is what makes the geobucket and naive Zp paths agree
/// coefficient-for-coefficient at every step.
Polynomial zp_cancel_at(const PolyContext& ctx, const ZpField& field, const Polynomial& p,
                        std::size_t k, const Polynomial& r) {
  const Term& t = p.terms()[k];
  Zp fac = field.mul(field.from_residue(zp_residue_u64(t.coeff)),
                     field.inv(field.from_residue(zp_residue_u64(r.hcoef()))));
  std::uint64_t b = field.to_u64(field.neg(fac));
  Monomial unit(t.mono.nvars());
  return zp_combine(ctx, field, 1, unit, p, b, t.mono / r.hmono(), r);
}

}  // namespace

Polynomial reduce_step_mod(const PolyContext& ctx, const Polynomial& p, const Polynomial& r,
                           const ZpField& field) {
  GBD_CHECK_MSG(!p.is_zero() && !r.is_zero(), "reduce_step_mod with zero operand");
  GBD_CHECK_MSG(r.hmono().divides(p.hmono()), "reduce_step_mod: reducer head does not divide");
  return zp_cancel_at(ctx, field, p, 0, r);
}

namespace {

/// The pre-geobucket flat-vector path: rebuilds the whole polynomial every
/// step. Kept for one release as the differential-test oracle (see
/// ReduceOptions::use_geobuckets) — it is the reference semantics.
ReduceOutcome reduce_full_naive(const PolyContext& ctx, Polynomial p, const ReducerSet& set,
                                const ReduceOptions& opts, ReduceObserver* obs) {
  ReduceOutcome out;
  Polynomial cur = std::move(p);
  cur.make_primitive();
  std::size_t k = 0;  // index of the first term not yet known irreducible
  while (!cur.is_zero() && k < cur.nterms()) {
    std::uint64_t id = 0;
    const Polynomial* r = set.find_reducer(cur.terms()[k].mono, &id);
    if (r == nullptr) {
      if (!opts.tail_reduce) break;
      ++k;
      continue;
    }
    CostScope cost;
    cur = cancel_at(ctx, cur, k, *r);
    cur.make_primitive();
    ++out.steps;
    GBD_CHECK_MSG(out.steps <= opts.max_steps, "reduce_full exceeded max_steps");
    if (obs) obs->on_step(id, cost.elapsed());
  }
  out.poly = std::move(cur);
  return out;
}

/// The Zp twin of reduce_full. Mod-p cancellation has no scalar ambiguity
/// (every step is p ← p − c·hc(r)^{-1}·(m·r) over canonical residues), so
/// the naive and geobucket paths agree coefficient-for-coefficient at every
/// step — not merely up to a scalar — and both finish with the monic form.
ReduceOutcome reduce_full_zp(const PolyContext& ctx, Polynomial p, const ReducerSet& set,
                             const ReduceOptions& opts, ReduceObserver* obs) {
  ZpField field(opts.coeff.prime);
  ReduceOutcome out;
  // Entry canonicalization mirrors the exact paths' make_primitive: reduce
  // every coefficient to its canonical residue (idempotent on engine data).
  Polynomial cur = poly_mod(ctx, p, field);
  if (!opts.use_geobuckets) {
    std::size_t k = 0;
    while (!cur.is_zero() && k < cur.nterms()) {
      std::uint64_t id = 0;
      const Polynomial* r = set.find_reducer(cur.terms()[k].mono, &id);
      if (r == nullptr) {
        if (!opts.tail_reduce) break;
        ++k;
        continue;
      }
      CostScope cost;
      cur = zp_cancel_at(ctx, field, cur, k, *r);
      ++out.steps;
      GBD_CHECK_MSG(out.steps <= opts.max_steps, "reduce_full exceeded max_steps");
      if (obs) obs->on_step(id, cost.elapsed());
    }
    cur.make_monic(field);
    out.poly = std::move(cur);
    return out;
  }
  Geobucket acc(ctx, std::move(cur), &field);
  Term lead;
  while (acc.lead(&lead)) {
    std::uint64_t id = 0;
    const Polynomial* r = set.find_reducer(lead.mono, &id);
    if (r == nullptr) {
      if (!opts.tail_reduce) break;
      acc.retire_lead();
      continue;
    }
    CostScope cost;
    Zp fac = field.mul(field.from_residue(zp_residue_u64(lead.coeff)),
                       field.inv(field.from_residue(zp_residue_u64(r->hcoef()))));
    BigInt b(static_cast<std::int64_t>(field.to_u64(field.neg(fac))));
    acc.axpy(BigInt(1), b, lead.mono / r->hmono(), *r);
    ++out.steps;
    GBD_CHECK_MSG(out.steps <= opts.max_steps, "reduce_full exceeded max_steps");
    if (obs) obs->on_step(id, cost.elapsed());
  }
  out.poly = acc.extract();
  return out;
}

}  // namespace

ReduceOutcome reduce_full(const PolyContext& ctx, Polynomial p, const ReducerSet& set,
                          const ReduceOptions& opts, ReduceObserver* obs) {
  if (opts.coeff.is_zp()) return reduce_full_zp(ctx, std::move(p), set, opts, obs);
  if (!opts.use_geobuckets) return reduce_full_naive(ctx, std::move(p), set, opts, obs);
  // Geobucket path. Intermediate values are scalar multiples of the naive
  // path's (normalization is deferred, not per-step), which leaves the
  // monomial trajectory, reducer choices and step count identical and the
  // final primitive form bit-identical — see geobucket.hpp.
  ReduceOutcome out;
  p.make_primitive();
  Geobucket acc(ctx, std::move(p));
  Term lead;
  while (acc.lead(&lead)) {
    std::uint64_t id = 0;
    const Polynomial* r = set.find_reducer(lead.mono, &id);
    if (r == nullptr) {
      if (!opts.tail_reduce) break;
      acc.retire_lead();
      continue;
    }
    CostScope cost;
    BigInt g = BigInt::gcd(lead.coeff, r->hcoef());
    BigInt a = r->hcoef() / g;
    BigInt b = lead.coeff / g;
    if (a.is_negative()) {
      a = -a;
      b = -b;
    }
    b = -b;
    Monomial m = lead.mono / r->hmono();
    acc.axpy(a, b, m, *r);
    ++out.steps;
    GBD_CHECK_MSG(out.steps <= opts.max_steps, "reduce_full exceeded max_steps");
    if (obs) obs->on_step(id, cost.elapsed());
  }
  out.poly = acc.extract();
  return out;
}

bool is_normal(const Polynomial& p, const ReducerSet& set) {
  if (p.is_zero()) return true;
  return set.find_reducer(p.hmono(), nullptr) == nullptr;
}

std::vector<Polynomial> interreduce(const PolyContext& ctx, std::vector<Polynomial> gens,
                                    const CoeffOptions& coeff) {
  std::vector<Polynomial> work;
  for (auto& g : gens) {
    coeff_normalize(ctx, &g, coeff);
    if (g.is_zero()) continue;
    work.push_back(std::move(g));
  }
  ReduceOptions opts;
  opts.tail_reduce = true;
  opts.coeff = coeff;
  // One set over `work` that refuses only the element being reduced answers
  // as a set over copies of all the others would. Its mask cache assumes
  // append-only growth, so it is rebuilt whenever `work` changes.
  VectorReducerSet set(&work);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < work.size();) {
      set.exclude(i);
      Polynomial nf = reduce_full(ctx, work[i], set, opts).poly;
      if (nf.is_zero()) {
        work.erase(work.begin() + static_cast<std::ptrdiff_t>(i));
        set = VectorReducerSet(&work);
        changed = true;
        continue;
      }
      if (!nf.equals(work[i])) {
        work[i] = std::move(nf);
        set = VectorReducerSet(&work);
        changed = true;
      }
      ++i;
    }
  }
  return work;
}

std::vector<Polynomial> reduce_basis(const PolyContext& ctx, std::vector<Polynomial> basis,
                                     const CoeffOptions& coeff) {
  // Normalize and drop zeros.
  std::vector<Polynomial> in;
  in.reserve(basis.size());
  for (auto& g : basis) {
    coeff_normalize(ctx, &g, coeff);
    if (g.is_zero()) continue;
    in.push_back(std::move(g));
  }

  // Minimize: visit in ascending head order and keep an element only if no
  // already-kept head divides its head. (If hm(a) | hm(b) with a != b then
  // hm(a) <= hm(b) in every admissible order, so one ascending pass is
  // complete; equal heads keep the first occurrence.)
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
    if (!covered) minimal.push_back(std::move(in[i]));
  }

  // Tail-reduce each element against the whole minimal basis. By
  // minimality no other head divides an element's head, and its own head
  // divides none of its tail terms nor any term a step introduces (all
  // strictly smaller), so against the whole basis the element is a candidate
  // only at its own head, where nothing else applies (DESIGN.md §19, §21).
  //   · Zp: one Macaulay matrix whose rows are the minimal elements, each
  //     swept from one column right of its head;
  //   · exact: one reduce_full per element, through a set that refuses only
  //     the element itself.
  VectorReducerSet set(&minimal);
  std::vector<Polynomial> out;
  if (coeff.is_zp()) {
    EchelonOptions eo;
    eo.coeff = coeff;
    out = reduce_tails(ctx, minimal, set, eo);
  } else {
    out.resize(minimal.size());
    ReduceOptions opts;
    opts.tail_reduce = true;
    for (std::size_t i = 0; i < minimal.size(); ++i) {
      set.exclude(i);
      out[i] = reduce_full(ctx, minimal[i], set, opts).poly;
      GBD_CHECK_MSG(!out[i].is_zero(), "reduce_basis: minimal element reduced to zero");
    }
  }

  std::sort(out.begin(), out.end(), [&](const Polynomial& a, const Polynomial& b) {
    return ctx.cmp(a.hmono(), b.hmono()) < 0;
  });
  return out;
}

}  // namespace gbd
