#include "poly/echelon.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "poly/geobucket.hpp"
#include "poly/simd.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

namespace {

struct SweepTally {
  std::uint64_t axpys = 0;
  std::uint64_t dense_cells = 0;
  std::uint64_t simd_rows = 0;
  std::uint64_t scalar_rows = 0;
  std::uint64_t simd_cells = 0;
  std::uint64_t simd_runs = 0;
  std::uint64_t cache_builds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cost = 0;  // term-operation units this worker charged
};

/// A Zp row in column space: strictly increasing frame columns, each with a
/// nonzero canonical residue. Both Zp sweeps emit these, monic, and stage 2
/// combines them; only the survivors become Polynomials.
struct ZpColRow {
  std::vector<std::uint32_t> cols;
  std::vector<std::uint64_t> vals;

  bool empty() const { return cols.empty(); }
};

/// Polynomial::make_monic in column space, with the same charge.
void make_monic(const ZpField& field, ZpColRow* row) {
  if (row->empty() || row->vals[0] == 1) return;
  const Zp inv = field.inv(field.from_residue(row->vals[0]));
  for (std::uint64_t& v : row->vals) v = field.mul_canonical(inv, v);
  CostCounter::charge(row->vals.size());
}

/// The nonzero cells of a swept accumulator (every cell canonical), monic.
ZpColRow gather_monic(const ZpField& field, const std::vector<std::uint64_t>& acc) {
  ZpColRow out;
  for (std::size_t c = 0; c < acc.size(); ++c) {
    if (acc[c] == 0) continue;
    out.cols.push_back(static_cast<std::uint32_t>(c));
    out.vals.push_back(acc[c]);
  }
  make_monic(field, &out);
  return out;
}

/// Zp pivot sweep for one work row: dense accumulator of canonical residues,
/// walked left to right from column `start`. A pivot's tail scatters
/// strictly to the right of its head, so one pass clears every pivot column
/// at or after `start`; cells before it keep their scattered values.
ZpColRow sweep_row_zp(const SymbolicFrame& frame, const MacaulayMatrix& mat,
                      const ZpField& field, const MatrixRow& row, std::size_t start,
                      std::vector<std::uint64_t>* acc, SweepTally* tally) {
  const std::size_t ncols = mat.ncols;
  std::fill(acc->begin(), acc->end(), 0);
  for (std::size_t i = 0; i < row.nnz(); ++i) {
    (*acc)[row.cols[i]] = zp_residue_u64(row.coeffs[i]);
  }
  for (std::size_t c = start; c < ncols; ++c) {
    std::uint64_t f = (*acc)[c];
    if (f == 0) continue;
    std::int32_t pv = frame.pivot_of_col[c];
    if (pv < 0) continue;
    const std::uint64_t* mont = mat.zp_pivots[static_cast<std::size_t>(pv)].mont;
    const std::vector<std::uint32_t>& pcols = frame.pivots[static_cast<std::size_t>(pv)].cols;
    // The pivot is monic with head at column c: the head cancels exactly.
    (*acc)[c] = 0;
    for (std::size_t j = 1; j < pcols.size(); ++j) {
      std::uint64_t& cell = (*acc)[pcols[j]];
      cell = field.sub_canonical(cell, field.mul_canonical(Zp{mont[j]}, f));
    }
    tally->axpys += 1;
    CostCounter::charge(pcols.size());
  }
  tally->dense_cells += ncols;
  tally->scalar_rows += 1;
  CostCounter::charge(ncols / 8 + 1);  // the column scan itself, amortized
  return gather_monic(field, *acc);
}

/// Vectorized Zp sweep: same left-to-right pass, but accumulator lanes hold
/// arbitrary 64-bit values merely *congruent* mod p (delayed reduction; see
/// poly/simd.hpp for the wrap-correction soundness argument). A cell is
/// canonicalized exactly once — when the pass reaches its column and every
/// contribution to it is in — so the value the pivot factor (and the output
/// term) is read from is the same canonical residue the scalar kernel
/// maintains throughout: the produced row is bit-identical. Eliminations
/// stream the pivot's multiline runs (matrix.hpp) through the vector AXPY.
/// Charged cost units match sweep_row_zp exactly — 1 + tail per
/// elimination, ncols/8 + 1 per row — so virtual-time runs (SimMachine) are
/// reproducible across hosts regardless of dispatch.
ZpColRow sweep_row_zp_simd(const SymbolicFrame& frame, const MacaulayMatrix& mat,
                           const ZpField& field, const MatrixRow& row, std::size_t start,
                           SimdLevel level, std::vector<std::uint64_t>* acc,
                           SweepTally* tally) {
  const std::size_t ncols = mat.ncols;
  const std::uint64_t p = field.p();
  const std::uint64_t r64 = field.r_mod_p();
  std::fill(acc->begin(), acc->end(), 0);
  for (std::size_t i = 0; i < row.nnz(); ++i) {
    (*acc)[row.cols[i]] = zp_residue_u64(row.coeffs[i]);
  }
  for (std::size_t c = start; c < ncols; ++c) {
    std::uint64_t v = (*acc)[c];
    if (v == 0) continue;
    // Finalize the cell: one division, skipped when no elimination ever
    // streamed into it (still canonical from the scatter).
    std::uint64_t f = v < p ? v : v % p;
    std::int32_t pv = frame.pivot_of_col[c];
    if (pv < 0) {
      (*acc)[c] = f;  // final: later eliminations only touch columns > c
      continue;
    }
    (*acc)[c] = 0;  // the monic head cancels exactly
    if (f == 0) continue;
    const ZpPivotRuns& runs = mat.zp_runs[static_cast<std::size_t>(pv)];
    const std::size_t nterms = frame.pivots[static_cast<std::size_t>(pv)].cols.size();
    const std::uint64_t fneg = p - f;  // subtraction as lane addition
    for (const ZpPivotRuns::Run& run : runs.runs) {
      zp_axpy_delayed(acc->data() + run.col, runs.coeffs + run.off, run.len, fneg, r64, level);
    }
    tally->axpys += 1;
    tally->simd_cells += nterms - 1;
    tally->simd_runs += runs.runs.size();
    // Identical unit charge to the scalar kernel's pivot length.
    CostCounter::charge(nterms);
  }
  tally->dense_cells += ncols;
  tally->simd_rows += 1;
  CostCounter::charge(ncols / 8 + 1);
  return gather_monic(field, *acc);  // every cell finalized per column
}

/// row ← row − hc(row)·piv for a monic `piv` with the same head column,
/// merged on column order into `scratch`, then swapped in. This is
/// zp_combine(1·row, (p − hc)·piv) with unit multipliers, and it charges
/// what zp_combine charges for those operands: a unit-monomial product per
/// term, a monomial comparison per merge step while both sides remain, and
/// the term movement.
void combine_zp(const ZpField& field, std::uint64_t nvars, ZpColRow* row, const ZpColRow& piv,
                ZpColRow* scratch) {
  const Zp f = field.from_residue(field.p() - row->vals[0]);
  const std::size_t na = row->cols.size(), nb = piv.cols.size();
  scratch->cols.clear();
  scratch->vals.clear();
  std::size_t i = 0, j = 0;
  std::uint64_t steps = 0;
  for (; i < na && j < nb; ++steps) {
    const std::uint32_t ca = row->cols[i], cb = piv.cols[j];
    std::uint64_t v;
    if (ca < cb) {
      v = row->vals[i++];
    } else if (ca > cb) {
      v = field.mul_canonical(f, piv.vals[j++]);
    } else {
      v = field.add_canonical(row->vals[i++], field.mul_canonical(f, piv.vals[j++]));
      if (v == 0) continue;
    }
    scratch->cols.push_back(std::min(ca, cb));
    scratch->vals.push_back(v);
  }
  for (; i < na; ++i) {
    scratch->cols.push_back(row->cols[i]);
    scratch->vals.push_back(row->vals[i]);
  }
  for (; j < nb; ++j) {
    scratch->cols.push_back(piv.cols[j]);
    scratch->vals.push_back(field.mul_canonical(f, piv.vals[j]));
  }
  CostCounter::charge((na + nb) * (nvars + 1) + steps * nvars);
  std::swap(*row, *scratch);
}

/// Lazily expanded pivot products for the exact sweep: slot pv holds the
/// term run of mult·reducer (coefficients verbatim, monomials multiplied
/// through), built at first touch and reused for every later row that hits
/// the same pivot column. One cache per worker thread — reuse is amortized
/// across that worker's rows with no synchronization.
using ExactPivotCache = std::vector<std::unique_ptr<std::vector<Term>>>;

/// Exact pivot sweep for one work row: the reduce_full geobucket loop with
/// the reducer choice read off the frame. Bit-identical to the per-poly
/// oracle's tail-reduced normal form (same reducers, same fraction-free
/// steps, same final make_primitive inside extract()).
Polynomial sweep_row_exact(const PolyContext& ctx, const SymbolicFrame& frame,
                           const MatrixRow& mrow, ExactPivotCache* cache, SweepTally* tally) {
  Polynomial p = row_to_poly(ctx, frame, mrow);
  p.make_primitive();
  if (p.is_zero()) return p;
  Geobucket acc(ctx, std::move(p));
  Term lead;
  while (acc.lead(&lead)) {
    std::int64_t c = frame.col_of(lead.mono);
    GBD_CHECK_MSG(c >= 0, "echelon_reduce: monomial escaped the frame");
    std::int32_t pv = frame.pivot_of_col[static_cast<std::size_t>(c)];
    if (pv < 0) {
      acc.retire_lead();
      continue;
    }
    const PivotProduct& prod = frame.pivots[static_cast<std::size_t>(pv)];
    BigInt g = BigInt::gcd(lead.coeff, prod.reducer->hcoef());
    BigInt a = prod.reducer->hcoef() / g;
    BigInt b = lead.coeff / g;
    if (a.is_negative()) {
      a = -a;
      b = -b;
    }
    b = -b;
    // Expand mult·reducer once per (worker, pivot); later touches skip the
    // per-term monomial multiplications (axpy's dominant non-BigInt cost).
    std::unique_ptr<std::vector<Term>>& slot = (*cache)[static_cast<std::size_t>(pv)];
    if (slot == nullptr) {
      auto run = std::make_unique<std::vector<Term>>();
      run->reserve(prod.reducer->nterms());
      for (const Term& t : prod.reducer->terms()) {
        run->push_back(Term{t.coeff, t.mono * prod.mult});
      }
      slot = std::move(run);
      tally->cache_builds += 1;
    } else {
      tally->cache_hits += 1;
    }
    acc.axpy_expanded(a, b, *slot);
    tally->axpys += 1;
  }
  return acc.extract();
}

/// Combine `row` against `piv` (equal head monomials), fraction-free.
void combine_exact(const PolyContext& ctx, Polynomial* row, const Polynomial& piv) {
  BigInt g = BigInt::gcd(row->hcoef(), piv.hcoef());
  BigInt a = piv.hcoef() / g;
  BigInt b = row->hcoef() / g;
  if (a.is_negative()) {
    a = -a;
    b = -b;
  }
  Monomial unit(row->hmono().nvars());
  Polynomial sub = piv.mul_term(b, unit);
  *row = (a.is_one() ? *row : row->mul_term(a, unit)).sub(ctx, sub);
  row->make_primitive();
}

/// Stage 2 over Zp, in column space. Frame columns are order-isomorphic to
/// their monomials (a smaller column is a larger monomial), so sorting by
/// head column and merging on column order makes exactly the comparisons
/// and combinations a polynomial-level pass makes, with the same results.
/// Those comparisons are charged as monomial comparisons (DESIGN.md §20).
void interreduce_zp(const ZpField& field, std::uint64_t nvars, std::size_t ncols,
                    std::vector<std::pair<ZpColRow, std::size_t>>* alive,
                    std::vector<bool>* src_zeroed, MatrixKernelStats* st) {
  using Work = std::pair<ZpColRow, std::size_t>;  // (row, src)
  std::uint64_t cmps = 0;
  std::sort(alive->begin(), alive->end(), [&](const Work& a, const Work& b) {
    ++cmps;
    if (a.first.cols[0] != b.first.cols[0]) return a.first.cols[0] < b.first.cols[0];
    return a.second < b.second;
  });
  CostCounter::charge(cmps * nvars);
  std::vector<std::int32_t> kept_at(ncols, -1);  // per head column: index into `kept`
  std::vector<Work> kept;
  ZpColRow scratch;
  for (Work& w : *alive) {
    ZpColRow& row = w.first;
    while (!row.empty()) {
      const std::int32_t k = kept_at[row.cols[0]];
      if (k < 0) break;
      combine_zp(field, nvars, &row, kept[static_cast<std::size_t>(k)].first, &scratch);
      st->axpys += 1;
    }
    if (row.empty()) {
      (*src_zeroed)[w.second] = true;
      continue;
    }
    make_monic(field, &row);
    kept_at[row.cols[0]] = static_cast<std::int32_t>(kept.size());
    kept.push_back(std::move(w));
  }
  *alive = std::move(kept);
}

/// Stage 2 over exact coefficients, on polynomials.
void interreduce_exact(const PolyContext& ctx,
                       std::vector<std::pair<Polynomial, std::size_t>>* alive,
                       std::vector<bool>* src_zeroed, MatrixKernelStats* st) {
  using Work = std::pair<Polynomial, std::size_t>;  // (poly, src)
  std::sort(alive->begin(), alive->end(), [&](const Work& a, const Work& b) {
    int c = ctx.cmp(a.first.hmono(), b.first.hmono());
    if (c != 0) return c > 0;
    return a.second < b.second;
  });
  std::unordered_map<Monomial, std::size_t, MonoHash> head_of;
  std::vector<Work> kept;
  for (Work& w : *alive) {
    Polynomial& poly = w.first;
    while (!poly.is_zero()) {
      auto it = head_of.find(poly.hmono());
      if (it == head_of.end()) break;
      combine_exact(ctx, &poly, kept[it->second].first);
      st->axpys += 1;
    }
    if (poly.is_zero()) {
      (*src_zeroed)[w.second] = true;
      continue;
    }
    head_of.emplace(poly.hmono(), kept.size());
    kept.push_back(std::move(w));
  }
  *alive = std::move(kept);
}

/// echelon_reduce, and the tail sweep of reduce_tails when `keep_heads`: a
/// row's sweep then starts one column right of its head, so the head term
/// survives even where a pivot covers it, and stage 2 is skipped.
EchelonOutput echelon(const PolyContext& ctx, const SymbolicFrame& frame,
                      const MacaulayMatrix& mat, const EchelonOptions& opts, bool keep_heads) {
  MatrixKernelStats& st = matrix_kernel_stats();
  const std::size_t nrows = mat.work_rows.size();
  EchelonOutput out;
  out.src_zeroed.assign(nrows, false);

  const bool zp = opts.coeff.is_zp();
  ZpField field(zp ? opts.coeff.prime : 3);

  // Dispatch, resolved once per matrix: the vector sweep needs the multiline
  // pivot layout (only built for delayed-reduction-safe primes) and an
  // actual vector unit; GBD_DISABLE_SIMD pins the oracle.
  SimdLevel level = SimdLevel::kScalar;
  if (zp && mat.has_runs) level = simd_level();
  const bool use_simd = level != SimdLevel::kScalar;

  // Stage 1: per-row pivot sweep, parallel across rows. Each worker owns its
  // accumulator, exact-pivot cache and tally; slot i of `swept` (Zp) or
  // `reduced` (exact) is written by exactly one worker.
  std::vector<ZpColRow> swept(zp ? nrows : 0);
  std::vector<Polynomial> reduced(zp ? 0 : nrows);
  std::size_t nthreads = std::max<std::size_t>(1, opts.nthreads);
  nthreads = std::min(nthreads, std::max<std::size_t>(1, nrows));
  std::vector<SweepTally> tallies(nthreads);

  auto sweep_range = [&](std::size_t t) {
    SweepTally& tally = tallies[t];
    CostScope scope;
    std::vector<std::uint64_t> acc;
    if (zp) acc.assign(mat.ncols, 0);
    ExactPivotCache cache;
    if (!zp) cache.resize(frame.pivots.size());
    for (std::size_t i = t; i < nrows; i += nthreads) {
      const MatrixRow& row = mat.work_rows[i];
      if (row.empty()) continue;
      // Every cell left of the head is zero, so a sweep may as well start
      // at the head.
      const std::size_t start = row.cols[0] + (keep_heads ? 1 : 0);
      if (!zp) {
        reduced[i] = sweep_row_exact(ctx, frame, row, &cache, &tally);
      } else if (use_simd) {
        swept[i] = sweep_row_zp_simd(frame, mat, field, row, start, level, &acc, &tally);
      } else {
        swept[i] = sweep_row_zp(frame, mat, field, row, start, &acc, &tally);
      }
    }
    tally.cost = scope.elapsed();
  };

  const auto sweep_t0 = std::chrono::steady_clock::now();
  if (nthreads == 1) {
    sweep_range(0);
  } else {
    // Workers charge their own thread-local cost counters, which die with
    // the threads; the caller is charged the slowest worker's total below
    // (parallel makespan, same convention as the machine backends).
    std::vector<std::thread> workers;
    workers.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t) workers.emplace_back(sweep_range, t);
    for (auto& w : workers) w.join();
    std::uint64_t makespan = 0;
    for (const auto& tally : tallies) makespan = std::max(makespan, tally.cost);
    CostCounter::charge(makespan);
  }
  const auto stage2_t0 = std::chrono::steady_clock::now();
  st.sweep_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stage2_t0 - sweep_t0).count());
  for (const auto& tally : tallies) {
    st.axpys += tally.axpys;
    st.dense_cells += tally.dense_cells;
    st.simd_rows += tally.simd_rows;
    st.scalar_rows += tally.scalar_rows;
    st.simd_cells += tally.simd_cells;
    st.simd_runs += tally.simd_runs;
    st.pivot_cache_builds += tally.cache_builds;
    st.pivot_cache_hits += tally.cache_hits;
  }

  // Stage 2: row echelon of the surviving rows. Rows are processed in
  // descending head order (ties by src) so an accepted row can never be
  // re-touched by a later combination; each combination strictly lowers the
  // working row's head. Row identity (src) survives combination.
  auto survivors = [&](auto& rows, auto is_zero) {
    std::vector<std::pair<std::remove_reference_t<decltype(rows[0])>, std::size_t>> alive;
    for (std::size_t i = 0; i < nrows; ++i) {
      if (mat.work_rows[i].empty()) continue;
      if (is_zero(rows[i])) {
        out.src_zeroed[i] = true;
        continue;
      }
      alive.emplace_back(std::move(rows[i]), i);
    }
    return alive;
  };
  if (zp) {
    auto alive = survivors(swept, [](const ZpColRow& r) { return r.empty(); });
    if (opts.interreduce && !keep_heads && alive.size() > 1) {
      interreduce_zp(field, ctx.nvars(), mat.ncols, &alive, &out.src_zeroed, &st);
    }
    std::sort(alive.begin(), alive.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    out.rows.reserve(alive.size());
    for (auto& [row, src] : alive) {
      std::vector<Term> terms;
      terms.reserve(row.cols.size());
      for (std::size_t k = 0; k < row.cols.size(); ++k) {
        terms.push_back(
            Term{BigInt(static_cast<std::int64_t>(row.vals[k])), frame.cols[row.cols[k]]});
      }
      out.rows.push_back(
          EchelonOutput::NewRow{Polynomial::from_sorted_terms(ctx, std::move(terms)), src});
    }
  } else {
    auto alive = survivors(reduced, [](const Polynomial& p) { return p.is_zero(); });
    if (opts.interreduce && alive.size() > 1) {
      interreduce_exact(ctx, &alive, &out.src_zeroed, &st);
    }
    std::sort(alive.begin(), alive.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    out.rows.reserve(alive.size());
    for (auto& [poly, src] : alive) out.rows.push_back(EchelonOutput::NewRow{std::move(poly), src});
  }
  st.interreduce_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           stage2_t0)
          .count());
  for (bool z : out.src_zeroed) st.rows_zeroed += z ? 1 : 0;
  return out;
}

/// Symbolic preprocessing, matrix build and elimination of one batch.
EchelonOutput run_batch(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                        const ReducerSet& reducers, const EchelonOptions& opts,
                        SymbolicTable* table, bool keep_heads) {
  SymbolicFrame frame = symbolic_preprocess(ctx, rows, reducers, table);
  MacaulayMatrix mat =
      build_matrix(ctx, frame, rows, opts.coeff, matrix_wants_runs(opts.coeff));
  return echelon(ctx, frame, mat, opts, keep_heads);
}

}  // namespace

EchelonOutput echelon_reduce(const PolyContext& ctx, const SymbolicFrame& frame,
                             const MacaulayMatrix& mat, const EchelonOptions& opts) {
  return echelon(ctx, frame, mat, opts, /*keep_heads=*/false);
}

EchelonOutput reduce_batch(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                           const ReducerSet& reducers, const EchelonOptions& opts,
                           SymbolicTable* table) {
  return run_batch(ctx, rows, reducers, opts, table, /*keep_heads=*/false);
}

std::vector<Polynomial> reduce_tails(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                     const ReducerSet& reducers, const EchelonOptions& opts) {
  GBD_CHECK_MSG(opts.coeff.is_zp(), "reduce_tails: Zp only");
  EchelonOutput eo = run_batch(ctx, rows, reducers, opts, nullptr, /*keep_heads=*/true);
  // A kept head is nonzero, so no nonzero row is zeroed or dropped.
  std::vector<Polynomial> out(rows.size());
  for (EchelonOutput::NewRow& r : eo.rows) out[r.src] = std::move(r.poly);
  return out;
}

}  // namespace gbd
