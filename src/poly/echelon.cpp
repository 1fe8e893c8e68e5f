#include "poly/echelon.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
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
  std::uint64_t axpy_cells = 0;
  std::uint64_t dense_cells = 0;
  std::uint64_t simd_rows = 0;
  std::uint64_t scalar_rows = 0;
  std::uint64_t simd_cells = 0;
  std::uint64_t simd_passes = 0;
  std::uint64_t cache_builds = 0;
  std::uint64_t cache_hits = 0;
};

/// A Zp row in column space: strictly increasing frame columns, each with a
/// nonzero canonical residue. Both Zp sweeps emit these, monic, and stage 2
/// combines them; only the survivors become Polynomials.
struct ZpColRow {
  std::vector<std::uint32_t> cols;
  std::vector<std::uint64_t> vals;

  bool empty() const { return cols.empty(); }
};

/// Polynomial::make_monic in column space.
void make_monic(const ZpField& field, ZpColRow* row) {
  if (row->empty() || row->vals[0] == 1) return;
  const Zp inv = field.inv(field.from_residue(row->vals[0]));
  for (std::uint64_t& v : row->vals) v = field.mul_canonical(inv, v);
}

/// The nonzero cells of a swept accumulator from column `from` on (every
/// cell there canonical, every cell before it zero), monic. Zeroes the cells
/// it reads, so the accumulator is all zero again for the next row.
ZpColRow gather_monic(const ZpField& field, std::vector<std::uint64_t>* acc, std::size_t from) {
  ZpColRow out;
  for (std::size_t c = from; c < acc->size(); ++c) {
    std::uint64_t& cell = (*acc)[c];
    if (cell == 0) continue;
    out.cols.push_back(static_cast<std::uint32_t>(c));
    out.vals.push_back(cell);
    cell = 0;
  }
  make_monic(field, &out);
  return out;
}

/// Montgomery Zp pivot sweep for one work row (p ≥ 2^32): dense, all-zero
/// accumulator of canonical residues, walked left to right from column
/// `start`. A pivot's tail scatters strictly to the right of its head, so
/// one pass clears every pivot column at or after `start`; cells before it
/// keep their scattered values.
ZpColRow sweep_row_zp(const SymbolicFrame& frame, const MacaulayMatrix& mat,
                      const ZpField& field, const MatrixRow& row, std::size_t start,
                      std::vector<std::uint64_t>* acc, SweepTally* tally) {
  const std::size_t ncols = mat.ncols;
  for (std::size_t i = 0; i < row.nnz(); ++i) {
    (*acc)[row.cols[i]] = row.residues[i];
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
    tally->axpy_cells += pcols.size();
  }
  tally->dense_cells += ncols;
  tally->scalar_rows += 1;
  return gather_monic(field, acc, row.cols[0]);
}

/// Up to kSweepLanes nonempty work rows and the slots their swept rows go to.
struct SweepBlock {
  const MatrixRow* rows[kSweepLanes] = {};
  ZpColRow* out[kSweepLanes] = {};
  std::size_t size = 0;
};

/// Zp block sweep (p < 2^32): the block's rows in one left-to-right pass
/// over a lane-interleaved accumulator, cell (c, r) at acc[kSweepLanes·c + r],
/// whose lanes hold 64-bit values merely *congruent* mod p (delayed
/// reduction; see poly/simd.hpp). A cell at or right of its row's start is
/// finalized (`% p`) exactly once, when the pass reaches its column and
/// every contribution to it is in, so the pivot factor and the output term
/// are the canonical residues the Montgomery kernel keeps throughout: every
/// row is bit-identical to sweep_row_zp's. A pivot that any lane hits
/// streams once per block, with factor 0 for the lanes it does not
/// eliminate. The pass emits and zeroes each cell as it goes, so the
/// accumulator starts and ends all zero. Its counts (eliminations, their
/// pivot lengths, dense cells) match sweep_row_zp row by row, so the units
/// charged from them depend neither on dispatch nor on blocking.
void sweep_block_zp(const SymbolicFrame& frame, const MacaulayMatrix& mat, const ZpField& field,
                    const SweepBlock& block, bool keep_heads, SimdLevel level,
                    std::vector<std::uint64_t>* acc_vec, SweepTally* tally) {
  constexpr std::size_t kL = kSweepLanes;
  const std::size_t ncols = mat.ncols;
  const std::uint64_t p = field.p();
  const std::uint64_t r64 = field.r_mod_p();
  std::uint64_t* acc = acc_vec->data();
  // Scatter each row into its lane; [begin, end) bounds every live cell and
  // grows as pivot tails stream further right.
  std::size_t start[kL] = {};
  std::size_t begin = ncols, end = 0;
  for (std::size_t r = 0; r < block.size; ++r) {
    const MatrixRow& row = *block.rows[r];
    for (std::size_t i = 0; i < row.nnz(); ++i) {
      acc[kL * row.cols[i] + r] = row.residues[i];
    }
    start[r] = row.cols[0] + (keep_heads ? 1 : 0);
    begin = std::min<std::size_t>(begin, row.cols[0]);
    end = std::max<std::size_t>(end, row.cols.back() + 1);
  }
  std::uint64_t terms = 0, cells = 0;  // pivot terms and tail cells over the eliminations
  for (std::size_t c = begin; c < end; ++c) {
    std::uint64_t* cell = acc + kL * c;
    std::uint64_t any = 0;
    for (std::size_t r = 0; r < kL; ++r) any |= cell[r];
    if (any == 0) continue;
    const std::int32_t pv = frame.pivot_of_col[c];
    std::uint64_t fneg[kL] = {};
    std::size_t hits = 0;
    for (std::size_t r = 0; r < block.size; ++r) {
      const std::uint64_t v = cell[r];
      if (v == 0) continue;
      cell[r] = 0;
      const std::uint64_t f = v < p ? v : v % p;
      if (f == 0) continue;
      // Left of its start a lane holds only a kept head (canonical from the
      // scatter); a non-pivot cell is final, since later eliminations only
      // touch columns > c.
      if (c < start[r] || pv < 0) {
        block.out[r]->cols.push_back(static_cast<std::uint32_t>(c));
        block.out[r]->vals.push_back(f);
        continue;
      }
      fneg[r] = p - f;  // the monic head cancels exactly; subtract as lane addition
      ++hits;
    }
    if (hits == 0) continue;
    const std::size_t k = static_cast<std::size_t>(pv);
    const std::vector<std::uint32_t>& pcols = frame.pivots[k].cols;
    const std::size_t nterms = pcols.size();
    zp_axpy_lanes(acc, pcols.data() + 1, mat.zp_pivots[k].canon + 1, nterms - 1, fneg, r64,
                  level);
    end = std::max<std::size_t>(end, pcols.back() + 1);
    terms += hits * nterms;
    cells += hits * (nterms - 1);
    tally->axpys += hits;
  }
  for (std::size_t r = 0; r < block.size; ++r) make_monic(field, block.out[r]);
  tally->axpy_cells += terms;
  tally->dense_cells += block.size * ncols;
  if (level == SimdLevel::kAvx2) {
    tally->simd_rows += block.size;
    tally->simd_cells += cells;
    tally->simd_passes += 1;
  } else {
    tally->scalar_rows += block.size;
  }
}

/// row ← row − hc(row)·piv for a monic `piv` with the same head column,
/// merged on column order into `scratch`, then swapped in. This is
/// zp_combine(1·row, (p − hc)·piv) with unit multipliers.
void combine_zp(const ZpField& field, ZpColRow* row, const ZpColRow& piv, ZpColRow* scratch) {
  const Zp f = field.from_residue(field.p() - row->vals[0]);
  const std::size_t na = row->cols.size(), nb = piv.cols.size();
  scratch->cols.clear();
  scratch->vals.clear();
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
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
  std::swap(*row, *scratch);
}

/// Lazily expanded pivot products for the exact sweep: slot pv holds the
/// term run of mult·reducer (coefficients verbatim, monomials multiplied
/// through), built at first touch and reused for every later row that hits
/// the same pivot column. One cache per matrix — reuse is amortized across
/// its rows.
using ExactPivotCache = std::vector<std::unique_ptr<std::vector<Term>>>;

/// The exact sweep's column of each frame monomial, built once per matrix.
using ColIndex = std::unordered_map<Monomial, std::uint32_t, MonoHash>;

/// Exact pivot sweep for one work row: the reduce_full geobucket loop with
/// the reducer choice read off the frame. Bit-identical to the per-poly
/// oracle's tail-reduced normal form (same reducers, same fraction-free
/// steps, same final make_primitive inside extract()).
Polynomial sweep_row_exact(const PolyContext& ctx, const SymbolicFrame& frame,
                           const ColIndex& col_of, const MatrixRow& mrow, ExactPivotCache* cache,
                           SweepTally* tally) {
  Polynomial p = row_to_poly(ctx, frame, mrow);
  p.make_primitive();
  if (p.is_zero()) return p;
  Geobucket acc(ctx, std::move(p));
  Term lead;
  while (acc.lead(&lead)) {
    const auto c = col_of.find(lead.mono);
    GBD_CHECK_MSG(c != col_of.end(), "echelon_reduce: monomial escaped the frame");
    std::int32_t pv = frame.pivot_of_col[c->second];
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
    // Expand mult·reducer once per pivot; later touches skip the
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
/// head column and merging on column order makes exactly the combinations a
/// polynomial-level pass makes, with the same results. Returns the merge
/// cells: both rows' lengths, summed over the combinations.
std::uint64_t interreduce_zp(const ZpField& field, std::size_t ncols,
                             std::vector<std::pair<ZpColRow, std::size_t>>* alive,
                             std::vector<bool>* src_zeroed, MatrixKernelStats* st) {
  using Work = std::pair<ZpColRow, std::size_t>;  // (row, src)
  std::sort(alive->begin(), alive->end(), [&](const Work& a, const Work& b) {
    if (a.first.cols[0] != b.first.cols[0]) return a.first.cols[0] < b.first.cols[0];
    return a.second < b.second;
  });
  std::uint64_t merge_cells = 0;
  std::vector<std::int32_t> kept_at(ncols, -1);  // per head column: index into `kept`
  std::vector<Work> kept;
  ZpColRow scratch;
  for (Work& w : *alive) {
    ZpColRow& row = w.first;
    while (!row.empty()) {
      const std::int32_t k = kept_at[row.cols[0]];
      if (k < 0) break;
      const ZpColRow& piv = kept[static_cast<std::size_t>(k)].first;
      merge_cells += row.cols.size() + piv.cols.size();
      combine_zp(field, &row, piv, &scratch);
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
  return merge_cells;
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

  // Dispatch, resolved once per matrix: every p < 2^32 takes the block
  // sweep, on the AVX2 lanes when the matrix allows them and the host has
  // them (GBD_DISABLE_SIMD pins the scalar lanes); larger primes take the
  // Montgomery per-row sweep.
  const bool blocks = zp && field.delayed_reduction_ok();
  const SimdLevel level = mat.simd_lanes ? simd_level() : SimdLevel::kScalar;

  // Stage 1: pivot sweep, on the caller's thread. Nonempty rows go into
  // blocks in row order; slot i of `swept` (Zp) or `reduced` (exact) holds
  // row i's result.
  std::vector<ZpColRow> swept(zp ? nrows : 0);
  std::vector<Polynomial> reduced(zp ? 0 : nrows);
  SweepTally tally;
  std::vector<std::uint64_t> acc;
  if (zp) acc.assign(blocks ? kSweepLanes * mat.ncols : mat.ncols, 0);
  ColIndex col_of;
  ExactPivotCache cache;
  if (!zp) {
    col_of.reserve(frame.ncols());
    for (std::uint32_t c = 0; c < frame.ncols(); ++c) col_of.emplace(frame.cols[c], c);
    cache.resize(frame.pivots.size());
  }

  const auto sweep_t0 = std::chrono::steady_clock::now();
  SweepBlock block;
  for (std::size_t i = 0; i < nrows; ++i) {
    const MatrixRow& row = mat.work_rows[i];
    if (row.empty()) continue;
    if (blocks) {
      block.rows[block.size] = &row;
      block.out[block.size] = &swept[i];
      if (++block.size == kSweepLanes) {
        sweep_block_zp(frame, mat, field, block, keep_heads, level, &acc, &tally);
        block.size = 0;
      }
    } else if (zp) {
      // Every cell left of the head is zero, so a sweep may as well start
      // at the head.
      const std::size_t start = row.cols[0] + (keep_heads ? 1 : 0);
      swept[i] = sweep_row_zp(frame, mat, field, row, start, &acc, &tally);
    } else {
      reduced[i] = sweep_row_exact(ctx, frame, col_of, row, &cache, &tally);
    }
  }
  if (block.size > 0) sweep_block_zp(frame, mat, field, block, keep_heads, level, &acc, &tally);
  const auto stage2_t0 = std::chrono::steady_clock::now();
  st.sweep_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stage2_t0 - sweep_t0).count());
  st.axpys += tally.axpys;
  st.axpy_cells += tally.axpy_cells;
  st.dense_cells += tally.dense_cells;
  st.simd_rows += tally.simd_rows;
  st.scalar_rows += tally.scalar_rows;
  st.simd_cells += tally.simd_cells;
  st.simd_passes += tally.simd_passes;
  st.pivot_cache_builds += tally.cache_builds;
  st.pivot_cache_hits += tally.cache_hits;

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
    std::uint64_t merge_cells = 0;
    if (opts.interreduce && !keep_heads && alive.size() > 1) {
      merge_cells = interreduce_zp(field, mat.ncols, &alive, &out.src_zeroed, &st);
    }
    st.merge_cells += merge_cells;
    // DESIGN.md §20's sweep and stage-2 terms, from this matrix's counts:
    // the same for any dispatch or blocking.
    CostCounter::charge(tally.axpy_cells + tally.dense_cells / 8 +
                        (ctx.nvars() + 1) * merge_cells);
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
      build_matrix(ctx, frame, rows, opts.coeff, matrix_wants_simd_lanes(opts.coeff));
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

EchelonOutput reduce_pairs(const PolyContext& ctx, const std::vector<SPair>& pairs,
                           const ReducerSet& reducers, const EchelonOptions& opts,
                           SymbolicTable* table) {
  GBD_CHECK_MSG(opts.coeff.is_zp(), "reduce_pairs: Zp only");
  SymbolicFrame frame = symbolic_preprocess(ctx, pairs, reducers, table);
  MacaulayMatrix mat = build_matrix(frame, pairs, reducers, opts.coeff);
  return echelon(ctx, frame, mat, opts, /*keep_heads=*/false);
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
