#include "poly/matrix.hpp"

#include "poly/simd.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

namespace {

/// Over Zp: the pivot block, each product pointing at its reducer's cached
/// monic coefficients, and the dispatch flag.
void lay_out_zp_pivots(const SymbolicFrame& frame, const ZpField& field, bool simd_lanes,
                       MacaulayMatrix* mat) {
  GBD_CHECK_MSG(frame.table != nullptr, "build_matrix: frame has no table");
  mat->simd_lanes = simd_lanes && field.delayed_reduction_ok();
  mat->zp_pivots.reserve(frame.pivots.size());
  for (const PivotProduct& pv : frame.pivots) {
    const SymbolicTable::ZpCoeffs& zc = frame.table->zp_coeffs(field, pv.reducer_id, *pv.reducer);
    mat->zp_pivots.push_back(ZpPivotRow{zc.mont.data(), zc.canon.data()});
  }
}

/// DESIGN.md §20's build term: one unit per laid-out cell of the work rows
/// (`work_cells`) and the pivot products.
void charge_layout(const SymbolicFrame& frame, std::uint64_t work_cells) {
  std::uint64_t cells = work_cells;
  for (const PivotProduct& pv : frame.pivots) cells += pv.cols.size();
  CostCounter::charge(cells);
}

/// Row (lcm/HM(a))·a − (lcm/HM(b))·b from the halves' tail columns and
/// the elements' cached monic coefficients: canonical residues in `row`.
void merge_halves(const std::vector<std::uint32_t>& ca, const SymbolicTable::ZpCoeffs& a,
                  const std::vector<std::uint32_t>& cb, const SymbolicTable::ZpCoeffs& b,
                  const ZpField& field, MatrixRow* row) {
  const bool narrow = field.delayed_reduction_ok();
  // Tail column k of a half is term k + 1 of its element.
  auto va = [&](std::size_t k) -> std::uint64_t {
    return narrow ? a.canon[k + 1] : field.to_u64(Zp{a.mont[k + 1]});
  };
  auto neg_vb = [&](std::size_t k) -> std::uint64_t {
    return field.p() - (narrow ? b.canon[k + 1] : field.to_u64(Zp{b.mont[k + 1]}));
  };
  const std::size_t na = ca.size(), nb = cb.size();
  row->cols.reserve(na + nb);
  row->residues.reserve(na + nb);
  auto push = [&](std::uint32_t c, std::uint64_t v) {
    row->cols.push_back(c);
    row->residues.push_back(v);
  };
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (ca[i] < cb[j]) {
      push(ca[i], va(i));
      ++i;
    } else if (ca[i] > cb[j]) {
      push(cb[j], neg_vb(j));
      ++j;
    } else {
      const std::uint64_t v = field.add_canonical(va(i), neg_vb(j));
      if (v != 0) push(ca[i], v);
      ++i;
      ++j;
    }
  }
  for (; i < na; ++i) push(ca[i], va(i));
  for (; j < nb; ++j) push(cb[j], neg_vb(j));
}

}  // namespace

MacaulayMatrix build_matrix(const PolyContext& ctx, const SymbolicFrame& frame,
                            const std::vector<Polynomial>& rows, const CoeffOptions& coeff,
                            bool simd_lanes) {
  GBD_CHECK_MSG(rows.size() == frame.row_cols.size(),
                "build_matrix: rows are not the batch the frame was built from");
  const bool zp = coeff.is_zp();
  MacaulayMatrix mat;
  mat.ncols = frame.ncols();
  mat.work_rows.reserve(rows.size());
  std::uint64_t cells = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Polynomial& p = rows[r];
    GBD_CHECK_MSG(frame.row_cols[r].size() == p.nterms(),
                  "build_matrix: rows are not the batch the frame was built from");
    // Terms are strictly decreasing monomials and the frame is sorted the
    // same way, so the column indices are strictly increasing.
    MatrixRow row;
    row.cols = frame.row_cols[r];
    if (zp) {
      row.residues.reserve(p.nterms());
      for (const Term& t : p.terms()) row.residues.push_back(zp_residue_u64(t.coeff));
    } else {
      row.coeffs.reserve(p.nterms());
      for (const Term& t : p.terms()) row.coeffs.push_back(t.coeff);
    }
    mat.work_rows.push_back(std::move(row));
    cells += p.nterms();
  }
  if (zp) lay_out_zp_pivots(frame, ZpField(coeff.prime), simd_lanes, &mat);
  charge_layout(frame, cells);
  (void)ctx;
  return mat;
}

MacaulayMatrix build_matrix(const SymbolicFrame& frame, const std::vector<SPair>& pairs,
                            const ReducerSet& reducers, const CoeffOptions& coeff) {
  GBD_CHECK_MSG(coeff.is_zp(), "build_matrix: s-pair rows are Zp only");
  GBD_CHECK_MSG(frame.row_cols.size() == 2 * pairs.size(),
                "build_matrix: pairs are not the batch the frame was built from");
  const ZpField field(coeff.prime);
  MacaulayMatrix mat;
  mat.ncols = frame.ncols();
  lay_out_zp_pivots(frame, field, matrix_wants_simd_lanes(coeff), &mat);
  mat.work_rows.resize(pairs.size());
  std::uint64_t cells = 0;
  for (std::size_t r = 0; r < pairs.size(); ++r) {
    const std::vector<std::uint32_t>& ca = frame.row_cols[2 * r];
    const std::vector<std::uint32_t>& cb = frame.row_cols[2 * r + 1];
    const SymbolicTable::ZpCoeffs& a =
        frame.table->zp_coeffs(field, pairs[r].i, *reducers.by_id(pairs[r].i));
    const SymbolicTable::ZpCoeffs& b =
        frame.table->zp_coeffs(field, pairs[r].j, *reducers.by_id(pairs[r].j));
    merge_halves(ca, a, cb, b, field, &mat.work_rows[r]);
    cells += ca.size() + cb.size();
  }
  charge_layout(frame, cells);
  return mat;
}

bool matrix_wants_simd_lanes(const CoeffOptions& coeff) {
  return coeff.is_zp() && simd_level() != SimdLevel::kScalar;
}

Polynomial row_to_poly(const PolyContext& ctx, const SymbolicFrame& frame, const MatrixRow& row) {
  std::vector<Term> terms;
  terms.reserve(row.nnz());
  for (std::size_t i = 0; i < row.nnz(); ++i) {
    terms.push_back(Term{row.coeffs[i], frame.cols[row.cols[i]]});
  }
  CostCounter::charge(terms.size());
  return Polynomial::from_sorted_terms(ctx, std::move(terms));
}

}  // namespace gbd
