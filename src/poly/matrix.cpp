#include "poly/matrix.hpp"

#include "poly/simd.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

MacaulayMatrix build_matrix(const PolyContext& ctx, const SymbolicFrame& frame,
                            const std::vector<Polynomial>& rows, const CoeffOptions& coeff,
                            bool build_runs) {
  GBD_CHECK_MSG(rows.size() == frame.row_cols.size(),
                "build_matrix: rows are not the batch the frame was built from");
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
    row.coeffs.reserve(p.nterms());
    for (const Term& t : p.terms()) row.coeffs.push_back(t.coeff);
    mat.work_rows.push_back(std::move(row));
    cells += p.nterms();
  }

  if (coeff.is_zp()) {
    GBD_CHECK_MSG(frame.table != nullptr, "build_matrix: frame has no table");
    ZpField field(coeff.prime);
    mat.has_runs = build_runs && field.delayed_reduction_ok();
    mat.zp_pivots.reserve(frame.pivots.size());
    if (mat.has_runs) mat.zp_runs.reserve(frame.pivots.size());
    for (const PivotProduct& pv : frame.pivots) {
      const SymbolicTable::ZpCoeffs& zc =
          frame.table->zp_coeffs(field, pv.reducer_id, *pv.reducer);
      mat.zp_pivots.push_back(ZpPivotRow{zc.mont.data()});
      const std::size_t nterms = pv.cols.size();
      // The term columns come from the frame (pv.cols); the cost model
      // still counts forming each product monomial mult·t.
      CostCounter::charge(nterms * pv.mult.nvars());
      cells += nterms;
      if (mat.has_runs) {
        // Multiline layout: maximal consecutive-column runs of the tail
        // (j >= 1 — the monic head cancels exactly and is never streamed).
        ZpPivotRuns runs;
        runs.coeffs = zc.canon.data();
        for (std::uint32_t j = 1; j < nterms; ++j) {
          if (!runs.runs.empty()) {
            ZpPivotRuns::Run& last = runs.runs.back();
            if (pv.cols[j] == last.col + last.len) {
              last.len += 1;
              continue;
            }
          }
          runs.runs.push_back(ZpPivotRuns::Run{pv.cols[j], j, 1});
        }
        // Deliberately not charged: whether runs are built depends on host
        // CPU dispatch, and charged units must be host-independent so
        // SimMachine virtual time reproduces everywhere.
        mat.zp_runs.push_back(std::move(runs));
      }
    }
  }
  CostCounter::charge(cells);
  (void)ctx;
  return mat;
}

bool matrix_wants_runs(const CoeffOptions& coeff) {
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
