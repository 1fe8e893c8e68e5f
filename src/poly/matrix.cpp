#include "poly/matrix.hpp"

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
    ZpField field(coeff.prime);
    mat.has_runs = build_runs && field.delayed_reduction_ok();
    mat.zp_pivots.reserve(frame.pivots.size());
    if (mat.has_runs) mat.zp_runs.reserve(frame.pivots.size());
    for (const PivotProduct& pv : frame.pivots) {
      const auto& terms = pv.reducer->terms();
      ZpPivotRow row;
      row.mont.reserve(terms.size());
      // Monic once per batch: fold hc^{-1} into the Montgomery conversion so
      // the kernel's per-use factor is just the accumulator cell itself.
      Zp inv_head = field.inv(field.from_residue(zp_residue_u64(pv.reducer->hcoef())));
      std::vector<std::uint64_t> canon;  // monic canonical residues, per term
      if (mat.has_runs) canon.reserve(terms.size());
      for (const Term& t : terms) {
        std::uint64_t r = field.mul_canonical(inv_head, zp_residue_u64(t.coeff));
        if (mat.has_runs) canon.push_back(r);
        row.mont.push_back(field.from_residue(r).m);
      }
      // The term columns come from the frame (pv.cols); the cost model
      // still counts forming each product monomial mult·t.
      CostCounter::charge(terms.size() * pv.mult.nvars());
      cells += terms.size();
      if (mat.has_runs) {
        // Multiline layout: maximal consecutive-column runs of the tail
        // (j >= 1 — the monic head cancels exactly and is never streamed).
        ZpPivotRuns runs;
        for (std::size_t j = 1; j < pv.cols.size(); ++j) {
          if (!runs.runs.empty()) {
            ZpPivotRuns::Run& last = runs.runs.back();
            if (pv.cols[j] == last.col + last.len) {
              last.len += 1;
              runs.coeffs.push_back(static_cast<std::uint32_t>(canon[j]));
              continue;
            }
          }
          runs.runs.push_back(ZpPivotRuns::Run{
              pv.cols[j], static_cast<std::uint32_t>(runs.coeffs.size()), 1});
          runs.coeffs.push_back(static_cast<std::uint32_t>(canon[j]));
        }
        // Deliberately not charged: whether runs are built depends on host
        // CPU dispatch, and charged units must be host-independent so
        // SimMachine virtual time reproduces everywhere.
        mat.zp_runs.push_back(std::move(runs));
      }
      mat.zp_pivots.push_back(std::move(row));
    }
  }
  CostCounter::charge(cells);
  (void)ctx;
  return mat;
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
