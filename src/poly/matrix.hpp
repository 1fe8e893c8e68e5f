// Sparse Macaulay-style matrix over a symbolic frame (GBLA-like layout).
//
// The frame (symbolic.hpp) fixes the columns: one per monomial, decreasing
// left to right. Rows split GBLA-style into the *pivot block* — one row per
// scheduled reducer product, upper triangular because each product's head
// covers a distinct column and its tail lies strictly to the right — and the
// *work rows* (the batch's s-polynomials), which the elimination kernel
// (echelon.hpp) reduces against the pivot block. In GBLA's ABCD naming the
// pivot block is A|B and the work rows are C|D, with the split between
// pivot columns and non-pivot columns.
//
// Storage is per-coefficient-ring:
//   · exact rows keep sparse (column, BigInt) pairs; the pivot block is NOT
//     expanded — the fraction-free kernel reads the reducer products straight
//     from the frame, because expanding them would copy coefficients the
//     geobucket accumulator never touches more than once;
//   · Zp pivot rows point at their reducer's monic coefficients, converted
//     to residues and Montgomery form once per run and prime by the run
//     table (SymbolicTable::zp_coeffs), so eliminating one work-row cell
//     costs one REDC per pivot-row term with no per-use normalization, and
//     building a matrix converts no coefficient a previous round converted.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/zp.hpp"
#include "poly/coeff.hpp"
#include "poly/symbolic.hpp"

namespace gbd {

/// One sparse row: parallel arrays of column indices (strictly increasing —
/// monomials strictly decreasing) and nonzero coefficients. Exact rows hold
/// arbitrary integers; Zp rows hold canonical residues.
struct MatrixRow {
  std::vector<std::uint32_t> cols;
  std::vector<BigInt> coeffs;

  bool empty() const { return cols.empty(); }
  std::size_t nnz() const { return cols.size(); }
};

/// A Zp pivot row for the elimination hot loop: the reducer's monic
/// coefficients in Montgomery form, so `acc -= f·row` is one mul_canonical
/// per term. The words are the run table's (SymbolicTable::zp_coeffs),
/// shared by every product of the same reducer; term j sits at the
/// product's PivotProduct::cols[j].
struct ZpPivotRow {
  const std::uint64_t* mont = nullptr;
};

/// The same pivot row in GBLA-style "multiline" layout for the SIMD sweep
/// (poly/simd.hpp): the tail's columns grouped into maximal consecutive
/// runs. A run's payload is always a slice of the reducer's monic
/// *canonical residues* (the delayed-reduction kernel multiplies plain
/// residues, not Montgomery words), so a run records only where it lands
/// and which terms it covers. The head term is never in a run — it cancels
/// exactly against the swept cell. Only built when the field admits delayed
/// reduction (p < 2^32).
struct ZpPivotRuns {
  struct Run {
    std::uint32_t col;  ///< first column of the run
    std::uint32_t off;  ///< index of its first term in the reducer (>= 1)
    std::uint32_t len;  ///< consecutive columns covered
  };
  std::vector<Run> runs;
  const std::uint32_t* coeffs = nullptr;  ///< the reducer's monic residues, term order
};

struct MacaulayMatrix {
  std::size_t ncols = 0;
  /// The batch rows (C|D block), one per input polynomial, in input order.
  /// Rows of zero polynomials are empty.
  std::vector<MatrixRow> work_rows;
  /// Zp mode only: the pivot block (A|B), parallel to frame.pivots.
  /// Exact mode leaves this empty and reads frame.pivots directly.
  std::vector<ZpPivotRow> zp_pivots;
  /// Multiline mirror of zp_pivots for the SIMD sweep; parallel to
  /// frame.pivots when has_runs, else empty (scalar dispatch, exact mode,
  /// or p ≥ 2^32).
  std::vector<ZpPivotRuns> zp_runs;
  bool has_runs = false;
};

/// Expand the batch rows (and, over Zp, the pivot products) onto the frame:
/// a gather of the columns the frame recorded for their terms. `rows` must
/// be the batch symbolic_preprocess was given. Zp rows must carry canonical
/// residues (the engines' invariant form). `build_runs` additionally lays
/// the pivot block out as multiline runs for the SIMD sweep (ignored unless
/// the field admits delayed reduction); callers that know they will
/// dispatch scalar skip it so the two kernels pay comparable build costs.
/// Zp pivot rows alias the coefficients cached in frame.table, so the
/// matrix must not outlive that table.
MacaulayMatrix build_matrix(const PolyContext& ctx, const SymbolicFrame& frame,
                            const std::vector<Polynomial>& rows, const CoeffOptions& coeff,
                            bool build_runs = false);

/// The `build_runs` every engine passes: lay out multiline runs only when
/// the Zp sweep could dispatch to the vector kernel (poly/simd.hpp), so a
/// scalar run (no AVX2, or GBD_DISABLE_SIMD) neither pays for nor is charged
/// the extra build.
bool matrix_wants_runs(const CoeffOptions& coeff);

/// Convert a row back to a polynomial over the frame (no normalization).
Polynomial row_to_poly(const PolyContext& ctx, const SymbolicFrame& frame, const MatrixRow& row);

}  // namespace gbd
