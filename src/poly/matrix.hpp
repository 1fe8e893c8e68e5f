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
//     costs one lane update (p < 2^32) or one REDC per pivot-row term with
//     no per-use normalization, and building a matrix converts no
//     coefficient a previous round converted.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/zp.hpp"
#include "poly/coeff.hpp"
#include "poly/symbolic.hpp"

namespace gbd {

/// One sparse row: column indices (strictly increasing — monomials strictly
/// decreasing) and, parallel to them, nonzero coefficients in the ring's
/// form: arbitrary integers for an exact row, canonical residues for a Zp
/// row. The other array stays empty.
struct MatrixRow {
  std::vector<std::uint32_t> cols;
  std::vector<BigInt> coeffs;             ///< exact rows
  std::vector<std::uint64_t> residues;    ///< Zp rows

  bool empty() const { return cols.empty(); }
  std::size_t nnz() const { return cols.size(); }
};

/// A Zp pivot row for the elimination hot loop: the reducer's monic
/// coefficients, shared by every product of the same reducer through the
/// run table (SymbolicTable::zp_coeffs); term j sits at the product's
/// PivotProduct::cols[j]. Below 2^32 the block sweep (poly/simd.hpp) reads
/// plain residues; at or above it the Montgomery sweep reads Montgomery
/// words, so `acc -= f·row` is one mul_canonical per term.
struct ZpPivotRow {
  const std::uint64_t* mont = nullptr;   ///< meaningful only when p ≥ 2^32
  const std::uint32_t* canon = nullptr;  ///< meaningful only when p < 2^32
};

struct MacaulayMatrix {
  std::size_t ncols = 0;
  /// The batch rows (C|D block), one per input polynomial or s-pair, in
  /// input order. Rows of zero polynomials, and s-pairs whose halves cancel
  /// completely, are empty.
  std::vector<MatrixRow> work_rows;
  /// Zp mode only: the pivot block (A|B), parallel to frame.pivots.
  /// Exact mode leaves this empty and reads frame.pivots directly.
  std::vector<ZpPivotRow> zp_pivots;
  /// Whether the block sweep may dispatch its AVX2 lanes (simd_level()) for
  /// this matrix; false pins it to the scalar lanes. Only ever true over Zp
  /// with p < 2^32, where the block sweep runs at all.
  bool simd_lanes = false;
};

/// Expand the batch rows (and, over Zp, the pivot products) onto the frame:
/// a gather of the columns the frame recorded for their terms. `rows` must
/// be the batch symbolic_preprocess was given. Zp rows must carry canonical
/// residues (the engines' invariant form). `simd_lanes` lets the block
/// sweep dispatch its AVX2 lanes (MacaulayMatrix::simd_lanes); it is
/// ignored unless the field admits delayed reduction. Zp pivot rows alias
/// the coefficients cached in frame.table, so the matrix must not outlive
/// that table.
MacaulayMatrix build_matrix(const PolyContext& ctx, const SymbolicFrame& frame,
                            const std::vector<Polynomial>& rows, const CoeffOptions& coeff,
                            bool simd_lanes = false);

/// The same for a frame built from `pairs` over `reducers`: work row r
/// merges the pair's two halves (the frame's rows 2r and 2r + 1) on column
/// order, with coefficients from the elements' cached monic residues
/// (SymbolicTable::zp_coeffs), the second half negated. The lcm cancels and
/// has no column; so does any tail cell the halves share with equal
/// coefficients. Zp only; the lanes are matrix_wants_simd_lanes(coeff).
MacaulayMatrix build_matrix(const SymbolicFrame& frame, const std::vector<SPair>& pairs,
                            const ReducerSet& reducers, const CoeffOptions& coeff);

/// The `simd_lanes` every engine passes: true when the batch is over Zp and
/// the host dispatches the vector kernel right now (poly/simd.hpp).
bool matrix_wants_simd_lanes(const CoeffOptions& coeff);

/// Convert an exact row back to a polynomial over the frame (no normalization).
Polynomial row_to_poly(const PolyContext& ctx, const SymbolicFrame& frame, const MatrixRow& row);

}  // namespace gbd
