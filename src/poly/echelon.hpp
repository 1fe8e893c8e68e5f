// Blocked sparse row-echelon kernel over a Macaulay matrix (matrix.hpp).
//
// Stage 1 — pivot sweep, on the caller's thread. Every work row is reduced
// against the (triangular) pivot block independently, left to right over the
// columns:
//   · Zp, p < 2^32: the block sweep. The nonempty rows go in row order,
//     kSweepLanes at a time, into one lane-interleaved accumulator (GBLA's
//     multiline idea on the C block). One left-to-right
//     pass finalizes each cell once (`% p`), and streams each pivot any lane
//     hits once per block through the delayed-reduction lane AXPY of
//     poly/simd.hpp, which leaves the lanes merely *congruent* mod p. Each
//     reducer was made monic and converted once per run by the run table
//     (matrix.hpp). Dispatch (AVX2 or scalar lanes) never changes results
//     or charged cost units; the scalar lanes are the differential oracle,
//     selectable via GBD_DISABLE_SIMD.
//   · Zp, p ≥ 2^32: one row at a time in a dense accumulator of canonical
//     residues; eliminating a cell costs one REDC per pivot-row term.
//   Either way the swept row leaves as a monic sparse (column, residue) row:
//   the GBLA-style dense tail over the sparse pivot structure.
//   · exact: the row runs through the same geobucket accumulator as
//     reduce_full, but reducer *lookup* is a frame-indexed array load instead
//     of a divmask scan — the choice was fixed by symbolic preprocessing.
//     Cancellation is the identical fraction-free step, so each row's result
//     is bit-identical to the per-poly oracle's tail-reduced normal form.
//
// Stage 2 — optional interreduction (row echelon of the D block): surviving
// rows with equal head monomials are combined until all heads are distinct.
// Over Zp this runs on the sweep's column rows, merging on integer column
// order — frame columns are order-isomorphic to their monomials — and only
// the survivors become Polynomials. Exact rows combine as polynomials.
// Engines want this on (duplicate heads would enter the basis only to be
// discarded); the differential tests turn it off to compare per-row normal
// forms one-to-one against reduce_full.
//
// reduce_tails runs stage 1 only, and each row's sweep starts one column
// right of its own head, so the head survives: the Zp final reduction of
// reduce_basis (DESIGN.md §21).
#pragma once

#include <cstddef>
#include <vector>

#include "poly/coeff.hpp"
#include "poly/matrix.hpp"
#include "poly/symbolic.hpp"

namespace gbd {

struct EchelonOptions {
  CoeffOptions coeff;
  /// Combine surviving rows with equal head monomials (stage 2).
  bool interreduce = true;
};

struct EchelonOutput {
  struct NewRow {
    Polynomial poly;  ///< canonical (primitive / monic), nonzero
    std::size_t src;  ///< index of the originating work row
  };
  /// Surviving rows in ascending `src` order. With interreduce on, head
  /// monomials are pairwise distinct.
  std::vector<NewRow> rows;
  /// Per work row: true iff it was eliminated to zero.
  std::vector<bool> src_zeroed;
};

/// Reduce every work row of `mat` to normal form against the pivot block.
/// `frame` and `mat` must come from the same symbolic_preprocess/build_matrix
/// run; opts.coeff must match the build's coefficient ring.
EchelonOutput echelon_reduce(const PolyContext& ctx, const SymbolicFrame& frame,
                             const MacaulayMatrix& mat, const EchelonOptions& opts);

/// The whole batched pipeline in one call: symbolic preprocessing over
/// `reducers`, matrix build, elimination. `rows` must be canonical for
/// opts.coeff (primitive integers / canonical residues); `reducers` must not
/// be mutated during the call. `table` optionally carries the run's
/// monomial table across calls (see SymbolicTable); results and charged
/// units are identical with or without it.
EchelonOutput reduce_batch(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                           const ReducerSet& reducers, const EchelonOptions& opts,
                           SymbolicTable* table = nullptr);

/// reduce_batch for a batch of s-pairs over `reducers` (SPair; ids as the
/// set's by_id resolves them): each row is built from the pair's two halves
/// instead of an s-polynomial. Over Zp the output — rows, src, src_zeroed —
/// is bit-identical to reduce_batch over the pairs' monic s-polynomials
/// (spoly), because the sweep is linear in its row and the output is monic.
/// Zp only.
EchelonOutput reduce_pairs(const PolyContext& ctx, const std::vector<SPair>& pairs,
                           const ReducerSet& reducers, const EchelonOptions& opts,
                           SymbolicTable* table = nullptr);

/// Tail-reduce every row against `reducers`, keeping its own head term: the
/// same pipeline as reduce_batch, but each row's sweep starts one column
/// right of its head and stage 2 never runs. Over a minimal basis given as
/// both the rows and the reducer set, this is the reduced basis
/// (reduce_basis; DESIGN.md §21). Zp only; rows must be nonzero, monic and
/// canonical. Returns one monic polynomial per row, in input order.
std::vector<Polynomial> reduce_tails(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                     const ReducerSet& reducers, const EchelonOptions& opts);

}  // namespace gbd
