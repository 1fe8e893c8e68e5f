// Blocked sparse row-echelon kernel over a Macaulay matrix (matrix.hpp).
//
// Stage 1 — pivot sweep. Every work row is reduced against the (triangular)
// pivot block independently, left to right over the columns, which makes the
// stage embarrassingly parallel across rows:
//   · Zp: the row scatters into a dense accumulator of canonical residues,
//     and the sweep walks the columns left to right; eliminating a cell
//     costs one REDC per pivot-row term (each reducer was made monic and
//     Montgomery-converted once per run, by the run table — matrix.hpp).
//     The swept row leaves as a monic sparse (column, residue) row. This is
//     the GBLA-style dense tail over the sparse pivot structure. When the
//     field admits delayed
//     reduction (p < 2^32) and the CPU has AVX2, the sweep instead streams
//     the pivot block's multiline runs through the vector AXPY of
//     poly/simd.hpp — accumulator lanes stay merely *congruent* mod p and
//     are canonicalized once per cell as its column is finalized. Dispatch
//     never changes results or charged cost units (the scalar kernel is the
//     differential oracle, selectable via GBD_DISABLE_SIMD).
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
  /// Worker threads for the pivot sweep (1 = run on the caller). Results are
  /// identical for any thread count; the caller's cost counter is charged
  /// the *maximum* per-thread work, modeling parallel makespan.
  std::size_t nthreads = 1;
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

/// Tail-reduce every row against `reducers`, keeping its own head term: the
/// same pipeline as reduce_batch, but each row's sweep starts one column
/// right of its head and stage 2 never runs. Over a minimal basis given as
/// both the rows and the reducer set, this is the reduced basis
/// (reduce_basis; DESIGN.md §21). Zp only; rows must be nonzero, monic and
/// canonical. Returns one monic polynomial per row, in input order.
std::vector<Polynomial> reduce_tails(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                     const ReducerSet& reducers, const EchelonOptions& opts);

}  // namespace gbd
