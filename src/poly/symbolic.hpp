// Symbolic preprocessing for batched (F4-style) matrix reduction.
//
// Per-poly reduction (reduce.hpp) re-walks the reducer set once per
// cancellation step. When many s-polynomials are reduced together, almost all
// of that search is shared: the monomials they contain overlap heavily, and
// each distinct monomial needs its reducer chosen exactly once. Symbolic
// preprocessing (Faugère's F4; GBLA) runs the search ahead of time over the
// whole batch: starting from the monomials of the batch rows, every monomial
// some basis head divides gets one scheduled reducer product
// mult·g (mult = m / HMONO(g)), whose own monomials are fed back into the
// worklist until closure. The closure — the *frame* — becomes the columns of
// a Macaulay matrix (matrix.hpp) and the scheduled products its pivot rows;
// the numeric elimination (echelon.hpp) then never searches for reducers.
//
// Reducer choice per monomial delegates to ReducerSet::find_reducer — the
// same divmask-prefiltered, deterministically-tie-broken lookup the per-poly
// path uses — so for a fixed reducer set the matrix path cancels each
// monomial against the exact polynomial the oracle would have picked.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "poly/polynomial.hpp"
#include "poly/reduce.hpp"

namespace gbd {

/// Thread-local counters for the batched kernel, mirroring GeobucketStats /
/// FindReducerStats: windowed per run by the metrics registry.
struct MatrixKernelStats {
  std::uint64_t batches = 0;        ///< symbolic_preprocess calls
  std::uint64_t frame_cols = 0;     ///< frame monomials (matrix columns)
  std::uint64_t pivot_rows = 0;     ///< scheduled reducer products
  std::uint64_t work_rows = 0;      ///< batch rows fed in
  std::uint64_t rows_zeroed = 0;    ///< work rows eliminated to zero
  std::uint64_t axpys = 0;          ///< row-elimination updates
  std::uint64_t dense_cells = 0;    ///< Zp accumulator cells scanned
  // SIMD sweep dispatch (poly/simd.hpp) and multiline streaming.
  std::uint64_t simd_rows = 0;      ///< work rows swept by the vector kernel
  std::uint64_t scalar_rows = 0;    ///< Zp work rows swept by the Montgomery kernel
  std::uint64_t simd_cells = 0;     ///< coefficient lanes streamed by vector AXPYs
  std::uint64_t simd_runs = 0;      ///< multiline runs streamed
  std::uint64_t sweep_ns = 0;       ///< wall nanoseconds inside the stage-1 sweep
  // Symbolic frame reuse across adjacent-degree batches (SymbolicMemo).
  std::uint64_t memo_hits = 0;      ///< closure monomials resolved from the memo
  std::uint64_t memo_misses = 0;    ///< closure monomials that ran find_reducer
  // Exact-path lazy pivot expansion (per touched column, shared per worker).
  std::uint64_t pivot_cache_builds = 0;  ///< products expanded on first touch
  std::uint64_t pivot_cache_hits = 0;    ///< reuses of an expanded product
};

MatrixKernelStats& matrix_kernel_stats();
void reset_matrix_kernel_stats();

/// One scheduled reducer product mult·(*reducer), covering the frame
/// monomial mult·HMONO(reducer). The pointer aliases the reducer set's
/// backing storage and is valid only while that set is not mutated.
struct PivotProduct {
  const Polynomial* reducer = nullptr;
  std::uint64_t reducer_id = 0;  ///< id reported by ReducerSet::find_reducer
  Monomial mult;
  /// Frame column of mult·t for every term t of the reducer, in term order
  /// (strictly increasing; cols[0] is the head column).
  std::vector<std::uint32_t> cols;
};

/// Output of symbolic preprocessing: the monomial frame and the pivot
/// schedule. Columns are the frame monomials in strictly decreasing order
/// under the context's ordering (column 0 = largest); pivots are sorted by
/// head column, which is strictly increasing (one pivot per reducible
/// monomial), so the pivot block is upper triangular by construction.
///
/// The frame also carries the column of every term it was built from — each
/// batch row's terms (row_cols) and each pivot product's (PivotProduct::cols)
/// — resolved while the closure was hashed, so laying out the matrix
/// (matrix.hpp) is a gather: no monomial products, no column lookups.
struct SymbolicFrame {
  std::vector<Monomial> cols;        ///< strictly decreasing
  std::vector<PivotProduct> pivots;  ///< head columns strictly increasing
  /// Per column: index into `pivots` of the product whose head covers it,
  /// or -1 when the column's monomial is irreducible.
  std::vector<std::int32_t> pivot_of_col;
  /// Per batch row (in input order): the column of each of its terms.
  std::vector<std::vector<std::uint32_t>> row_cols;

  std::size_t ncols() const { return cols.size(); }

  /// Column of a monomial, or -1 if it is not in the frame.
  std::int64_t col_of(const Monomial& m) const {
    auto it = index_.find(m);
    return it == index_.end() ? -1 : static_cast<std::int64_t>(it->second);
  }

  struct MonoHash {
    std::size_t operator()(const Monomial& m) const { return m.hash(); }
  };
  std::unordered_map<Monomial, std::uint32_t, MonoHash> index_;
};

/// Cross-batch cache of reducer resolutions. Adjacent-degree batches share
/// most of their closure monomials, so rebuilding the frame from scratch
/// re-runs find_reducer over a mostly unchanged reducer set. The memo keys
/// each resolved monomial to (reducer id, set version at resolution time,
/// reducible?); an entry is reusable iff no head added after its stamp
/// divides the monomial (ReducerSet::head_added_since) — existing elements
/// never change under the append-only contract, and a newcomer can only
/// displace the previous winner if its head divides the monomial. Pointers
/// are never cached: they are re-fetched by id per batch, because the
/// backing vector may have reallocated. Only effective against sets that
/// report a version (VectorReducerSet); unversioned sets bypass the memo.
class SymbolicMemo {
 public:
  struct Entry {
    std::uint64_t reducer_id = 0;  ///< meaningful iff reducible
    std::uint64_t stamp = 0;       ///< reducer-set version at resolution
    bool reducible = false;
  };

  Entry* lookup(const Monomial& m) {
    auto it = map_.find(m);
    return it == map_.end() ? nullptr : &it->second;
  }
  void store(const Monomial& m, Entry e) { map_[m] = e; }
  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

 private:
  std::unordered_map<Monomial, Entry, SymbolicFrame::MonoHash> map_;
};

/// Build the frame for a batch of rows against `reducers`. Rows may be zero
/// (they contribute nothing). The result's PivotProduct pointers alias
/// `reducers`' backing storage — do not mutate the set until the frame is
/// consumed. `memo`, if given, caches resolutions across calls; it must only
/// ever be used against the same logical reducer set (the sequential engine
/// keeps one per run). The frame is bit-identical with or without it.
SymbolicFrame symbolic_preprocess(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                  const ReducerSet& reducers, SymbolicMemo* memo = nullptr);

}  // namespace gbd
