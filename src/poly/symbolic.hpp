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
//
// A batch row is either a polynomial or an s-pair of reducer-set elements.
// An s-pair row is made of two halves (lcm/HMONO(g))·g, products of the kind
// the table already forms and caches for pivots, so the closure walks their
// tail ids and no s-polynomial is ever formed (DESIGN.md §20).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bigint/zp.hpp"
#include "poly/polynomial.hpp"
#include "poly/reduce.hpp"

namespace gbd {

/// Thread-local counters for the batched kernel, mirroring GeobucketStats /
/// FindReducerStats: windowed per run by the metrics registry. The matrix
/// path charges its cost units from these counts (DESIGN.md §20).
struct MatrixKernelStats {
  std::uint64_t batches = 0;        ///< symbolic_preprocess calls
  std::uint64_t frame_cols = 0;     ///< frame monomials (matrix columns)
  std::uint64_t pivot_rows = 0;     ///< scheduled reducer products
  std::uint64_t pivot_cells = 0;    ///< terms of the scheduled reducer products
  std::uint64_t work_rows = 0;      ///< batch rows fed in
  std::uint64_t work_cells = 0;     ///< terms the batch rows fed in (an s-pair: both halves' tails)
  std::uint64_t rows_zeroed = 0;    ///< work rows eliminated to zero
  std::uint64_t axpys = 0;          ///< row-elimination updates
  std::uint64_t axpy_cells = 0;     ///< Zp stage 1: pivot terms over all eliminations
  std::uint64_t merge_cells = 0;    ///< Zp stage 2: terms of both rows over all combinations
  std::uint64_t dense_cells = 0;    ///< Zp accumulator cells scanned
  // s-pair rows (SPair batches).
  std::uint64_t pair_rows = 0;           ///< work rows built from s-pairs
  std::uint64_t pair_halves_shared = 0;  ///< halves walked from a cached pivot product, not formed
  // Zp sweep dispatch (poly/simd.hpp): the AVX2 block lanes against the
  // scalar levels (scalar block lanes, or the Montgomery rows for p ≥ 2^32).
  std::uint64_t simd_rows = 0;      ///< work rows swept on the AVX2 lanes
  std::uint64_t scalar_rows = 0;    ///< Zp work rows swept at the scalar level
  std::uint64_t simd_cells = 0;     ///< pivot-tail cells the AVX2 lanes eliminated
  std::uint64_t simd_passes = 0;    ///< AVX2 block passes (up to kSweepLanes rows each)
  std::uint64_t sweep_ns = 0;       ///< wall nanoseconds inside the stage-1 sweep
  std::uint64_t interreduce_ns = 0; ///< wall nanoseconds inside stage 2
  // Symbolic frame reuse across adjacent-degree batches (SymbolicTable).
  std::uint64_t memo_hits = 0;      ///< closure monomials resolved from the memo
  std::uint64_t memo_misses = 0;    ///< closure monomials that ran find_reducer
  std::uint64_t product_cache_hits = 0;  ///< products walked as cached tail ids
  std::uint64_t table_monomials = 0;     ///< monomials interned into a table
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

/// A batch row given as an s-pair of reducer-set elements, by the ids
/// ReducerSet::by_id resolves. Its row is
///   (lcm/HMONO(g_i))·g_i/HCOEF(g_i) − (lcm/HMONO(g_j))·g_j/HCOEF(g_j),
/// lcm = lcm(HMONO(g_i), HMONO(g_j)): over Z/pZ the s-polynomial up to a
/// nonzero factor, which the monic output of the elimination absorbs.
/// Zp only (build_matrix reads the halves' monic residues).
struct SPair {
  std::uint64_t i = 0;
  std::uint64_t j = 0;
};

struct MonoHash {
  std::size_t operator()(const Monomial& m) const { return m.hash(); }
};

struct SymbolicFrame;
class SymbolicTable;

/// Build the frame for a batch of rows against `reducers`. Rows may be zero
/// (they contribute nothing). The result's PivotProduct pointers alias
/// `reducers`' backing storage — do not mutate the set until the frame is
/// consumed. `table` carries interned monomials, reducer resolutions and
/// their products across calls; it must only ever be used against the same
/// logical, append-only reducer set (the sequential engine keeps one per
/// run). Without one — or when the set reports no version — the call uses a
/// table of its own, owned by the frame. The frame is bit-identical, and
/// charges the same cost units, either way.
SymbolicFrame symbolic_preprocess(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                  const ReducerSet& reducers, SymbolicTable* table = nullptr);

/// The same for a batch of s-pairs over `reducers` (every id must resolve
/// through ReducerSet::by_id): the closure starts from each pair's two
/// halves, walked or formed as table products. Pair r's halves are rows
/// 2r and 2r + 1 of the frame's row_cols (each the columns of its tail;
/// the lcm cancels and has no column); build_matrix(frame, pairs, coeff)
/// merges them.
SymbolicFrame symbolic_preprocess(const PolyContext& ctx, const std::vector<SPair>& pairs,
                                  const ReducerSet& reducers, SymbolicTable* table = nullptr);

/// The monomial table of one F4 run. Every monomial the run meets is
/// interned once to a dense u32 id, and three things hang off the id:
///
///   · the reducer resolution (reducer id, set version at resolution time,
///     reducible?). An entry is reusable iff no head added after its stamp
///     divides the monomial (ReducerSet::head_added_since) — existing
///     elements never change under the append-only contract, and a newcomer
///     can only displace the previous winner if its head divides the
///     monomial;
///   · the tail ids of the product (m / HMONO(g))·g for the reducer g the
///     entry last chose: its pivot product, which is also the half at m of
///     any s-pair with g in it. The product depends only on (m, g), so it
///     stays valid for as long as the chosen reducer id does; a hit walks
///     these ids and forms no monomial and hashes nothing;
///   · the batch mark: a symbolic_preprocess call numbers its batch and
///     marks each id the first time the closure reaches it.
///
/// Each reducer's monic Zp coefficients are cached here too, once per run
/// and prime (build_matrix). Polynomial pointers are never cached: they are
/// re-fetched by id per batch, because the backing vector may have
/// reallocated.
class SymbolicTable {
 public:
  /// Monic coefficients of one reducer over Z/pZ, in term order.
  struct ZpCoeffs {
    std::vector<std::uint64_t> mont;   ///< Montgomery words; only for p ≥ 2^32 (row sweep)
    std::vector<std::uint32_t> canon;  ///< canonical residues; only for p < 2^32 (block sweep)
  };

  SymbolicTable() = default;
  // Not copyable: monos_ points into the nodes of ids_.
  SymbolicTable(const SymbolicTable&) = delete;
  SymbolicTable& operator=(const SymbolicTable&) = delete;

  /// The cached coefficients of `reducer` (reported as `reducer_id`),
  /// converted on first use. The vectors never move once built, so their
  /// data pointers stay valid until the table dies or a call with a
  /// different prime than the last one drops the cache.
  const ZpCoeffs& zp_coeffs(const ZpField& field, std::uint64_t reducer_id,
                            const Polynomial& reducer);

 private:
  friend SymbolicFrame symbolic_preprocess(const PolyContext&, const std::vector<Polynomial>&,
                                           const ReducerSet&, SymbolicTable*);
  friend SymbolicFrame symbolic_preprocess(const PolyContext&, const std::vector<SPair>&,
                                           const ReducerSet&, SymbolicTable*);

  static constexpr std::uint64_t kNoProduct = ~std::uint64_t{0};
  enum class Resolution : std::uint8_t { kUnknown, kIrreducible, kReducible };
  struct Entry {
    std::uint64_t reducer_id = 0;  ///< meaningful iff kReducible
    std::uint64_t stamp = 0;       ///< reducer-set version at resolution
    Resolution resolution = Resolution::kUnknown;
    std::uint64_t product_of = kNoProduct;  ///< reducer id the cached tail belongs to
    std::uint32_t tail_at = 0;              ///< the tail's ids: tails_[tail_at, +tail_len)
    std::uint32_t tail_len = 0;
  };

  /// The table `frame` is built on: `table` when resolutions may carry
  /// across calls (a caller's table over a versioned set), else one the
  /// frame owns, which keeps no memo.
  static SymbolicTable& for_frame(SymbolicFrame* frame, const ReducerSet& reducers,
                                  SymbolicTable* table);
  /// The id of m, interned on first sight.
  std::uint32_t intern(const Monomial& m);
  const Monomial& mono(std::uint32_t id) const { return *monos_[id]; }
  /// Start a new batch: no id is marked in it yet.
  void begin_batch();
  /// Cache `tail` as the product tail of `id` for reducer `reducer_id`.
  void store_tail(std::uint32_t id, std::uint64_t reducer_id,
                  const std::vector<std::uint32_t>& tail);
  /// The reducer of mono(id) (*reducer_id: its set id), or nullptr when it
  /// is irreducible: from the memo while still valid, else from
  /// find_reducer, recorded in the memo (a frame's own table keeps none).
  const Polynomial* resolve(std::uint32_t id, const ReducerSet& reducers,
                            std::uint64_t* reducer_id);
  /// The tail ids of `pair`'s halves (lcm/HMONO(g))·g into *tail_i and
  /// *tail_j. The half of the lcm's own reducer is the lcm's pivot product:
  /// walked from its cached tail, or formed and cached there.
  void pair_tails(const ReducerSet& reducers, const SPair& pair,
                  std::vector<std::uint32_t>* tail_i, std::vector<std::uint32_t>* tail_j);
  /// The closure of a batch whose rows are given as table ids, into
  /// *frame: its columns, pivots and row_cols (`rows` mapped to columns).
  void close(const PolyContext& ctx, const ReducerSet& reducers,
             std::vector<std::vector<std::uint32_t>> rows, SymbolicFrame* frame);

  std::unordered_map<Monomial, std::uint32_t, MonoHash> ids_;
  std::vector<const Monomial*> monos_;  ///< keys of ids_ (node-stable)
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> tails_;
  std::vector<std::uint32_t> mark_;   ///< per id: the batch that last reached it
  std::vector<std::uint32_t> local_;  ///< per id: its index within that batch
  std::uint32_t batch_ = 0;
  bool memo_ = true;  ///< resolutions are reused across batches
  std::uint64_t zp_prime_ = 0;
  std::unordered_map<std::uint64_t, ZpCoeffs> zp_;  ///< by reducer id
};

/// Output of symbolic preprocessing: the monomial frame and the pivot
/// schedule. Columns are the frame monomials in strictly decreasing order
/// under the context's ordering (column 0 = largest); pivots are sorted by
/// head column, which is strictly increasing (one pivot per reducible
/// monomial), so the pivot block is upper triangular by construction.
///
/// The frame also carries the column of every term it was built from — each
/// batch row's terms (row_cols) and each pivot product's (PivotProduct::cols)
/// — so laying out the matrix (matrix.hpp) is a gather: no monomial
/// products, no column lookups.
struct SymbolicFrame {
  std::vector<Monomial> cols;        ///< strictly decreasing
  std::vector<PivotProduct> pivots;  ///< head columns strictly increasing
  /// Per column: index into `pivots` of the product whose head covers it,
  /// or -1 when the column's monomial is irreducible.
  std::vector<std::int32_t> pivot_of_col;
  /// Per batch row (in input order): the column of each of its terms. A
  /// batch of s-pairs has two rows per pair, its halves' tails.
  std::vector<std::vector<std::uint32_t>> row_cols;
  /// The table the frame was built from; build_matrix reads the reducers'
  /// cached coefficients from it. Points at `own_table` when the caller
  /// supplied none.
  SymbolicTable* table = nullptr;
  std::unique_ptr<SymbolicTable> own_table;

  std::size_t ncols() const { return cols.size(); }
};

}  // namespace gbd
