#include "poly/symbolic.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

MatrixKernelStats& matrix_kernel_stats() {
  static thread_local MatrixKernelStats stats;
  return stats;
}

void reset_matrix_kernel_stats() { matrix_kernel_stats() = MatrixKernelStats{}; }

std::uint32_t SymbolicTable::intern(const Monomial& m) {
  auto [it, fresh] = ids_.try_emplace(m, static_cast<std::uint32_t>(monos_.size()));
  if (fresh) {
    monos_.push_back(&it->first);
    entries_.emplace_back();
    mark_.push_back(0);
    local_.push_back(0);
    matrix_kernel_stats().table_monomials += 1;
  }
  return it->second;
}

void SymbolicTable::begin_batch() {
  if (++batch_ == 0) {  // the stamp wrapped: forget every old mark
    std::fill(mark_.begin(), mark_.end(), 0);
    batch_ = 1;
  }
}

void SymbolicTable::store_tail(std::uint32_t id, std::uint64_t reducer_id,
                               const std::vector<std::uint32_t>& tail) {
  Entry& e = entries_[id];
  if (tail.size() > e.tail_len) {  // outgrows its slot: move to the end of the pool
    e.tail_at = static_cast<std::uint32_t>(tails_.size());
    tails_.resize(tails_.size() + tail.size());
  }
  std::copy(tail.begin(), tail.end(), tails_.begin() + e.tail_at);
  e.tail_len = static_cast<std::uint32_t>(tail.size());
  e.product_of = reducer_id;
}

const SymbolicTable::ZpCoeffs& SymbolicTable::zp_coeffs(const ZpField& field,
                                                        std::uint64_t reducer_id,
                                                        const Polynomial& reducer) {
  if (zp_prime_ != field.p()) {
    zp_.clear();
    zp_prime_ = field.p();
  }
  auto [it, fresh] = zp_.try_emplace(reducer_id);
  ZpCoeffs& zc = it->second;
  if (!fresh) return zc;
  // Monic once per run: the kernel's per-use factor is then just the
  // accumulator cell itself. Engine bases over Zp are already monic.
  const std::uint64_t hc = zp_residue_u64(reducer.hcoef());
  const Zp inv_head = hc == 1 ? field.one() : field.inv(field.from_residue(hc));
  const bool narrow = field.delayed_reduction_ok();
  if (narrow) {
    zc.canon.reserve(reducer.nterms());
  } else {
    zc.mont.reserve(reducer.nterms());
  }
  for (const Term& t : reducer.terms()) {
    const std::uint64_t r = field.mul_canonical(inv_head, zp_residue_u64(t.coeff));
    if (narrow) {
      zc.canon.push_back(static_cast<std::uint32_t>(r));
    } else {
      zc.mont.push_back(field.from_residue(r).m);
    }
  }
  return zc;
}

SymbolicTable& SymbolicTable::for_frame(SymbolicFrame* frame, const ReducerSet& reducers,
                                        SymbolicTable* table) {
  // Resolutions, ids and products only carry across calls for a set whose
  // answers and ids are stable between versions; anything else gets a table
  // of its own, which the frame keeps for build_matrix.
  if (table == nullptr || reducers.version() == ReducerSet::kUnversioned) {
    frame->own_table = std::make_unique<SymbolicTable>();
    table = frame->own_table.get();
    table->memo_ = false;
  }
  frame->table = table;
  return *table;
}

const Polynomial* SymbolicTable::resolve(std::uint32_t id, const ReducerSet& reducers,
                                         std::uint64_t* reducer_id) {
  if (!memo_) return reducers.find_reducer(mono(id), reducer_id);
  MatrixKernelStats& st = matrix_kernel_stats();
  const std::uint64_t ver = reducers.version();
  Entry& e = entries_[id];
  // Reusable iff no head appended after the stamp divides the monomial; a
  // hit refreshes the stamp so the next check scans an empty suffix.
  if (e.resolution != Resolution::kUnknown &&
      (e.stamp == ver || !reducers.head_added_since(mono(id), e.stamp))) {
    e.stamp = ver;
    if (e.resolution == Resolution::kIrreducible) {
      st.memo_hits += 1;
      return nullptr;
    }
    if (const Polynomial* red = reducers.by_id(e.reducer_id)) {  // else fall through
      *reducer_id = e.reducer_id;
      st.memo_hits += 1;
      return red;
    }
  }
  const Polynomial* red = reducers.find_reducer(mono(id), reducer_id);
  st.memo_misses += 1;
  e.reducer_id = *reducer_id;
  e.stamp = ver;
  e.resolution = red != nullptr ? Resolution::kReducible : Resolution::kIrreducible;
  return red;
}

void SymbolicTable::pair_tails(const ReducerSet& reducers, const SPair& pair,
                               std::vector<std::uint32_t>* tail_i,
                               std::vector<std::uint32_t>* tail_j) {
  const std::uint64_t ids[2] = {pair.i, pair.j};
  const Polynomial* g[2] = {reducers.by_id(pair.i), reducers.by_id(pair.j)};
  GBD_CHECK_MSG(g[0] != nullptr && g[1] != nullptr && !g[0]->is_zero() && !g[1]->is_zero(),
                "symbolic_preprocess: an s-pair names no nonzero element of the set");
  const std::uint32_t lcm = intern(Monomial::lcm(g[0]->hmono(), g[1]->hmono()));
  // Usually the lcm's own reducer is one of the pair's elements; that half
  // is then the lcm's pivot product, which the closure meets whenever some
  // other row reaches the lcm.
  std::uint64_t lcm_reducer = 0;
  const bool reducible = resolve(lcm, reducers, &lcm_reducer) != nullptr;
  std::vector<std::uint32_t>* tails[2] = {tail_i, tail_j};
  for (int h = 0; h < 2; ++h) {
    std::vector<std::uint32_t>& tail = *tails[h];
    const Entry& e = entries_[lcm];
    if (e.product_of == ids[h]) {
      tail.assign(tails_.begin() + e.tail_at, tails_.begin() + e.tail_at + e.tail_len);
      matrix_kernel_stats().pair_halves_shared += 1;
      continue;
    }
    const Monomial mult = mono(lcm) / g[h]->hmono();
    const auto& terms = g[h]->terms();
    tail.clear();
    for (std::size_t k = 1; k < terms.size(); ++k) tail.push_back(intern(terms[k].mono * mult));
    if (reducible && lcm_reducer == ids[h]) store_tail(lcm, ids[h], tail);
  }
}

void SymbolicTable::close(const PolyContext& ctx, const ReducerSet& reducers,
                          std::vector<std::vector<std::uint32_t>> rows, SymbolicFrame* frame) {
  MatrixKernelStats& st = matrix_kernel_stats();
  st.batches += 1;
  begin_batch();

  // The batch numbers the closure monomials densely in first-visit order:
  // `tid[i]` is the table id of batch monomial i, `state[i]` its chosen
  // product (index into `chosen`), -1 for irreducible, -2 while unresolved.
  // Worklist order does not affect the result: each monomial is resolved
  // exactly once and find_reducer is a pure function of (monomial, set).
  struct Resolved {
    const Polynomial* reducer;
    std::uint64_t reducer_id;
    std::uint32_t head;  ///< batch index of the covered monomial
  };
  std::vector<std::uint32_t> tid;
  std::vector<std::int64_t> state;
  std::vector<Resolved> chosen;
  std::vector<std::uint32_t> worklist;
  std::vector<std::uint32_t> tail;

  auto visit = [&](std::uint32_t id) -> std::uint32_t {
    if (mark_[id] != batch_) {
      mark_[id] = batch_;
      local_[id] = static_cast<std::uint32_t>(tid.size());
      tid.push_back(id);
      state.push_back(-2);
      worklist.push_back(local_[id]);
    }
    return local_[id];
  };
  std::uint64_t cells = 0;
  for (std::vector<std::uint32_t>& ids : rows) {
    for (std::uint32_t& id : ids) id = visit(id);  // now a batch index
    cells += ids.size();
  }
  st.work_cells += cells;

  while (!worklist.empty()) {
    const std::uint32_t mid = worklist.back();
    worklist.pop_back();
    const std::uint32_t id_m = tid[mid];
    std::uint64_t id = 0;
    const Polynomial* red = resolve(id_m, reducers, &id);
    if (red == nullptr) {
      state[mid] = -1;
      continue;
    }
    // Schedule (m / HMONO(red))·red and feed its tail monomials back. The
    // head monomial is m itself, already seen.
    state[mid] = static_cast<std::int64_t>(chosen.size());
    chosen.push_back(Resolved{red, id, mid});
    if (entries_[id_m].product_of == id) {
      // The product depends only on (m, red): walk its cached tail ids.
      st.product_cache_hits += 1;
    } else {
      const Monomial mult = mono(id_m) / red->hmono();
      const auto& terms = red->terms();
      tail.clear();
      for (std::size_t i = 1; i < terms.size(); ++i) tail.push_back(intern(terms[i].mono * mult));
      store_tail(id_m, id, tail);
    }
    const Entry& e = entries_[id_m];
    for (std::uint32_t i = 0; i < e.tail_len; ++i) visit(tails_[e.tail_at + i]);
  }

  // Frame columns: the closure in strictly decreasing monomial order.
  std::vector<std::uint32_t> order(tid.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ctx.cmp(mono(tid[a]), mono(tid[b])) > 0;
  });
  std::vector<std::uint32_t> col_of_local(order.size());
  frame->cols.reserve(order.size());
  for (std::uint32_t c = 0; c < order.size(); ++c) {
    col_of_local[order[c]] = c;
    frame->cols.push_back(mono(tid[order[c]]));
  }
  for (std::vector<std::uint32_t>& ids : rows) {
    for (std::uint32_t& i : ids) i = col_of_local[i];
  }
  frame->row_cols = std::move(rows);

  // Pivot products in head-column order (strictly increasing: one product
  // per reducible monomial). The tail columns come from the table.
  frame->pivot_of_col.assign(frame->cols.size(), -1);
  std::uint64_t pivot_cells = 0;
  for (std::uint32_t c = 0; c < frame->cols.size(); ++c) {
    std::int64_t k = state[order[c]];
    GBD_DCHECK(k >= -1);
    if (k < 0) continue;
    const Resolved& r = chosen[static_cast<std::size_t>(k)];
    frame->pivot_of_col[c] = static_cast<std::int32_t>(frame->pivots.size());
    PivotProduct pv{r.reducer, r.reducer_id, frame->cols[c] / r.reducer->hmono(), {}};
    const Entry& e = entries_[tid[r.head]];
    pv.cols.reserve(e.tail_len + 1);
    pv.cols.push_back(c);
    for (std::uint32_t i = 0; i < e.tail_len; ++i) {
      pv.cols.push_back(col_of_local[local_[tails_[e.tail_at + i]]]);
    }
    pivot_cells += pv.cols.size();
    frame->pivots.push_back(std::move(pv));
  }

  st.frame_cols += frame->cols.size();
  st.pivot_rows += frame->pivots.size();
  st.pivot_cells += pivot_cells;
}

namespace {

/// Symbolic preprocessing is charged from its counts, DESIGN.md §20's
/// symbolic term: nvars per frame column, pivot-product term and work-row
/// term. What its monomial operations charge on the way (find_reducer's
/// divisibility tests, products, the frame sort's comparisons) is dropped
/// by rewinding the counter to its value at construction. That is only
/// sound if nothing in between drains the counter into a machine clock, so
/// no ReducerSet may yield, send, poll or open a trace span inside
/// find_reducer; settle() checks that none did.
class CountCharge {
 public:
  void settle(const PolyContext& ctx) const {
    GBD_CHECK_MSG(CostCounter::drains() == drains_,
                  "symbolic_preprocess: the cost counter was drained mid-batch");
    const MatrixKernelStats& st = matrix_kernel_stats();
    CostCounter::local() = units_;
    CostCounter::charge(ctx.nvars() * ((st.frame_cols - counts_.frame_cols) +
                                       (st.pivot_cells - counts_.pivot_cells) +
                                       (st.work_cells - counts_.work_cells)));
  }

 private:
  MatrixKernelStats counts_ = matrix_kernel_stats();
  std::uint64_t units_ = CostCounter::peek();
  std::uint64_t drains_ = CostCounter::drains();
};

}  // namespace

SymbolicFrame symbolic_preprocess(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                  const ReducerSet& reducers, SymbolicTable* table) {
  const CountCharge charge;
  SymbolicFrame frame;
  SymbolicTable& tab = SymbolicTable::for_frame(&frame, reducers, table);
  std::vector<std::vector<std::uint32_t>> ids(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ids[r].reserve(rows[r].nterms());
    for (const Term& t : rows[r].terms()) ids[r].push_back(tab.intern(t.mono));
  }
  matrix_kernel_stats().work_rows += rows.size();
  tab.close(ctx, reducers, std::move(ids), &frame);
  charge.settle(ctx);
  return frame;
}

SymbolicFrame symbolic_preprocess(const PolyContext& ctx, const std::vector<SPair>& pairs,
                                  const ReducerSet& reducers, SymbolicTable* table) {
  const CountCharge charge;
  SymbolicFrame frame;
  SymbolicTable& tab = SymbolicTable::for_frame(&frame, reducers, table);
  std::vector<std::vector<std::uint32_t>> ids(2 * pairs.size());
  for (std::size_t r = 0; r < pairs.size(); ++r) {
    tab.pair_tails(reducers, pairs[r], &ids[2 * r], &ids[2 * r + 1]);
  }
  MatrixKernelStats& st = matrix_kernel_stats();
  st.work_rows += pairs.size();
  st.pair_rows += pairs.size();
  tab.close(ctx, reducers, std::move(ids), &frame);
  charge.settle(ctx);
  return frame;
}

}  // namespace gbd
