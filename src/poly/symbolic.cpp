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

SymbolicFrame symbolic_preprocess(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                  const ReducerSet& reducers, SymbolicTable* table) {
  MatrixKernelStats& st = matrix_kernel_stats();
  st.batches += 1;
  const std::uint64_t ver = reducers.version();
  SymbolicFrame frame;
  // Resolutions, ids and products only carry across calls for a set whose
  // answers and ids are stable between versions; anything else gets a table
  // of its own, which the frame keeps for build_matrix.
  const bool use_memo = table != nullptr && ver != ReducerSet::kUnversioned;
  if (!use_memo) {
    frame.own_table = std::make_unique<SymbolicTable>();
    table = frame.own_table.get();
  }
  frame.table = table;
  SymbolicTable& tab = *table;
  tab.begin_batch();
  const std::uint64_t nvars = ctx.nvars();

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
    if (tab.mark_[id] != tab.batch_) {
      tab.mark_[id] = tab.batch_;
      tab.local_[id] = static_cast<std::uint32_t>(tid.size());
      tid.push_back(id);
      state.push_back(-2);
      worklist.push_back(tab.local_[id]);
    }
    return tab.local_[id];
  };
  std::vector<std::vector<std::uint32_t>> row_ids(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_ids[r].reserve(rows[r].nterms());
    for (const Term& t : rows[r].terms()) row_ids[r].push_back(visit(tab.intern(t.mono)));
  }

  while (!worklist.empty()) {
    const std::uint32_t mid = worklist.back();
    worklist.pop_back();
    const std::uint32_t id_m = tid[mid];
    const Monomial& m = tab.mono(id_m);
    std::uint64_t id = 0;
    const Polynomial* red = nullptr;
    bool resolved = false;
    if (use_memo) {
      SymbolicTable::Entry& e = tab.entries_[id_m];
      // Reusable iff no head appended after the stamp divides m; a hit
      // refreshes the stamp so the next check scans an empty suffix.
      if (e.resolution != SymbolicTable::Resolution::kUnknown &&
          (e.stamp == ver || !reducers.head_added_since(m, e.stamp))) {
        e.stamp = ver;
        if (e.resolution == SymbolicTable::Resolution::kReducible) {
          red = reducers.by_id(e.reducer_id);
          id = e.reducer_id;
          resolved = red != nullptr;  // id must resolve; else fall through
        } else {
          resolved = true;  // still irreducible
        }
        if (resolved) st.memo_hits += 1;
      }
    }
    if (!resolved) {
      red = reducers.find_reducer(m, &id);
      if (use_memo) {
        st.memo_misses += 1;
        SymbolicTable::Entry& e = tab.entries_[id_m];
        e.reducer_id = id;
        e.stamp = ver;
        e.resolution = red != nullptr ? SymbolicTable::Resolution::kReducible
                                      : SymbolicTable::Resolution::kIrreducible;
      }
    }
    if (red == nullptr) {
      state[mid] = -1;
      continue;
    }
    // Schedule (m / HMONO(red))·red and feed its tail monomials back. The
    // head monomial is m itself, already seen.
    state[mid] = static_cast<std::int64_t>(chosen.size());
    chosen.push_back(Resolved{red, id, mid});
    const auto& terms = red->terms();
    if (tab.entries_[id_m].product_of == id) {
      // The product depends only on (m, red): walk its cached tail ids. The
      // cost model still counts the division and the tail products.
      st.product_cache_hits += 1;
      CostCounter::charge(nvars * terms.size());
    } else {
      const Monomial mult = m / red->hmono();
      tail.clear();
      for (std::size_t i = 1; i < terms.size(); ++i) {
        tail.push_back(tab.intern(terms[i].mono * mult));
      }
      tab.store_tail(id_m, id, tail);
    }
    const SymbolicTable::Entry& e = tab.entries_[id_m];
    for (std::uint32_t i = 0; i < e.tail_len; ++i) visit(tab.tails_[e.tail_at + i]);
    CostCounter::charge(terms.size());
  }

  // Frame columns: the closure in strictly decreasing monomial order. The
  // sort input is the iteration order of a map filled once per batch
  // monomial, in first-visit order; that fixes the comparison sequence and
  // so the units ctx.cmp charges (DESIGN.md §20). The map becomes the
  // frame's col_of index.
  std::unordered_map<Monomial, std::uint32_t, MonoHash> seen;
  for (std::uint32_t i = 0; i < tid.size(); ++i) seen.emplace(tab.mono(tid[i]), i);
  std::vector<std::uint32_t> order;
  order.reserve(seen.size());
  for (const auto& [m, i] : seen) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ctx.cmp(tab.mono(tid[a]), tab.mono(tid[b])) > 0;
  });
  std::vector<std::uint32_t> col_of_id(order.size());
  frame.cols.reserve(order.size());
  for (std::uint32_t c = 0; c < order.size(); ++c) {
    col_of_id[order[c]] = c;
    frame.cols.push_back(tab.mono(tid[order[c]]));
  }
  for (auto& [m, i] : seen) i = col_of_id[i];
  frame.index_ = std::move(seen);

  frame.row_cols = std::move(row_ids);
  for (auto& cols : frame.row_cols)
    for (std::uint32_t& c : cols) c = col_of_id[c];

  // Pivot products in head-column order (strictly increasing: one product
  // per reducible monomial). The multiplier is formed again for the layout,
  // as the cost model counts it; the tail columns come from the table.
  frame.pivot_of_col.assign(frame.cols.size(), -1);
  for (std::uint32_t c = 0; c < frame.cols.size(); ++c) {
    std::int64_t k = state[order[c]];
    GBD_DCHECK(k >= -1);
    if (k < 0) continue;
    const Resolved& r = chosen[static_cast<std::size_t>(k)];
    frame.pivot_of_col[c] = static_cast<std::int32_t>(frame.pivots.size());
    PivotProduct pv{r.reducer, r.reducer_id, frame.cols[c] / r.reducer->hmono(), {}};
    const SymbolicTable::Entry& e = tab.entries_[tid[r.head]];
    pv.cols.reserve(e.tail_len + 1);
    pv.cols.push_back(c);
    for (std::uint32_t i = 0; i < e.tail_len; ++i) {
      pv.cols.push_back(col_of_id[tab.local_[tab.tails_[e.tail_at + i]]]);
    }
    frame.pivots.push_back(std::move(pv));
  }

  st.frame_cols += frame.cols.size();
  st.pivot_rows += frame.pivots.size();
  st.work_rows += rows.size();
  return frame;
}

}  // namespace gbd
