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

SymbolicFrame symbolic_preprocess(const PolyContext& ctx, const std::vector<Polynomial>& rows,
                                  const ReducerSet& reducers, SymbolicMemo* memo) {
  MatrixKernelStats& st = matrix_kernel_stats();
  st.batches += 1;
  const std::uint64_t ver = reducers.version();
  const bool use_memo = memo != nullptr && ver != ReducerSet::kUnversioned;

  SymbolicFrame frame;
  // Every monomial of the closure gets a dense id the first (and only) time
  // it is hashed; `state[id]` is its chosen product (index into `chosen`),
  // -1 for irreducible, -2 while unresolved. The map's keys are stable, so
  // `mono[id]` points into it. Worklist order does not affect the result:
  // each monomial is resolved exactly once and find_reducer is a pure
  // function of (monomial, reducer set).
  struct Resolved {
    const Polynomial* reducer;
    std::uint64_t reducer_id;
    Monomial mult;
    std::size_t ids_at;  ///< this product's term ids in `product_ids`
  };
  std::unordered_map<Monomial, std::uint32_t, SymbolicFrame::MonoHash> seen;
  std::vector<const Monomial*> mono;
  std::vector<std::int64_t> state;
  std::vector<Resolved> chosen;
  std::vector<std::uint32_t> product_ids;  // per product: head id, then tail ids
  std::vector<std::uint32_t> worklist;

  auto visit = [&](Monomial m) -> std::uint32_t {
    auto [it, fresh] = seen.emplace(std::move(m), static_cast<std::uint32_t>(mono.size()));
    if (fresh) {
      mono.push_back(&it->first);
      state.push_back(-2);
      worklist.push_back(it->second);
    }
    return it->second;
  };
  std::vector<std::vector<std::uint32_t>> row_ids(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_ids[r].reserve(rows[r].nterms());
    for (const Term& t : rows[r].terms()) row_ids[r].push_back(visit(t.mono));
  }

  while (!worklist.empty()) {
    const std::uint32_t mid = worklist.back();
    worklist.pop_back();
    const Monomial& m = *mono[mid];
    std::uint64_t id = 0;
    const Polynomial* red = nullptr;
    bool resolved = false;
    if (use_memo) {
      if (SymbolicMemo::Entry* e = memo->lookup(m)) {
        // Reusable iff no head appended after the stamp divides m; a hit
        // refreshes the stamp so the next check scans an empty suffix.
        if (e->stamp == ver || !reducers.head_added_since(m, e->stamp)) {
          e->stamp = ver;
          if (e->reducible) {
            red = reducers.by_id(e->reducer_id);
            id = e->reducer_id;
            resolved = red != nullptr;  // id must resolve; else fall through
          } else {
            resolved = true;  // still irreducible
          }
          if (resolved) st.memo_hits += 1;
        }
      }
    }
    if (!resolved) {
      red = reducers.find_reducer(m, &id);
      if (use_memo) {
        st.memo_misses += 1;
        memo->store(m, SymbolicMemo::Entry{id, ver, red != nullptr});
      }
    }
    if (red == nullptr) {
      state[mid] = -1;
      continue;
    }
    // Schedule (m / HMONO(red))·red and feed its tail monomials back. The
    // head monomial is m itself, already seen.
    state[mid] = static_cast<std::int64_t>(chosen.size());
    chosen.push_back(Resolved{red, id, m / red->hmono(), product_ids.size()});
    const Monomial& mult = chosen.back().mult;
    product_ids.push_back(mid);
    const auto& terms = red->terms();
    for (std::size_t i = 1; i < terms.size(); ++i) {
      product_ids.push_back(visit(terms[i].mono * mult));
    }
    CostCounter::charge(terms.size());
  }

  // Frame columns: the closure in strictly decreasing monomial order. The
  // sort input is the map's iteration order, which fixes the comparison
  // sequence and so the units ctx.cmp charges.
  std::vector<std::uint32_t> order;
  order.reserve(seen.size());
  for (const auto& [m, i] : seen) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return ctx.cmp(*mono[a], *mono[b]) > 0;
  });
  std::vector<std::uint32_t> col_of_id(order.size());
  frame.cols.reserve(order.size());
  for (std::uint32_t c = 0; c < order.size(); ++c) {
    col_of_id[order[c]] = c;
    frame.cols.push_back(*mono[order[c]]);
  }
  for (auto& [m, i] : seen) i = col_of_id[i];
  frame.index_ = std::move(seen);

  frame.row_cols = std::move(row_ids);
  for (auto& cols : frame.row_cols)
    for (std::uint32_t& c : cols) c = col_of_id[c];

  // Pivot products in head-column order (strictly increasing: one product
  // per reducible monomial). The multiplier formed when the product was
  // scheduled is reused, but the cost model counts a second monomial
  // division for laying the product out, charged here explicitly so charged
  // units do not depend on the representation (DESIGN.md §19).
  frame.pivot_of_col.assign(frame.cols.size(), -1);
  for (std::uint32_t c = 0; c < frame.cols.size(); ++c) {
    std::int64_t k = state[order[c]];
    GBD_DCHECK(k >= -1);
    if (k < 0) continue;
    Resolved& r = chosen[static_cast<std::size_t>(k)];
    frame.pivot_of_col[c] = static_cast<std::int32_t>(frame.pivots.size());
    PivotProduct pv{r.reducer, r.reducer_id, std::move(r.mult), {}};
    const std::size_t nterms = r.reducer->nterms();
    pv.cols.reserve(nterms);
    for (std::size_t j = 0; j < nterms; ++j) {
      pv.cols.push_back(col_of_id[product_ids[r.ids_at + j]]);
    }
    CostCounter::charge(pv.mult.nvars());
    frame.pivots.push_back(std::move(pv));
  }

  st.frame_cols += frame.cols.size();
  st.pivot_rows += frame.pivots.size();
  st.work_rows += rows.size();
  return frame;
}

}  // namespace gbd
