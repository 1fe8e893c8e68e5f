#include "gb/sequential.hpp"

#include <algorithm>

#include "gb/pairs.hpp"
#include "poly/echelon.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

double ReducerAccounting::pipeline_parallelism() const {
  std::uint64_t mx = max_stage_work();
  if (mx == 0) return 0.0;
  return static_cast<double>(total_reduction_work) / static_cast<double>(mx);
}

std::uint64_t ReducerAccounting::max_stage_work() const {
  std::uint64_t mx = 0;
  for (std::uint64_t w : stage_work) mx = std::max(mx, w);
  return mx;
}

namespace {

/// Collects per-step reducer attribution into the accounting structure.
class AccountingObserver final : public ReduceObserver {
 public:
  AccountingObserver(ReducerAccounting* acct, GbStats* stats) : acct_(acct), stats_(stats) {}

  void on_step(std::uint64_t reducer_id, std::uint64_t cost) override {
    if (acct_->stage_work.size() <= reducer_id) acct_->stage_work.resize(reducer_id + 1, 0);
    acct_->stage_work[reducer_id] += cost;
    acct_->total_reduction_work += cost;
    acct_->max_step_cost = std::max(acct_->max_step_cost, cost);
    stats_->reduction_steps += 1;
    stats_->max_step_cost = std::max(stats_->max_step_cost, cost);
  }

 private:
  ReducerAccounting* acct_;
  GbStats* stats_;
};

}  // namespace

SequentialResult groebner_sequential(const PolySystem& sys, const GbConfig& cfg) {
  SequentialResult res;
  const PolyContext& ctx = sys.ctx;
  // A zero cap would pop no pair and loop forever.
  GBD_CHECK_MSG(!cfg.matrix_reduce || cfg.matrix_batch_max >= 1,
                "matrix_batch_max must be at least 1");
  CostScope total;

  // G = F, canonicalized for the configured coefficient ring. Over Zp an
  // input may vanish mod p (an inadmissible prime — the modular driver
  // screens for this, but the engine must still not crash on it).
  std::vector<Polynomial> basis;
  for (const auto& p : sys.polys) {
    Polynomial q = p;
    coeff_normalize(ctx, &q, cfg.coeff);
    if (q.is_zero()) continue;
    basis.push_back(std::move(q));
  }

  if (cfg.interreduce_input && basis.size() > 1) {
    basis = interreduce(ctx, std::move(basis), cfg.coeff);
  }

  PairBook book(ctx, cfg, &res.stats);
  book.seed(basis);
  AccountingObserver observer(&res.reducers, &res.stats);
  VectorReducerSet reducer_set(&basis);
  ReduceOptions ropts;
  ropts.tail_reduce = cfg.tail_reduce;
  ropts.use_geobuckets = cfg.use_geobuckets;
  ropts.coeff = cfg.coeff;

  // Augment the basis with a reduced nonzero element; the book creates its
  // pairs. An added normal form inherits its pair's sugar.
  auto augment = [&](Polynomial poly, std::uint32_t sugar) {
    book.add(poly, sugar);
    basis.push_back(std::move(poly));
    res.stats.basis_added += 1;
  };

  // One monomial table for the whole run: adjacent matrix rounds share most
  // of their closure monomials, reducer choices and products, and the basis
  // only grows.
  SymbolicTable matrix_table;

  while (!book.empty()) {
    if (cfg.stop != nullptr && cfg.stop->load(std::memory_order_relaxed)) {
      res.aborted = true;
      break;
    }
    if (cfg.matrix_reduce) {
      // Batch round: every queued pair of the current minimal lcm degree
      // (the F4 selection), reduced together as one Macaulay matrix. The
      // criteria still screen pair-by-pair; chain applications within a
      // round cannot cite same-round pairs (the batch is marked treated
      // after the elimination), which is conservative but sound.
      const std::uint32_t deg = book.peek().lcm.degree();
      std::vector<PendingPair> batch;
      while (!book.empty() && batch.size() < cfg.matrix_batch_max &&
             book.peek().lcm.degree() == deg) {
        PendingPair pair = book.pop();
        if (book.screen(pair)) batch.push_back(std::move(pair));
      }
      if (batch.empty()) continue;

      EchelonOptions eopts;
      eopts.coeff = cfg.coeff;
      const std::uint64_t axpys_before = matrix_kernel_stats().axpys;
      EchelonOutput eo;
      if (cfg.coeff.is_zp()) {
        // Over Zp each row is built from its pair's halves, products the
        // run table already caches: no s-polynomial is formed.
        std::vector<SPair> pairs;
        pairs.reserve(batch.size());
        for (const PendingPair& pair : batch) pairs.push_back(SPair{pair.i, pair.j});
        eo = reduce_pairs(ctx, pairs, reducer_set, eopts, &matrix_table);
      } else {
        std::vector<Polynomial> rows;
        rows.reserve(batch.size());
        for (const PendingPair& pair : batch) {
          rows.push_back(spoly(ctx, basis[pair.i], basis[pair.j], cfg.coeff));
        }
        eo = reduce_batch(ctx, rows, reducer_set, eopts, &matrix_table);
      }
      res.stats.reduction_steps += matrix_kernel_stats().axpys - axpys_before;
      for (const PendingPair& pair : batch) book.treated(pair.i, pair.j);
      res.stats.reductions_to_zero += batch.size() - eo.rows.size();
      for (EchelonOutput::NewRow& nr : eo.rows) {
        augment(std::move(nr.poly), batch[nr.src].sugar);
      }
      continue;
    }

    PendingPair pair = book.pop();
    if (!book.screen(pair)) continue;

    Polynomial h = spoly(ctx, basis[pair.i], basis[pair.j], cfg.coeff);
    ReduceOutcome red = reduce_full(ctx, std::move(h), reducer_set, ropts, &observer);
    book.treated(pair.i, pair.j);

    if (red.poly.is_zero()) {
      res.stats.reductions_to_zero += 1;
      continue;
    }
    augment(std::move(red.poly), pair.sugar);
  }

  res.basis = std::move(basis);
  res.stats.work_units = total.elapsed();
  res.elapsed_units = res.stats.work_units;
  return res;
}

}  // namespace gbd
