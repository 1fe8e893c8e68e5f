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

  std::vector<Monomial> heads;
  for (const auto& g : basis) heads.push_back(g.hmono());

  // Sugar degrees (Giovini et al.): an input's sugar is its total degree; a
  // pair's sugar is max over both sides of sugar + deg(lcm/head); an added
  // normal form inherits its pair's sugar. Tracked unconditionally (cheap),
  // used when cfg.selection == kSugar.
  std::vector<std::uint32_t> sugars;
  for (const auto& g : basis) {
    std::uint32_t d = 0;
    for (const auto& t : g.terms()) d = std::max(d, t.mono.degree());
    sugars.push_back(d);
  }
  auto pair_sugar = [&](std::uint32_t i, std::uint32_t j, const Monomial& lcm) {
    std::uint32_t si = sugars[i] + lcm.degree() - heads[i].degree();
    std::uint32_t sj = sugars[j] + lcm.degree() - heads[j].degree();
    return std::max(si, sj);
  };

  SequentialPairQueue queue(&ctx, cfg.selection);
  DonePairs done;
  AccountingObserver observer(&res.reducers, &res.stats);
  VectorReducerSet reducer_set(&basis);
  ReduceOptions ropts;
  ropts.tail_reduce = cfg.tail_reduce;
  ropts.use_geobuckets = cfg.use_geobuckets;
  ropts.coeff = cfg.coeff;

  // gpq = all unordered pairs over the input.
  for (std::uint32_t i = 0; i < basis.size(); ++i) {
    for (std::uint32_t j = i + 1; j < basis.size(); ++j) {
      Monomial l = Monomial::lcm(heads[i], heads[j]);
      std::uint32_t sugar = pair_sugar(i, j, l);
      queue.push(i, j, std::move(l), sugar);
      res.stats.pairs_created += 1;
    }
  }

  // Augment the basis with a reduced nonzero element and enqueue pairs with
  // every existing element, filtered by the Gebauer–Möller update when
  // enabled. Dropped pairs count as treated — the criteria certify their
  // standard representation.
  auto augment = [&](Polynomial poly, std::uint32_t sugar) {
    std::uint32_t m = static_cast<std::uint32_t>(basis.size());
    Monomial new_head = poly.hmono();
    res.stats.pairs_created += m;
    std::vector<bool> keep(m, true);
    if (cfg.gm_update) {
      GmPruneCounts gm;
      std::vector<std::size_t> kept = gm_new_pairs(ctx, heads, new_head, &gm);
      keep.assign(m, false);
      for (std::size_t i : kept) keep[i] = true;
      res.stats.pairs_pruned_coprime += gm.coprime;
      res.stats.pairs_pruned_chain += gm.m_rule + gm.f_rule;
    }
    heads.push_back(new_head);
    sugars.push_back(sugar);
    basis.push_back(std::move(poly));
    res.stats.basis_added += 1;
    for (std::uint32_t i = 0; i < m; ++i) {
      if (keep[i]) {
        Monomial l = Monomial::lcm(heads[i], heads[m]);
        std::uint32_t s = pair_sugar(i, m, l);
        queue.push(i, m, std::move(l), s);
      } else if (coprime_criterion(heads[i], heads[m])) {
        done.mark(i, m);  // grounded by criterion 1; M/F drops stay uncitable
      }
    }
  };

  // Elimination criteria for a popped pair. Only *self-grounded* treatments
  // enter `done` (coprime pairs — criterion 1 needs no other pair — and
  // actually reduced pairs): letting a chain- or GM-pruned pair be cited by
  // a later chain-criterion application can close a justification cycle
  // where two pruned pairs certify each other and neither is ever reduced,
  // silently producing a non-basis. Pruned-but-ungrounded pairs are dropped.
  auto pruned = [&](const PendingPair& pair) {
    if (cfg.coprime_criterion && coprime_criterion(heads[pair.i], heads[pair.j])) {
      res.stats.pairs_pruned_coprime += 1;
      done.mark(pair.i, pair.j);
      return true;
    }
    if (cfg.chain_criterion && chain_criterion(pair.i, pair.j, pair.lcm, heads, done)) {
      res.stats.pairs_pruned_chain += 1;
      return true;
    }
    return false;
  };

  // One monomial table for the whole run: adjacent matrix rounds share most
  // of their closure monomials, reducer choices and products, and the basis
  // only grows.
  SymbolicTable matrix_table;

  while (!queue.empty()) {
    if (cfg.stop != nullptr && cfg.stop->load(std::memory_order_relaxed)) {
      res.aborted = true;
      break;
    }
    if (cfg.matrix_reduce) {
      // Batch round: every queued pair of the current minimal lcm degree
      // (the F4 selection), reduced together as one Macaulay matrix. The
      // criteria still screen pair-by-pair; chain applications within a
      // round cannot cite same-round pairs (done-marking happens after the
      // elimination), which is conservative but sound.
      const std::uint32_t deg = queue.peek_best().lcm.degree();
      std::vector<PendingPair> batch;
      while (!queue.empty() && batch.size() < cfg.matrix_batch_max &&
             queue.peek_best().lcm.degree() == deg) {
        PendingPair pair = queue.pop_best();
        if (!pruned(pair)) batch.push_back(std::move(pair));
      }
      if (batch.empty()) continue;

      res.stats.spolys_computed += batch.size();
      GBD_CHECK_MSG(res.stats.spolys_computed <= cfg.max_spolys,
                    "groebner_sequential exceeded max_spolys");
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
      for (const PendingPair& pair : batch) done.mark(pair.i, pair.j);
      res.stats.reductions_to_zero += batch.size() - eo.rows.size();
      for (EchelonOutput::NewRow& nr : eo.rows) {
        augment(std::move(nr.poly), batch[nr.src].sugar);
      }
      continue;
    }

    PendingPair pair = queue.pop_best();
    if (pruned(pair)) continue;

    Polynomial h = spoly(ctx, basis[pair.i], basis[pair.j], cfg.coeff);
    res.stats.spolys_computed += 1;
    GBD_CHECK_MSG(res.stats.spolys_computed <= cfg.max_spolys,
                  "groebner_sequential exceeded max_spolys");

    ReduceOutcome red = reduce_full(ctx, std::move(h), reducer_set, ropts, &observer);
    done.mark(pair.i, pair.j);

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
