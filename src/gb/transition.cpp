#include "gb/transition.hpp"

#include "gb/pairs.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"
#include "support/rng.hpp"

namespace gbd {

namespace {

enum class Axiom { kSpoly, kReduce, kAugment, kDiscard };

struct Action {
  Axiom axiom;
  std::size_t target;  // index into gq for reduce/augment/discard
};

}  // namespace

TransitionResult groebner_transition(const PolySystem& sys, const TransitionConfig& cfg) {
  check_baseline_config(cfg.gb);
  TransitionResult res;
  const PolyContext& ctx = sys.ctx;
  const GbConfig& gb = cfg.gb;
  Rng rng(cfg.seed);
  CostScope total;

  std::vector<Polynomial> basis;
  for (const auto& p : sys.polys) {
    if (p.is_zero()) continue;
    Polynomial q = p;
    q.make_primitive();
    basis.push_back(std::move(q));
  }
  std::vector<Monomial> heads;
  for (const auto& g : basis) heads.push_back(g.hmono());

  SequentialPairQueue gpq(&ctx, gb.selection);
  DonePairs done;
  VectorReducerSet reducer_set(&basis);

  for (std::uint32_t i = 0; i < basis.size(); ++i) {
    for (std::uint32_t j = i + 1; j < basis.size(); ++j) {
      gpq.push(i, j, Monomial::lcm(heads[i], heads[j]));
      res.stats.pairs_created += 1;
    }
  }

  // gq: in-flight reducts, each remembering the pair that spawned it.
  struct Reduct {
    Polynomial poly;
    std::uint32_t from_i, from_j;
  };
  std::vector<Reduct> gq;

  auto fire_spoly = [&] {
    // Selection of the best pair is a heuristic, not a correctness
    // requirement (§3.1) — the axiom allows any pair; we take the best.
    PendingPair pair = gpq.pop_best();
    // Only self-grounded treatments enter `done` (see sequential.cpp for the
    // justification-cycle hazard): coprime prunes yes, chain/GM prunes no.
    if (gb.coprime_criterion && coprime_criterion(heads[pair.i], heads[pair.j])) {
      res.stats.pairs_pruned_coprime += 1;
      done.mark(pair.i, pair.j);
      return;
    }
    if (gb.chain_criterion && chain_criterion(pair.i, pair.j, pair.lcm, heads, done)) {
      res.stats.pairs_pruned_chain += 1;
      return;
    }
    Polynomial s = spoly(ctx, basis[pair.i], basis[pair.j]);
    s.make_primitive();
    res.stats.spolys_computed += 1;
    GBD_CHECK_MSG(res.stats.spolys_computed <= gb.max_spolys,
                  "groebner_transition exceeded max_spolys");
    gq.push_back(Reduct{std::move(s), pair.i, pair.j});
    res.trace.fired_spoly += 1;
  };

  auto fire_reduce_step = [&](std::size_t t) {
    const Polynomial* r = reducer_set.find_reducer(gq[t].poly.hmono(), nullptr);
    GBD_DCHECK(r != nullptr);
    CostScope step;
    gq[t].poly = reduce_step(ctx, gq[t].poly, *r);
    gq[t].poly.make_primitive();
    res.stats.reduction_steps += 1;
    res.stats.max_step_cost = std::max(res.stats.max_step_cost, step.elapsed());
    res.trace.fired_reduce += 1;
  };

  auto fire_augment = [&](std::size_t t) {
    Reduct r = std::move(gq[t]);
    gq.erase(gq.begin() + static_cast<std::ptrdiff_t>(t));
    done.mark(r.from_i, r.from_j);
    std::uint32_t m = static_cast<std::uint32_t>(basis.size());
    Monomial new_head = r.poly.hmono();
    res.stats.pairs_created += m;
    std::vector<bool> keep(m, true);
    if (gb.gm_update) {
      GmPruneCounts gm;
      std::vector<std::size_t> kept = gm_new_pairs(ctx, heads, new_head, &gm);
      keep.assign(m, false);
      for (std::size_t i : kept) keep[i] = true;
      res.stats.pairs_pruned_coprime += gm.coprime;
      res.stats.pairs_pruned_chain += gm.m_rule + gm.f_rule;
    }
    heads.push_back(new_head);
    basis.push_back(std::move(r.poly));
    res.stats.basis_added += 1;
    for (std::uint32_t i = 0; i < m; ++i) {
      if (keep[i]) {
        gpq.push(i, m, Monomial::lcm(heads[i], heads[m]));
      } else if (coprime_criterion(heads[i], heads[m])) {
        done.mark(i, m);  // grounded by criterion 1; M/F drops stay uncitable
      }
    }
    res.trace.fired_augment += 1;
  };

  auto fire_discard = [&](std::size_t t) {
    done.mark(gq[t].from_i, gq[t].from_j);
    gq.erase(gq.begin() + static_cast<std::ptrdiff_t>(t));
    res.stats.reductions_to_zero += 1;
    res.trace.fired_discard += 1;
  };

  while (!gpq.empty() || !gq.empty()) {
    if (cfg.fused_reduce_augment) {
      // Figure 5 variant: gq entries are processed to completion in one
      // firing; the scheduler only interleaves s-polynomial creation.
      std::vector<Action> actions;
      if (!gpq.empty() && gq.size() < cfg.max_inflight) actions.push_back({Axiom::kSpoly, 0});
      for (std::size_t t = 0; t < gq.size(); ++t) actions.push_back({Axiom::kReduce, t});
      Action a = actions[rng.below(actions.size())];
      if (a.axiom == Axiom::kSpoly) {
        fire_spoly();
      } else {
        // REDUCE/AUGMENT fused: reduce fully, then augment or discard.
        while (!gq[a.target].poly.is_zero() &&
               reducer_set.find_reducer(gq[a.target].poly.hmono(), nullptr) != nullptr) {
          fire_reduce_step(a.target);
        }
        if (gq[a.target].poly.is_zero()) {
          fire_discard(a.target);
        } else {
          fire_augment(a.target);
        }
      }
      continue;
    }

    // Separate-axiom schedule: enumerate every enabled (axiom, target)
    // action and fire one uniformly at random.
    std::vector<Action> actions;
    if (!gpq.empty() && gq.size() < cfg.max_inflight) actions.push_back({Axiom::kSpoly, 0});
    for (std::size_t t = 0; t < gq.size(); ++t) {
      if (gq[t].poly.is_zero()) {
        actions.push_back({Axiom::kDiscard, t});
      } else if (reducer_set.find_reducer(gq[t].poly.hmono(), nullptr) != nullptr) {
        actions.push_back({Axiom::kReduce, t});
      } else {
        actions.push_back({Axiom::kAugment, t});
      }
    }
    GBD_CHECK_MSG(!actions.empty(), "transition scheduler wedged: no enabled axiom");
    Action a = actions[rng.below(actions.size())];
    switch (a.axiom) {
      case Axiom::kSpoly:
        fire_spoly();
        break;
      case Axiom::kReduce:
        fire_reduce_step(a.target);
        break;
      case Axiom::kAugment:
        fire_augment(a.target);
        break;
      case Axiom::kDiscard:
        fire_discard(a.target);
        break;
    }
  }

  res.basis = std::move(basis);
  res.stats.work_units = total.elapsed();
  res.elapsed_units = res.stats.work_units;
  return res;
}

}  // namespace gbd
