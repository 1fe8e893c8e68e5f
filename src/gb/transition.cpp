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
  PairBook gpq(ctx, gb, &res.stats);
  gpq.seed(basis);
  VectorReducerSet reducer_set(&basis);

  // gq: in-flight reducts, each remembering the pair that spawned it.
  struct Reduct {
    Polynomial poly;
    PendingPair from;
  };
  std::vector<Reduct> gq;

  auto fire_spoly = [&] {
    // Selection of the best pair is a heuristic, not a correctness
    // requirement (§3.1) — the axiom allows any pair; we take the best.
    PendingPair pair = gpq.pop();
    // A pruned pair never reaches gq; which prunes stay citable by the chain
    // criterion is PairBook's rule (gb/pairs.hpp).
    if (!gpq.screen(pair)) return;
    Polynomial s = spoly(ctx, basis[pair.i], basis[pair.j]);
    s.make_primitive();
    gq.push_back(Reduct{std::move(s), std::move(pair)});
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
    gpq.treated(r.from.i, r.from.j);
    gpq.add(r.poly, r.from.sugar);
    basis.push_back(std::move(r.poly));
    res.stats.basis_added += 1;
    res.trace.fired_augment += 1;
  };

  auto fire_discard = [&](std::size_t t) {
    gpq.treated(gq[t].from.i, gq[t].from.j);
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
