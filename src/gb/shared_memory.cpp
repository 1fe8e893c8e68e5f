#include "gb/shared_memory.hpp"

#include <algorithm>

#include "gb/pairs.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"
#include "support/rng.hpp"

namespace gbd {

namespace {

enum class Phase { kFetch, kReduce, kAugment };

struct Worker {
  std::uint64_t clock = 0;
  Phase phase = Phase::kFetch;
  bool parked = false;
  // In-flight reduct and its originating pair.
  Polynomial h;
  std::uint32_t pi = 0, pj = 0;
};

}  // namespace

SharedMemoryResult groebner_shared(const PolySystem& sys, const SharedMemoryConfig& cfg) {
  GBD_CHECK(cfg.nprocs >= 1);
  check_baseline_config(cfg.gb);
  SharedMemoryResult res;
  const PolyContext& ctx = sys.ctx;
  const GbConfig& gb = cfg.gb;
  Rng rng(cfg.seed);

  // Shared state.
  std::vector<Polynomial> basis;
  std::vector<Monomial> heads;
  for (const auto& p : sys.polys) {
    if (p.is_zero()) continue;
    Polynomial q = p;
    q.make_primitive();
    heads.push_back(q.hmono());
    basis.push_back(std::move(q));
  }
  SequentialPairQueue gpq(&ctx, gb.selection);
  DonePairs done;
  VectorReducerSet reducer_set(&basis);
  for (std::uint32_t i = 0; i < basis.size(); ++i) {
    for (std::uint32_t j = i + 1; j < basis.size(); ++j) {
      gpq.push(i, j, Monomial::lcm(heads[i], heads[j]));
      res.stats.pairs_created += 1;
    }
  }

  std::uint64_t pq_free = 0;     // pair-queue lock release time
  std::uint64_t basis_free = 0;  // basis writer lock release time

  std::vector<Worker> workers(static_cast<std::size_t>(cfg.nprocs));

  auto lock = [&](std::uint64_t* lock_free, Worker& w) {
    std::uint64_t start = std::max(w.clock, *lock_free);
    res.lock_wait += start - w.clock;
    w.clock = start + cfg.lock_cost;
  };

  auto unpark_all = [&](std::uint64_t now) {
    for (auto& w : workers) {
      if (w.parked) {
        w.parked = false;
        w.clock = std::max(w.clock, now);
      }
    }
  };

  // One simulation turn for worker w. Returns false if w parked (no work).
  auto advance = [&](Worker& w) {
    switch (w.phase) {
      case Phase::kFetch: {
        lock(&pq_free, w);
        if (gpq.empty()) {
          pq_free = w.clock;
          w.parked = true;
          return;
        }
        PendingPair pair = gpq.pop_best();
        pq_free = w.clock;
        if (gb.coprime_criterion && coprime_criterion(heads[pair.i], heads[pair.j])) {
          res.stats.pairs_pruned_coprime += 1;
          done.mark(pair.i, pair.j);
          return;  // stay in kFetch
        }
        if (gb.chain_criterion && chain_criterion(pair.i, pair.j, pair.lcm, heads, done)) {
          res.stats.pairs_pruned_chain += 1;
          return;
        }
        CostScope cost;
        w.h = spoly(ctx, basis[pair.i], basis[pair.j]);
        w.h.make_primitive();
        w.clock += cost.elapsed();
        res.stats.work_units += cost.elapsed();
        res.stats.spolys_computed += 1;
        w.pi = pair.i;
        w.pj = pair.j;
        w.phase = Phase::kReduce;
        return;
      }
      case Phase::kReduce: {
        if (w.h.is_zero()) {
          res.stats.reductions_to_zero += 1;
          done.mark(w.pi, w.pj);
          w.phase = Phase::kFetch;
          return;
        }
        // Reads wait for a concurrent writer to drain (coherence), then one
        // reduction step against the *current* shared basis.
        w.clock = std::max(w.clock, basis_free);
        std::uint64_t id = 0;
        const Polynomial* r = reducer_set.find_reducer(w.h.hmono(), &id);
        if (cfg.read_cost > 0) w.clock += cfg.read_cost * basis.size();
        if (r == nullptr) {
          w.phase = Phase::kAugment;
          return;
        }
        CostScope cost;
        w.h = reduce_step(ctx, w.h, *r);
        w.h.make_primitive();
        std::uint64_t c = cost.elapsed();
        w.clock += c;
        res.stats.work_units += c;
        res.stats.reduction_steps += 1;
        res.stats.max_step_cost = std::max(res.stats.max_step_cost, c);
        return;  // one step per turn: other workers interleave
      }
      case Phase::kAugment: {
        lock(&basis_free, w);
        // Re-check under the writer lock: someone may have added a reducer.
        if (reducer_set.find_reducer(w.h.hmono(), nullptr) != nullptr) {
          basis_free = w.clock;
          w.phase = Phase::kReduce;
          return;
        }
        std::uint32_t m = static_cast<std::uint32_t>(basis.size());
        Monomial new_head = w.h.hmono();
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
        basis.push_back(std::move(w.h));
        w.h = Polynomial();
        res.stats.basis_added += 1;
        done.mark(w.pi, w.pj);
        basis_free = w.clock;
        // Enqueue the surviving pairs under the pair-queue lock.
        lock(&pq_free, w);
        for (std::uint32_t i = 0; i < m; ++i) {
          if (keep[i]) {
            gpq.push(i, m, Monomial::lcm(heads[i], heads[m]));
          } else if (coprime_criterion(heads[i], heads[m])) {
            done.mark(i, m);
          }
        }
        pq_free = w.clock;
        unpark_all(w.clock);
        w.phase = Phase::kFetch;
        return;
      }
    }
  };

  // Event loop: always advance the runnable worker with the lowest clock
  // (ties by index — deterministic). The seed perturbs only initial clocks,
  // standing in for OS scheduling noise on a real SMP.
  for (auto& w : workers) w.clock = rng.below(16);

  for (;;) {
    Worker* next = nullptr;
    for (auto& w : workers) {
      if (w.parked) continue;
      if (next == nullptr || w.clock < next->clock) next = &w;
    }
    if (next == nullptr) break;  // all parked: queue globally empty
    advance(*next);
  }
  GBD_CHECK_MSG(gpq.empty(), "shared-memory simulation wedged with queued pairs");

  res.basis = std::move(basis);
  for (const auto& w : workers) {
    res.worker_clocks.push_back(w.clock);
    res.makespan = std::max(res.makespan, w.clock);
  }
  res.elapsed_units = res.makespan;
  return res;
}

}  // namespace gbd
