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
  PendingPair pair;
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
  for (const auto& p : sys.polys) {
    if (p.is_zero()) continue;
    Polynomial q = p;
    q.make_primitive();
    basis.push_back(std::move(q));
  }
  PairBook gpq(ctx, gb, &res.stats);
  gpq.seed(basis);
  VectorReducerSet reducer_set(&basis);

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
        PendingPair pair = gpq.pop();
        pq_free = w.clock;
        if (!gpq.screen(pair)) return;  // stay in kFetch
        CostScope cost;
        w.h = spoly(ctx, basis[pair.i], basis[pair.j]);
        w.h.make_primitive();
        w.clock += cost.elapsed();
        res.stats.work_units += cost.elapsed();
        w.pair = std::move(pair);
        w.phase = Phase::kReduce;
        return;
      }
      case Phase::kReduce: {
        if (w.h.is_zero()) {
          res.stats.reductions_to_zero += 1;
          gpq.treated(w.pair.i, w.pair.j);
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
        basis.push_back(std::move(w.h));
        w.h = Polynomial();
        res.stats.basis_added += 1;
        gpq.treated(w.pair.i, w.pair.j);
        basis_free = w.clock;
        // Enqueue the new element's surviving pairs under the pair-queue lock.
        lock(&pq_free, w);
        gpq.add(basis.back(), w.pair.sugar);
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
