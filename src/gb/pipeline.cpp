#include "gb/pipeline.hpp"

#include <algorithm>
#include <queue>

#include "gb/pairs.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

namespace {

struct Token {
  Polynomial h;
  PendingPair pair;
  int unproductive_visits = 0;
};

enum class Ev { kMasterPop, kStageVisit, kReturn };

struct Event {
  std::uint64_t time;
  std::uint64_t seq;
  Ev kind;
  int stage = 0;
  std::size_t token = 0;
  bool zero = false;

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

}  // namespace

double PipelineResult::achieved_parallelism() const {
  std::uint64_t total = 0, mx = 0;
  for (std::uint64_t b : stage_busy) {
    total += b;
    mx = std::max(mx, b);
  }
  return mx == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(mx);
}

PipelineResult groebner_pipeline(const PolySystem& sys, const PipelineConfig& cfg) {
  GBD_CHECK(cfg.nstages >= 1 && cfg.inflight >= 1);
  check_baseline_config(cfg.gb);
  PipelineResult res;
  const PolyContext& ctx = sys.ctx;
  const GbConfig& gb = cfg.gb;
  const int P = cfg.nstages;

  // Global basis; each element owned by one stage. The master only keeps the
  // head index (the pair book's heads); bodies live in their stage's
  // partition.
  std::vector<Polynomial> basis;
  std::vector<int> owner;
  std::vector<std::vector<std::size_t>> partition(static_cast<std::size_t>(P));
  int next_owner = 0;

  auto install = [&](Polynomial g) {
    partition[static_cast<std::size_t>(next_owner)].push_back(basis.size());
    basis.push_back(std::move(g));
    owner.push_back(next_owner);
    next_owner = (next_owner + 1) % P;
  };

  for (const auto& p : sys.polys) {
    if (p.is_zero()) continue;
    Polynomial q = p;
    q.make_primitive();
    install(std::move(q));
  }

  PairBook gpq(ctx, gb, &res.stats);
  gpq.seed(basis);

  std::vector<Token> tokens;
  std::vector<std::uint64_t> stage_free(static_cast<std::size_t>(P), 0);
  res.stage_busy.assign(static_cast<std::size_t>(P), 0);
  std::uint64_t master_free = 0;
  int inflight = 0;
  std::uint64_t makespan = 0;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::uint64_t seq = 0;
  auto post = [&](std::uint64_t t, Ev kind, int stage = 0, std::size_t token = 0,
                  bool zero = false) {
    events.push(Event{t, seq++, kind, stage, token, zero});
    makespan = std::max(makespan, t);
  };

  auto hop_cost = [&](const Polynomial& h) {
    res.token_hops += 1;
    res.ring_bytes += h.wire_size();
    return cfg.cost.wire_time(h.wire_size()) + cfg.cost.inject + cfg.cost.dispatch;
  };

  post(0, Ev::kMasterPop);

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();

    switch (ev.kind) {
      case Ev::kMasterPop: {
        if (gpq.empty() || inflight >= cfg.inflight) break;  // retriggered later
        std::uint64_t t = std::max(ev.time, master_free);
        PendingPair pair = gpq.pop();
        if (!gpq.screen(pair)) {
          master_free = t + 1;
          post(master_free, Ev::kMasterPop);
          break;
        }
        // Gather the two bodies from their owner stages: with a partitioned
        // basis the pair's polynomials must travel to be combined.
        std::uint64_t gather = 0;
        gather = std::max(gather, hop_cost(basis[pair.i]));
        gather = std::max(gather, hop_cost(basis[pair.j]));
        t += gather;
        CostScope cost;
        Polynomial h = spoly(ctx, basis[pair.i], basis[pair.j]);
        h.make_primitive();
        t += cost.elapsed();
        res.stats.work_units += cost.elapsed();
        master_free = t;

        std::size_t tok = tokens.size();
        tokens.push_back(Token{std::move(h), std::move(pair), 0});
        inflight += 1;
        if (tokens[tok].h.is_zero()) {
          post(t, Ev::kReturn, 0, tok, true);
        } else {
          post(t + hop_cost(tokens[tok].h), Ev::kStageVisit, 0, tok);
        }
        post(master_free, Ev::kMasterPop);  // pipeline more if slots remain
        break;
      }

      case Ev::kStageVisit: {
        Token& tok = tokens[ev.token];
        int s = ev.stage;
        std::uint64_t t = std::max(ev.time, stage_free[static_cast<std::size_t>(s)]);
        CostScope cost;
        bool reduced_any = false;
        for (;;) {
          // Best applicable reducer within this stage's partition only.
          const Polynomial* best = nullptr;
          for (std::size_t idx : partition[static_cast<std::size_t>(s)]) {
            const Polynomial& g = basis[idx];
            if (g.hmono().divides(tok.h.hmono()) &&
                (best == nullptr || reducer_preferred(g, *best))) {
              best = &g;
            }
          }
          if (best == nullptr) break;
          tok.h = reduce_step(ctx, tok.h, *best);
          tok.h.make_primitive();
          res.stats.reduction_steps += 1;
          reduced_any = true;
          if (tok.h.is_zero()) break;
        }
        std::uint64_t w = cost.elapsed();
        res.stats.work_units += w;
        res.stats.max_step_cost = std::max(res.stats.max_step_cost, w);
        t += w;
        stage_free[static_cast<std::size_t>(s)] = t;
        res.stage_busy[static_cast<std::size_t>(s)] += w;
        makespan = std::max(makespan, t);

        if (tok.h.is_zero()) {
          post(t + cfg.cost.wire_time(16), Ev::kReturn, 0, ev.token, true);
          break;
        }
        tok.unproductive_visits = reduced_any ? 0 : tok.unproductive_visits + 1;
        if (tok.unproductive_visits >= P) {
          post(t + hop_cost(tok.h), Ev::kReturn, 0, ev.token, false);
        } else {
          post(t + hop_cost(tok.h), Ev::kStageVisit, (s + 1) % P, ev.token);
        }
        break;
      }

      case Ev::kReturn: {
        std::uint64_t t = std::max(ev.time, master_free);
        Token& tok = tokens[ev.token];
        if (ev.zero) {
          res.stats.reductions_to_zero += 1;
          gpq.treated(tok.pair.i, tok.pair.j);
          inflight -= 1;
          master_free = t + 1;
          post(master_free, Ev::kMasterPop);
          break;
        }
        // The master's head index is complete: if an element added behind
        // the token can still reduce it, send it around again.
        bool reducible = false;
        for (const Monomial& hm : gpq.heads()) {
          if (hm.divides(tok.h.hmono())) {
            reducible = true;
            break;
          }
        }
        master_free = t + 1;
        if (reducible) {
          tok.unproductive_visits = 0;
          post(master_free + hop_cost(tok.h), Ev::kStageVisit, 0, ev.token);
          break;
        }
        // Genuine normal form: install it in the next partition and create
        // the new pairs (master knows all heads).
        res.ring_bytes += tok.h.wire_size();  // body travels to its new owner
        gpq.add(tok.h, tok.pair.sugar);
        install(std::move(tok.h));
        res.stats.basis_added += 1;
        gpq.treated(tok.pair.i, tok.pair.j);
        inflight -= 1;
        post(master_free, Ev::kMasterPop);
        break;
      }
    }
  }

  GBD_CHECK_MSG(gpq.empty() && inflight == 0, "pipeline simulation wedged");
  res.basis = std::move(basis);
  res.makespan = std::max(makespan, master_free);
  res.elapsed_units = res.makespan;
  return res;
}

}  // namespace gbd
