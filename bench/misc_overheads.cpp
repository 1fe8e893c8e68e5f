// §6 overhead claims — "less than 2% of running time is spent in mutual
// exclusion and termination detection" — plus the communication breakdown
// §4.1.1 predicts for a replicated basis: bodies move only for additions
// (and the suspended-pair fetches), never for reductions to zero.
#include "bench_common.hpp"

using namespace gbd;

int main() {
  bench::print_header(
      "Section 6 overheads: mutual exclusion, termination detection, communication",
      "CritSec% = (lock manager traffic x round trip) / makespan as an upper bound on the\n"
      "mutual-exclusion+termination share; bodies/add shows replication's communication\n"
      "economy (the paper's claim: polynomials move only when the basis grows).");

  TextTable table({"Input", "P", "Makespan", "Adds", "Bodies moved", "Bodies/Add", "Msgs",
                   "Bytes", "CritSec%"});
  for (const char* name : {"trinks2", "trinks1", "katsura4", "arnborg5"}) {
    PolySystem sys = load_problem(name);
    for (int p : {4, 8}) {
      ParallelConfig cfg;
      cfg.gb = bench::paper_era_criteria();
      cfg.nprocs = p;
      ParallelResult res = bench::best_of_seeds(sys, cfg, 2);
      // Each add costs one lock round trip (request+grant+release) and each
      // termination wave 2(P-1) small messages; both are latency-bound.
      std::uint64_t lock_round = 3 * (cfg.cost.latency + cfg.cost.dispatch + cfg.cost.inject);
      std::uint64_t crit = res.stats.basis_added * lock_round;
      double crit_pct = 100.0 * static_cast<double>(crit) /
                        static_cast<double>(res.machine.makespan);
      double per_add = res.stats.basis_added == 0
                           ? 0.0
                           : static_cast<double>(res.wire.bodies_received) /
                                 static_cast<double>(res.stats.basis_added);
      table.add_row({name, std::to_string(p), std::to_string(res.machine.makespan),
                     std::to_string(res.stats.basis_added),
                     std::to_string(res.wire.bodies_received), fmt(per_add),
                     std::to_string(res.machine.total(&ProcCommStats::messages_sent)),
                     std::to_string(res.machine.total(&ProcCommStats::bytes_sent)),
                     fmt(crit_pct)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nPaper band: <2%% in mutual exclusion + termination detection; bodies/add bounded by\n"
      "P-1 (each addition is fetched at most once per other processor, many never at all).\n");
  return 0;
}
