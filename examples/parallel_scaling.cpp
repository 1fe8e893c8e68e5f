// The distributed-memory engine end to end: run GL-P on the simulated
// machine across processor counts, print the speedup curve and the §5/§6
// machinery's statistics (invalidations, fetches, steals, termination), and
// cross-check the answer against the sequential engine. Finishes with the
// same computation on real OS threads (ThreadMachine) to show the identical
// worker code running under true asynchrony.
#include <cstdio>

#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace gbd;
  const char* name = argc > 1 ? argv[1] : "trinks2";
  int copies = argc > 2 ? std::atoi(argv[2]) : 4;
  if (!has_problem(name)) {
    std::fprintf(stderr, "unknown problem '%s'; pick one of:\n", name);
    for (const auto& info : problem_list()) std::fprintf(stderr, "  %s\n", info.name.c_str());
    return 1;
  }

  PolySystem base = load_problem(name);
  PolySystem sys = copies > 1 ? replicate_renamed(base, copies) : base;
  std::printf("Workload: %s (%zu generators, %zu variables)\n", sys.name.c_str(),
              sys.polys.size(), sys.ctx.nvars());

  SequentialResult seq = groebner_sequential(sys);
  std::vector<Polynomial> reference = reduce_basis(sys.ctx, seq.basis);
  std::printf("Sequential: %llu work units, basis %zu -> reduced %zu\n\n",
              static_cast<unsigned long long>(seq.stats.work_units), seq.basis.size(),
              reference.size());

  TextTable table({"P", "Virtual makespan", "Speedup", "Msgs", "Bodies moved", "Steals won",
                   "Correct"});
  double base_time = 0;
  for (int p : {1, 2, 4, 8}) {
    ParallelConfig cfg;
    cfg.nprocs = p;
    // The paper-era criteria profile gives the run the zero-reduction-rich
    // task mix the distributed design is built for (see DESIGN.md).
    cfg.gb.chain_criterion = false;
    cfg.gb.gm_update = false;
    ParallelResult res = groebner_parallel(sys, cfg);

    std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
    bool correct = red.size() == reference.size();
    for (std::size_t i = 0; correct && i < red.size(); ++i) {
      correct = red[i].equals(reference[i]);
    }

    if (p == 1) base_time = static_cast<double>(res.machine.makespan);
    std::uint64_t steals = 0;
    table.add_row({std::to_string(p), std::to_string(res.machine.makespan),
                   fmt(base_time / static_cast<double>(res.machine.makespan)),
                   std::to_string(res.machine.total(&ProcCommStats::messages_sent)),
                   std::to_string(res.wire.bodies_received), std::to_string(steals),
                   correct ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Same worker code on real OS threads (ThreadMachine):\n");
  ParallelConfig threads_cfg;
  threads_cfg.nprocs = 4;
  threads_cfg.gb.chain_criterion = false;
  threads_cfg.gb.gm_update = false;
  ParallelResult tres = groebner_parallel_threads(sys, threads_cfg);
  std::vector<Polynomial> tred = reduce_basis(sys.ctx, tres.basis);
  bool ok = tred.size() == reference.size();
  for (std::size_t i = 0; ok && i < tred.size(); ++i) ok = tred[i].equals(reference[i]);
  std::printf("  4 threads, wall time %.1f ms, result %s\n",
              static_cast<double>(tres.machine.makespan) / 1e6,
              ok ? "identical to sequential" : "MISMATCH");
  return ok ? 0 : 1;
}
