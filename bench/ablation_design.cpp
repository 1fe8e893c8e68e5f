// Ablations for the design choices DESIGN.md calls out: pair-elimination
// criteria strength, selection strategy, steal end, push balancing,
// reserved-coordinator mode, and network cost sensitivity. Each row answers
// "what does this knob buy (or cost)" on a fixed mid-size workload.
#include "bench_common.hpp"

using namespace gbd;

namespace {

struct Variant {
  std::string name;
  ParallelConfig cfg;
};

}  // namespace

int main() {
  bench::print_header("Design ablations (GL-P on trinks2 x 4 copies, P=8, best of 2 seeds)",
                      "Makespan in virtual units; Work = total algebra charged; Zero/Add\n"
                      "shows how much speculation each configuration admits.");

  PolySystem base = load_problem("trinks2");
  PolySystem sys = replicate_renamed(base, 4);

  std::vector<Variant> variants;
  {
    Variant v;
    v.name = "default (paper-era criteria)";
    v.cfg.gb = bench::paper_era_criteria();
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "full modern criteria (GM+chain)";
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "no criteria at all";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.gb.coprime_criterion = false;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "degree selection";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.gb.selection = Selection::kDegree;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "fifo selection (no heuristic)";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.gb.selection = Selection::kFifo;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "steal from best end";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.taskq.steal_from_best = true;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "push balancing (threshold 8)";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.taskq.push_threshold = 8;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "reserved coordinator";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.reserve_coordinator = true;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "10x network latency";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.cost.latency = 4000;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "free communication";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.cost = CostModel::free();
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "token-ring termination";
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.taskq.termination = Termination::kTokenRing;
    variants.push_back(v);
  }

  // Hybrid-basis continuum rows (§7 future work, implemented here).
  for (auto [homes, cache] : {std::pair<int, std::size_t>{2, 16},
                              std::pair<int, std::size_t>{1, 8},
                              std::pair<int, std::size_t>{1, 4}}) {
    Variant v;
    v.name = "hybrid basis homes=" + std::to_string(homes) + " cache=" + std::to_string(cache);
    v.cfg.gb = bench::paper_era_criteria();
    v.cfg.basis_mode = BasisMode::kHybrid;
    v.cfg.hybrid_homes = homes;
    v.cfg.hybrid_cache_capacity = cache;
    variants.push_back(v);
  }

  TextTable table({"Variant", "Makespan", "Work", "Zeroed", "Added", "Msgs", "Bodies",
                   "PeakResident"});
  for (auto& v : variants) {
    v.cfg.nprocs = 8;
    ParallelResult res = bench::best_of_seeds(sys, v.cfg, 2);
    table.add_row({v.name, std::to_string(res.machine.makespan),
                   std::to_string(res.stats.work_units),
                   std::to_string(res.stats.reductions_to_zero),
                   std::to_string(res.stats.basis_added),
                   std::to_string(res.machine.total(&ProcCommStats::messages_sent)),
                   std::to_string(res.wire.bodies_received),
                   std::to_string(res.wire.max_resident)});
  }
  std::printf("%s\n", table.render().c_str());

  // Sequential-side heuristic ablation (sugar lives here: pair sugar is not
  // propagated over the distributed queue's wire format).
  bench::print_header("Sequential selection-strategy ablation (work units)",
                      "normal = paper's heuristic; sugar = Giovini et al. refinement.");
  TextTable seqtab({"Input", "normal", "degree", "sugar", "fifo", "interreduced"});
  for (const char* name : {"trinks1", "katsura4", "arnborg5", "rose"}) {
    PolySystem s = load_problem(name);
    std::vector<std::string> row{name};
    for (Selection sel :
         {Selection::kNormal, Selection::kDegree, Selection::kSugar, Selection::kFifo}) {
      GbConfig cfg;
      cfg.selection = sel;
      row.push_back(std::to_string(groebner_sequential(s, cfg).stats.work_units));
    }
    GbConfig inter;
    inter.interreduce_input = true;
    row.push_back(std::to_string(groebner_sequential(s, inter).stats.work_units));
    seqtab.add_row(row);
  }
  std::printf("%s\n", seqtab.render().c_str());
  return 0;
}
