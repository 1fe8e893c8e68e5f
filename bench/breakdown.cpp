// PR 4 — the paper's activity breakdown (§6/§7 discussion): for trinks1 at
// P = 1/2/4/8 on the simulator, the per-processor split of virtual time into
// reduce / comm / hold / idle, plus the load-imbalance ratio and the real
// wall time of the (traced) simulation itself. Prints the tables; with
// --out FILE also writes the JSON (committed as BENCH_pr4.json).
//
// The virtual-time percentages are deterministic for a fixed seed; wall_ms
// is the only host-dependent field.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"

using namespace gbd;

namespace {

struct Run {
  int procs = 0;
  double wall_ms = 0;
  BreakdownReport report;
};

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

Run measure(const PolySystem& sys, int procs, std::uint64_t seed) {
  Tracer tracer;
  ParallelConfig cfg;
  cfg.gb = bench::paper_era_criteria();
  cfg.nprocs = procs;
  cfg.seed = seed;
  cfg.tracer = &tracer;
  auto t0 = std::chrono::steady_clock::now();
  ParallelResult res = groebner_parallel(sys, cfg);
  auto t1 = std::chrono::steady_clock::now();
  (void)res;
  Run run;
  run.procs = procs;
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.report = analyze_trace(tracer.data());
  return run;
}

void write_json(const std::string& path, const std::string& problem,
                const std::vector<Run>& runs) {
  std::ofstream out(path);
  char buf[256];
  out << "{\n  \"bench\": \"pr4_breakdown\",\n  \"problem\": \"" << problem << "\",\n"
      << "  \"note\": \"virtual-time activity split per processor (comm includes the "
         "unattributed residual); wall_ms is host wall time of the traced sim run\",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"procs\": %d, \"makespan\": %llu, \"wall_ms\": %.3f, "
                  "\"load_imbalance\": %.3f, \"critical_path\": %llu, \"per_proc\": [\n",
                  r.procs, static_cast<unsigned long long>(r.report.makespan), r.wall_ms,
                  r.report.load_imbalance,
                  static_cast<unsigned long long>(r.report.critical_path));
    out << buf;
    for (std::size_t p = 0; p < r.report.procs.size(); ++p) {
      const ProcBreakdown& b = r.report.procs[p];
      std::snprintf(buf, sizeof(buf),
                    "      {\"proc\": %zu, \"reduce_pct\": %.1f, \"comm_pct\": %.1f, "
                    "\"hold_pct\": %.1f, \"idle_pct\": %.1f, \"busy\": %llu}%s\n",
                    p, pct(b.reduce, r.report.makespan),
                    pct(b.comm + b.other, r.report.makespan), pct(b.hold, r.report.makespan),
                    pct(b.idle, r.report.makespan), static_cast<unsigned long long>(b.busy()),
                    p + 1 < r.report.procs.size() ? "," : "");
      out << buf;
    }
    out << "    ]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string problem = "trinks1";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--problem") == 0 && i + 1 < argc) {
      problem = argv[++i];
    } else {
      std::fprintf(stderr, "usage: breakdown [--out FILE] [--problem NAME]\n");
      return 2;
    }
  }

  bench::print_header("PR 4: per-processor activity breakdown (trinks1, simulator)",
                      "The paper's utilization analysis: where each processor's virtual time\n"
                      "goes. Idle grows with P on a small problem — the Fig. 7(a) sublinearity\n"
                      "made visible.");

  PolySystem sys = load_problem(problem);
  std::vector<Run> runs;
  for (int p : {1, 2, 4, 8}) {
    Run run = measure(sys, p, /*seed=*/1);
    std::printf("-- %s P=%d  makespan %llu  imbalance %.3f  wall %.1f ms --\n", problem.c_str(),
                p, static_cast<unsigned long long>(run.report.makespan),
                run.report.load_imbalance, run.wall_ms);
    std::fputs(render_breakdown(run.report).c_str(), stdout);
    std::printf("\n");
    runs.push_back(std::move(run));
  }

  if (out_path.empty()) return 0;
  write_json(out_path, problem, runs);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
