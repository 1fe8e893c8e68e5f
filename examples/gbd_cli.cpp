// gbd — command-line Gröbner basis computation over every engine in the
// library.
//
//   gbd [options] [file]        read a system from file (or stdin, or -p NAME)
//
// Options:
//   -p NAME       use built-in problem NAME instead of reading input
//   -e ENGINE     sequential | transition | parallel | shared | pipeline
//   -n P          processors / workers / stages (parallel engines; default 4)
//   -s SEED       schedule seed (default 1)
//   -o ORDER      override monomial order: lex | grlex | grevlex
//   -c MODE       criteria: full (default) | coprime | none
//   -x K          replicate the input K times with renamed variables
//   -r            print the raw basis as well as the reduced one
//   -q            quiet: stats only, no basis
//   -v            certify the printed reduced basis: a Groebner basis that
//                 contains every input (exit 1 if it is not)
//   -l            list built-in problems and exit
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "gb/parallel.hpp"
#include "gb/pipeline.hpp"
#include "gb/sequential.hpp"
#include "gb/shared_memory.hpp"
#include "gb/transition.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"

namespace {

using namespace gbd;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-p NAME] [-e ENGINE] [-n P] [-s SEED] [-o ORDER] [-c MODE]\n"
               "          [-x K] [-r] [-q] [-v] [-l] [file]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbd;

  std::string problem, engine = "sequential", file, order, criteria = "full";
  int nprocs = 4, copies = 1;
  std::uint64_t seed = 1;
  bool raw = false, quiet = false, verify = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "-p") {
      problem = next();
    } else if (arg == "-e") {
      engine = next();
    } else if (arg == "-n") {
      nprocs = std::atoi(next());
    } else if (arg == "-s") {
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "-o") {
      order = next();
    } else if (arg == "-c") {
      criteria = next();
    } else if (arg == "-x") {
      copies = std::atoi(next());
    } else if (arg == "-r") {
      raw = true;
    } else if (arg == "-q") {
      quiet = true;
    } else if (arg == "-v") {
      verify = true;
    } else if (arg == "-l") {
      for (const auto& info : problem_list()) {
        std::printf("%-12s %s%s\n", info.name.c_str(), info.description.c_str(),
                    info.standin ? " [stand-in]" : "");
      }
      return 0;
    } else if (arg[0] == '-' && arg != "-") {
      return usage(argv[0]);
    } else {
      file = arg;
    }
  }

  // --- load the system -------------------------------------------------------
  PolySystem sys;
  if (!problem.empty()) {
    if (!has_problem(problem)) {
      std::fprintf(stderr, "unknown problem '%s' (use -l to list)\n", problem.c_str());
      return 1;
    }
    sys = load_problem(problem);
  } else {
    std::string text;
    if (file.empty() || file == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      text = ss.str();
    } else {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", file.c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
    std::string err;
    if (!parse_system(text, &sys, &err)) {
      std::fprintf(stderr, "parse error: %s\n", err.c_str());
      return 1;
    }
    for (auto& p : sys.polys) p.make_primitive();
  }

  if (!order.empty()) {
    if (order == "lex") {
      sys.ctx.order = OrderKind::kLex;
    } else if (order == "grlex") {
      sys.ctx.order = OrderKind::kGrLex;
    } else if (order == "grevlex") {
      sys.ctx.order = OrderKind::kGRevLex;
    } else {
      std::fprintf(stderr, "unknown order '%s'\n", order.c_str());
      return 1;
    }
    // Re-canonicalize under the new order.
    for (auto& p : sys.polys) {
      std::vector<Term> terms(p.terms().begin(), p.terms().end());
      p = Polynomial::from_terms(sys.ctx, std::move(terms));
    }
  }
  if (copies > 1) sys = replicate_renamed(sys, copies);

  GbConfig gb;
  if (criteria == "coprime") {
    gb.chain_criterion = false;
    gb.gm_update = false;
  } else if (criteria == "none") {
    gb.coprime_criterion = false;
    gb.chain_criterion = false;
    gb.gm_update = false;
  } else if (criteria != "full") {
    std::fprintf(stderr, "unknown criteria mode '%s'\n", criteria.c_str());
    return 1;
  }

  // --- run -------------------------------------------------------------------
  std::vector<Polynomial> basis;
  GbStats stats;
  std::uint64_t elapsed = 0;
  // Traffic, read from its owner: the machine and basis store for GL-P, the
  // ring for the pipeline. Printed only when something was sent.
  std::string comm;
  auto comm_line = [&comm](std::uint64_t msgs, std::uint64_t bytes, std::uint64_t bodies) {
    if (msgs == 0) return;
    comm = " msgs=" + std::to_string(msgs) + " bytes=" + std::to_string(bytes) +
           " polys_moved=" + std::to_string(bodies);
  };
  if (engine == "sequential") {
    SequentialResult r = groebner_sequential(sys, gb);
    basis = std::move(r.basis);
    stats = r.stats;
    elapsed = r.elapsed_units;
  } else if (engine == "transition") {
    TransitionConfig cfg;
    cfg.gb = gb;
    cfg.seed = seed;
    TransitionResult r = groebner_transition(sys, cfg);
    basis = std::move(r.basis);
    stats = r.stats;
    elapsed = r.elapsed_units;
  } else if (engine == "parallel") {
    ParallelConfig cfg;
    cfg.gb = gb;
    cfg.nprocs = nprocs;
    cfg.seed = seed;
    ParallelResult r = groebner_parallel(sys, cfg);
    basis = std::move(r.basis);
    stats = r.stats;
    elapsed = r.machine.makespan;
    comm_line(r.machine.total(&ProcCommStats::messages_sent),
              r.machine.total(&ProcCommStats::bytes_sent), r.wire.bodies_received);
  } else if (engine == "shared") {
    SharedMemoryConfig cfg;
    cfg.gb = gb;
    cfg.nprocs = nprocs;
    cfg.seed = seed;
    SharedMemoryResult r = groebner_shared(sys, cfg);
    basis = std::move(r.basis);
    stats = r.stats;
    elapsed = r.makespan;
  } else if (engine == "pipeline") {
    PipelineConfig cfg;
    cfg.gb = gb;
    cfg.nstages = nprocs;
    cfg.inflight = nprocs;
    PipelineResult r = groebner_pipeline(sys, cfg);
    basis = std::move(r.basis);
    stats = r.stats;
    elapsed = r.makespan;
    comm_line(r.token_hops, r.ring_bytes, r.token_hops);
  } else {
    std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
    return 1;
  }

  // --- report ----------------------------------------------------------------
  std::fprintf(stderr, "engine=%s order=%s %s%s\n", engine.c_str(), order_name(sys.ctx.order),
               stats.summary().c_str(), comm.c_str());
  std::fprintf(stderr, "time=%llu units, |G|=%zu\n",
               static_cast<unsigned long long>(elapsed), basis.size());

  if (raw && !quiet) {
    std::printf("# raw basis (%zu elements)\n", basis.size());
    for (const auto& g : basis) std::printf("%s;\n", g.to_string(sys.ctx).c_str());
  }
  std::vector<Polynomial> reduced = reduce_basis(sys.ctx, basis);
  if (!quiet) {
    std::printf("# reduced Groebner basis (%zu elements)\n", reduced.size());
    for (const auto& g : reduced) std::printf("%s;\n", g.to_string(sys.ctx).c_str());
  } else {
    std::fprintf(stderr, "|reduced|=%zu\n", reduced.size());
  }

  if (verify) {
    std::string why;
    if (!verify_groebner_result(sys.ctx, sys.polys, reduced, &why)) {
      std::fprintf(stderr, "VERIFICATION FAILED: %s\n", why.c_str());
      return 1;
    }
    std::fprintf(stderr, "verified: reduced Groebner basis containing the input ideal\n");
  }
  return 0;
}
