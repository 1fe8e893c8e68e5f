// solve_zp: a closed loop of sequential F4-style solves mod p, one at a time
// on one thread. Its traced run adds a pass over GL-P on a 4-thread
// ThreadMachine, the only place the basis, taskq and machine layers run.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/zp.hpp"
#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "io/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"
#include "perfbench.hpp"
#include "poly/reduce.hpp"
#include "poly/simd.hpp"
#include "problems/problems.hpp"

namespace perfbench {

using namespace gbd;

namespace {

constexpr int kKatsuraN = 7;
constexpr int kGlpCopies = 8;
constexpr int kGlpProcs = 4;
constexpr std::uint64_t kPrimeCount = 16;

/// The seed picks one of the 16 largest primes below 2^31.
std::uint64_t solve_prime(std::uint64_t seed) {
  std::uint64_t p = std::uint64_t{1} << 31;
  for (std::uint64_t k = 0; k <= seed % kPrimeCount; ++k) p = prev_prime_u64(p);
  return p;
}

std::string zp_reference_key(std::uint64_t p) { return "solve_zp:" + std::to_string(p); }
const char* kGlpReferenceKey = "glp:trinks1x8";

std::string glp_input_text() { return to_text(replicate_renamed(load_problem("trinks1"), kGlpCopies)); }

/// One solve, text to reduced basis, with the wall time of each layer call.
struct Solve {
  PolySystem sys;
  std::vector<Polynomial> reduced;
  GbStats stats;
  double parse_s = 0;
  double engine_s = 0;
  double reduce_s = 0;
  double total_ms() const { return (parse_s + engine_s + reduce_s) * 1e3; }
};

PolySystem parse_or_throw(const std::string& text) {
  PolySystem sys;
  std::string err;
  if (!parse_system(text, &sys, &err)) throw std::runtime_error("parse: " + err);
  return sys;
}

Solve solve_sequential(const std::string& text, const GbConfig& cfg) {
  Solve s;
  double t0 = now_s();
  s.sys = parse_or_throw(text);
  double t1 = now_s();
  SequentialResult res = groebner_sequential(s.sys, cfg);
  double t2 = now_s();
  s.reduced = reduce_basis(s.sys.ctx, std::move(res.basis), cfg.coeff);
  double t3 = now_s();
  s.stats = res.stats;
  s.parse_s = t1 - t0;
  s.engine_s = t2 - t1;
  s.reduce_s = t3 - t2;
  return s;
}

Solve solve_glp(const std::string& text, const ParallelConfig& pc) {
  Solve s;
  double t0 = now_s();
  s.sys = parse_or_throw(text);
  double t1 = now_s();
  ParallelResult res = groebner_parallel_threads(s.sys, pc);
  double t2 = now_s();
  s.reduced = reduce_basis(s.sys.ctx, std::move(res.basis), pc.gb.coeff);
  double t3 = now_s();
  s.stats = res.stats;
  s.parse_s = t1 - t0;
  s.engine_s = t2 - t1;
  s.reduce_s = t3 - t2;
  return s;
}

GbConfig zp_matrix_config(std::uint64_t p) {
  GbConfig cfg;
  cfg.coeff = CoeffOptions::zp(p);
  cfg.matrix_reduce = true;
  return cfg;
}

void check_digest(const Solve& s, const std::string& want, const char* what, Report* out) {
  std::string got = hex64(basis_digest(s.sys.ctx, s.reduced));
  if (got != want) out->fail(std::string(what) + ": reduced-basis digest " + got + " != reference " + want);
}

/// The GL-P layer pass of solve_zp's traced run: the paper's §7 synthetic
/// workload trinks1 x8, exact, GL-P with P=4 on a ThreadMachine (per-poly
/// reduction, default wire protocol) against the sequential engine. Half of
/// `window` untraced (speedup_p4), half with a Tracer and a MetricsRegistry
/// attached (the glp.* breakdown and the comm, basis, taskq and mailbox
/// counters, per GL-P solve).
void report_glp_layers(const Options& opt, double window, Report* out) {
  const std::string text = glp_input_text();
  const std::string want = lookup_reference(opt.reference_path, kGlpReferenceKey);
  std::printf("GL-P pass: trinks1 x%d, GL-P P=%d on ThreadMachine vs sequential, exact\n",
              kGlpCopies, kGlpProcs);
  if (want.empty()) {
    out->fail(std::string("no reference digest for ") + kGlpReferenceKey);
    return;
  }

  // One pair = one GL-P solve and one sequential solve of the same input, in
  // alternating order; both reduced bases must match the reference. The
  // workload seed generates ParallelConfig::seed (the initial pair placement)
  // of each GL-P solve, so a pass's median spans many placements.
  auto pair = [&](int i, ParallelConfig cfg, std::vector<double>* glp_ms,
                  std::vector<double>* seq_ms) {
    cfg.seed = opt.seed * 1'000'003 + static_cast<std::uint64_t>(i);
    auto run_seq = [&] {
      ++out->attempted;
      Solve s = solve_sequential(text, GbConfig{});
      check_digest(s, want, "GL-P pass sequential", out);
      seq_ms->push_back(s.total_ms());
    };
    auto run_glp = [&] {
      ++out->attempted;
      Solve s = solve_glp(text, cfg);
      check_digest(s, want, "GL-P pass GL-P", out);
      glp_ms->push_back(s.total_ms());
    };
    if (i % 2 == 0) {
      run_glp();
      run_seq();
    } else {
      run_seq();
      run_glp();
    }
  };

  // Untraced half: speedup_p4.
  ParallelConfig pc;
  pc.nprocs = kGlpProcs;
  std::vector<double> glp, seq;
  int i = 0;
  for (double end = now_s() + window / 2; now_s() < end || glp.size() < 3; ++i)
    pair(i, pc, &glp, &seq);
  const double speedup = median(seq) / median(glp);
  std::printf("GL-P pass: sequential p50 %.3f ms, GL-P p50 %.3f ms, speedup %.3f\n", median(seq),
              median(glp), speedup);

  // Traced half: a Tracer and a MetricsRegistry attached to every GL-P solve.
  MetricsRegistry reg(kGlpProcs);
  std::vector<double> traced_glp, traced_seq, imbalance;
  double reduce_t = 0, comm_t = 0, hold_t = 0, idle_t = 0, span_t = 0;
  std::uint64_t dropped = 0;
  for (double end = now_s() + window / 2; now_s() < end || traced_glp.size() < 3; ++i) {
    Tracer tracer(TracerConfig{1u << 17});
    ParallelConfig tcfg = pc;
    tcfg.tracer = &tracer;
    tcfg.metrics = &reg;
    pair(i, tcfg, &traced_glp, &traced_seq);
    BreakdownReport br = analyze_trace(tracer.data());
    for (const ProcBreakdown& p : br.procs) {
      reduce_t += static_cast<double>(p.reduce);
      comm_t += static_cast<double>(p.comm + p.other);
      hold_t += static_cast<double>(p.hold);
      idle_t += static_cast<double>(p.idle);
    }
    span_t += static_cast<double>(br.makespan) * static_cast<double>(br.procs.size());
    dropped += br.dropped_events;
    imbalance.push_back(br.load_imbalance);
  }
  if (dropped > 0)
    std::printf("GL-P pass: tracer ring dropped %llu events\n",
                static_cast<unsigned long long>(dropped));
  const double ops = static_cast<double>(traced_glp.size());
  MetricsSnapshot snap = reg.snapshot();
  out->add("speedup_p4", speedup, "x");
  out->add("glp.reduce_pct", 100 * reduce_t / span_t, "%");
  out->add("glp.comm_pct", 100 * comm_t / span_t, "%");
  out->add("glp.hold_pct", 100 * hold_t / span_t, "%");
  out->add("glp.idle_pct", 100 * idle_t / span_t, "%");
  out->add("glp.load_imbalance", median(imbalance), "ratio");
  for (const char* name : {"comm.messages_sent", "comm.bytes_sent", "basis.invalidations_sent",
                           "basis.fetches_sent", "basis.bodies_received", "taskq.steals_sent",
                           "taskq.steals_won", "mailbox.wakeups", "mailbox.lock_contended"})
    out->add(name, static_cast<double>(snap.total(name)) / ops,
             name == std::string("comm.bytes_sent") ? "bytes" : "count");
}

}  // namespace

void run_solve_zp(const Options& opt, Report* out) {
  std::string text;
  std::uint64_t prime = 0;
  std::string want;
  double setup_s = median_setup_s([&] {
    text = to_text(katsura_system(kKatsuraN));
    prime = solve_prime(opt.seed);
    want = lookup_reference(opt.reference_path, zp_reference_key(prime));
    (void)solve_sequential(text, zp_matrix_config(prime));  // warm-up solve
  });
  std::printf("solve_zp: katsura(%d) mod %llu, matrix path, %s sweep\n", kKatsuraN,
              static_cast<unsigned long long>(prime), simd_level_name(simd_level()));
  if (want.empty()) {
    out->fail("no reference digest for " + zp_reference_key(prime) + " in " + opt.reference_path);
    return;
  }
  const GbConfig cfg = zp_matrix_config(prime);

  // Untraced closed loop: every end-to-end number comes from here. A traced
  // run splits --seconds in three: this loop, the traced loop, the GL-P pass.
  const double window = opt.trace ? opt.seconds / 3 : opt.seconds;
  std::vector<double> lat;
  for (double end = now_s() + window; now_s() < end || lat.size() < 3;) {
    ++out->attempted;
    Solve s = solve_sequential(text, cfg);
    check_digest(s, want, "solve_zp", out);
    lat.push_back(s.total_ms());
  }
  if (!opt.trace) {
    // The tail is taken over the whole run: a slice holds too few solves.
    Tail t = tail(lat);
    const double sliced_mean = median_of_slices(lat, mean);
    std::printf("solve_zp: p50 %.3f ms, mean %.3f ms (median of %zu slice means %.3f ms), tail %s\n",
                median(lat), mean(lat), kSlices, sliced_mean, describe_tail(t, "ms").c_str());
    out->add("setup_s", setup_s, "s");
    out->add("latency_ms_mean", sliced_mean, "ms");
    out->add("latency_ms_tail", t.value, "ms");
    return;
  }

  // Traced loop: the same solves, each layer call timed and the kernel's
  // thread-local counters windowed through the metrics registry.
  MetricsRegistry reg(1);
  std::vector<double> traced, parse_us, engine_ms, reduce_ms;
  double spolys = 0, zeroed = 0, work = 0;
  std::uint64_t allocs = 0;
  Solve last;
  for (double end = now_s() + window; now_s() < end || traced.size() < 3;) {
    ++out->attempted;
    KernelBaseline base = kernel_baseline();
    std::uint64_t a0 = LimbVec::heap_allocs();
    Solve s = solve_sequential(text, cfg);
    allocs += LimbVec::heap_allocs() - a0;
    collect_kernel_delta(reg, 0, base);
    check_digest(s, want, "solve_zp (traced)", out);
    traced.push_back(s.total_ms());
    parse_us.push_back(s.parse_s * 1e6);
    engine_ms.push_back(s.engine_s * 1e3);
    reduce_ms.push_back(s.reduce_s * 1e3);
    spolys += static_cast<double>(s.stats.spolys_computed);
    zeroed += static_cast<double>(s.stats.reductions_to_zero);
    work += static_cast<double>(s.stats.work_units);
    last = std::move(s);
  }
  const double ops = static_cast<double>(traced.size());
  out->add("solve_ms_p50", median(lat), "ms");
  out->add("io.parse_us", median(parse_us), "us");
  out->add("gb.engine_ms", median(engine_ms), "ms");
  out->add("gb.reduce_basis_ms", median(reduce_ms), "ms");
  out->add("gb.spolys_computed", spolys / ops, "count");
  out->add("gb.zeroed_ratio", spolys > 0 ? zeroed / spolys : 0, "ratio");
  out->add("gb.work_units", work / ops, "count");
  report_kernel_layer(reg.snapshot(), ops, out);
  out->add("bigint.heap_allocs", static_cast<double>(allocs) / ops, "count");
  out->add("obs.trace_overhead_pct", (median(traced) / median(lat) - 1) * 100, "%");
  report_poly_replay(last.sys.ctx, last.reduced, cfg.coeff, out);
  report_glp_layers(opt, window, out);
}

int write_reference() {
  // katsura(7) mod each of the 16 primes, by the per-poly geobucket oracle;
  // the matrix path must agree before a digest is written.
  std::string text = to_text(katsura_system(kKatsuraN));
  for (std::uint64_t k = 0; k < kPrimeCount; ++k) {
    std::uint64_t p = solve_prime(k);
    GbConfig oracle;
    oracle.coeff = CoeffOptions::zp(p);
    Solve a = solve_sequential(text, oracle);
    Solve b = solve_sequential(text, zp_matrix_config(p));
    std::uint64_t da = basis_digest(a.sys.ctx, a.reduced);
    if (da != basis_digest(b.sys.ctx, b.reduced)) {
      std::fprintf(stderr, "matrix path disagrees with the oracle mod %llu\n",
                   static_cast<unsigned long long>(p));
      return 1;
    }
    std::printf("%s %s\n", zp_reference_key(p).c_str(), hex64(da).c_str());
    std::fflush(stdout);
  }
  // trinks1 x8 over Q: the sequential reduced basis, certified.
  std::string text8 = glp_input_text();
  Solve s = solve_sequential(text8, GbConfig{});
  std::string why;
  if (!verify_groebner_result(s.sys.ctx, s.sys.polys, s.reduced, &why)) {
    std::fprintf(stderr, "trinks1 x8 certificate failed: %s\n", why.c_str());
    return 1;
  }
  std::printf("%s %s\n", kGlpReferenceKey, hex64(basis_digest(s.sys.ctx, s.reduced)).c_str());
  return 0;
}

}  // namespace perfbench
