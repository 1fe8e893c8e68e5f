// Google-benchmark comparison of the two reduce_full paths (naive flat-vector
// rebuild vs geobucket accumulator) on inputs from the benchmark problems,
// in real nanoseconds. The two paths produce bit-identical normal forms and
// step counts (tests/reduce_diff_test.cpp), so any wall-clock delta is pure
// kernel efficiency: term movement, BigInt allocation and find_reducer
// filtering.
//
// Counters reported per benchmark: steps, find_reducer probes, divmask
// rejects and BigInt heap spills for one reduction at that configuration.
//
// A second mode compares whole Gröbner runs instead of single reductions:
//
//   reduce_kernel --matrix [--smoke] [--out FILE]
//
// runs the sequential engine per-poly vs matrix_reduce (the batched F4-style
// path) on the PR-7 workload table — trinks1, arnborg5 under lex, and
// katsura(4..7), over Q and over Z/pZ — checks that both paths reach the
// identical reduced basis, and prints/writes one JSON row per configuration
// (wall times, speedup, matrix-kernel counters). Exact rows whose
// coefficient growth makes them minutes-long (katsura 6/7 over Q) are
// zp-only. --smoke trims to the fast rows for CI; --out writes the JSON
// consumed as BENCH_pr7.json.
//
// A third mode, --pr8, compares the scalar vs vectorized Zp elimination
// kernel (see below); --repeat N overrides the min-of-N repetition count of
// both whole-run modes.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/zp.hpp"
#include "gb/sequential.hpp"
#include "poly/coeff.hpp"
#include "poly/divmask.hpp"
#include "poly/reduce.hpp"
#include "poly/simd.hpp"
#include "poly/spoly.hpp"
#include "poly/symbolic.hpp"
#include "problems/problems.hpp"
#include "support/check.hpp"

namespace gbd {
namespace {

const std::vector<std::string>& problem_names() {
  static const std::vector<std::string> names = {"arnborg4", "katsura4", "trinks2", "trinks1"};
  return names;
}

/// The heaviest s-polynomial over the elements of `basis`: s-polynomials of
/// a Gröbner basis reduce all the way to zero, so this drives the longest
/// reduction chains REDUCE(h, G) sees on this problem.
Polynomial heavy_spoly(const PolyContext& ctx, const std::vector<Polynomial>& basis) {
  Polynomial heaviest;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = i + 1; j < basis.size(); ++j) {
      Polynomial s = spoly(ctx, basis[i], basis[j]);
      if (s.is_zero()) continue;
      if (heaviest.is_zero() || s.nterms() > heaviest.nterms()) heaviest = std::move(s);
    }
  }
  GBD_CHECK(!heaviest.is_zero());
  return heaviest;
}

void reduce_bench(benchmark::State& state, bool geobuckets) {
  const std::string& name = problem_names()[static_cast<std::size_t>(state.range(0))];
  PolySystem sys = load_problem(name);
  std::vector<Polynomial> basis = groebner_sequential(sys).basis;
  Polynomial h = heavy_spoly(sys.ctx, basis);
  VectorReducerSet set(&basis);
  ReduceOptions opts;
  opts.tail_reduce = true;  // full normal form: the long-tail case
  opts.use_geobuckets = geobuckets;

  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_full(sys.ctx, h, set, opts));
  }

  reset_find_reducer_stats();
  LimbVec::reset_heap_allocs();
  ReduceOutcome out = reduce_full(sys.ctx, h, set, opts);
  const FindReducerStats& st = find_reducer_stats();
  state.SetLabel(name);
  state.counters["steps"] = static_cast<double>(out.steps);
  state.counters["probes"] = static_cast<double>(st.probes);
  state.counters["mask_rejects"] = static_cast<double>(st.mask_rejects);
  state.counters["heap_allocs"] = static_cast<double>(LimbVec::heap_allocs());
}

void BM_ReduceFullNaive(benchmark::State& state) { reduce_bench(state, false); }
void BM_ReduceFullGeobucket(benchmark::State& state) { reduce_bench(state, true); }
BENCHMARK(BM_ReduceFullNaive)->DenseRange(0, 3);
BENCHMARK(BM_ReduceFullGeobucket)->DenseRange(0, 3);

/// Same reduction, coefficients in Z/pZ (Montgomery word arithmetic) instead
/// of exact integers: the per-step cost the multi-modular driver's jobs pay.
/// The BigInt heap-spill counter should read ~0 here — every coefficient is
/// one canonical machine word.
void reduce_bench_zp(benchmark::State& state, bool geobuckets) {
  const std::string& name = problem_names()[static_cast<std::size_t>(state.range(0))];
  const std::uint64_t prime = prev_prime_u64(std::uint64_t{1} << 62);
  PolySystem sys = load_problem(name);
  CoeffOptions zp = CoeffOptions::zp(prime);
  std::vector<Polynomial> basis = groebner_sequential(sys).basis;
  Polynomial h = heavy_spoly(sys.ctx, basis);
  for (auto& g : basis) coeff_normalize(sys.ctx, &g, zp);
  coeff_normalize(sys.ctx, &h, zp);
  VectorReducerSet set(&basis);
  ReduceOptions opts;
  opts.tail_reduce = true;
  opts.use_geobuckets = geobuckets;
  opts.coeff = zp;

  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_full(sys.ctx, h, set, opts));
  }

  reset_find_reducer_stats();
  LimbVec::reset_heap_allocs();
  ReduceOutcome out = reduce_full(sys.ctx, h, set, opts);
  const FindReducerStats& st = find_reducer_stats();
  state.SetLabel(name + " mod p");
  state.counters["steps"] = static_cast<double>(out.steps);
  state.counters["probes"] = static_cast<double>(st.probes);
  state.counters["mask_rejects"] = static_cast<double>(st.mask_rejects);
  state.counters["heap_allocs"] = static_cast<double>(LimbVec::heap_allocs());
}

void BM_ReduceFullNaiveZp(benchmark::State& state) { reduce_bench_zp(state, false); }
void BM_ReduceFullGeobucketZp(benchmark::State& state) { reduce_bench_zp(state, true); }
BENCHMARK(BM_ReduceFullNaiveZp)->DenseRange(0, 3);
BENCHMARK(BM_ReduceFullGeobucketZp)->DenseRange(0, 3);

// ---------------------------------------------------------------------------
// --matrix mode: whole-run per-poly vs batched-matrix comparison (PR 7).

struct MatrixRow {
  const char* problem;
  OrderKind order;
  bool exact_too;        ///< also time the exact path (skipped where Q blows up)
  bool smoke;            ///< part of the CI smoke subset
  bool exact_full_only;  ///< exact half only under GBD_BENCH_FULL=1 (minutes-long)
};

const MatrixRow kMatrixRows[] = {
    {"trinks1", OrderKind::kGrLex, true, true, false},
    // Under lex the exact coefficients explode; the matrix's speculative
    // pivot products multiply that BigInt work, so the exact half of this
    // row runs for many minutes and is gated like katsura4/lex in pr6.
    {"arnborg5", OrderKind::kLex, true, false, true},
    {"katsura(4)", OrderKind::kGrLex, true, true, false},
    {"katsura(5)", OrderKind::kGrLex, true, true, false},
    {"katsura(6)", OrderKind::kGrLex, false, false, false},
    {"katsura(7)", OrderKind::kGrLex, false, false, false},
};

PolySystem load_with_order(const std::string& name, OrderKind order) {
  PolySystem sys = load_problem(name);
  if (sys.ctx.order == order) return sys;
  PolySystem out;
  out.name = sys.name;
  out.ctx = sys.ctx;
  out.ctx.order = order;
  for (const auto& p : sys.polys) {
    std::vector<Term> terms(p.terms().begin(), p.terms().end());
    out.polys.push_back(Polynomial::from_terms(out.ctx, std::move(terms)));
  }
  return out;
}

double timed_run_ms(const PolySystem& sys, const GbConfig& cfg, int reps,
                    SequentialResult* out, int* reps_run = nullptr) {
  double best = 0;
  int ran = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    SequentialResult res = groebner_sequential(sys, cfg);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
    if (r == 0) *out = std::move(res);
    ++ran;
    // A run this long has negligible timer noise; re-running it only makes
    // regenerating the committed JSON painful.
    if (best > 5000) break;
  }
  if (reps_run) *reps_run = ran;
  return best;
}

int run_matrix_mode(bool smoke, const std::string& out_path, int repeat) {
  const std::uint64_t prime = prev_prime_u64(std::uint64_t{1} << 31);
  const int reps = repeat > 0 ? repeat : (smoke ? 1 : 3);
  std::string json = "{\n  \"bench\": \"pr7_matrix_reduce\",\n  \"rows\": [\n";
  bool first_row = true;
  bool any_zp_win = false;
  std::printf("%-12s %-6s %-14s %12s %12s %9s  %s\n", "problem", "order", "coeff", "per_poly_ms",
              "matrix_ms", "speedup", "batches/cols/axpys");

  for (const MatrixRow& row : kMatrixRows) {
    if (smoke && !row.smoke) continue;
    PolySystem sys = load_with_order(row.problem, row.order);
    for (bool use_zp : {false, true}) {
      if (!use_zp && !row.exact_too) continue;
      if (!use_zp && row.exact_full_only && std::getenv("GBD_BENCH_FULL") == nullptr) continue;
      CoeffOptions coeff = use_zp ? CoeffOptions::zp(prime) : CoeffOptions{};
      GbConfig per_poly;
      per_poly.coeff = coeff;
      GbConfig matrix = per_poly;
      matrix.matrix_reduce = true;

      SequentialResult a, b;
      double pp_ms = timed_run_ms(sys, per_poly, reps, &a);
      int mreps = 1;
      reset_matrix_kernel_stats();
      double mx_ms = timed_run_ms(sys, matrix, reps, &b, &mreps);
      MatrixKernelStats ms = matrix_kernel_stats();
      const std::uint64_t mr = static_cast<std::uint64_t>(mreps);

      // Both paths must compute the same ideal's canonical reduced basis —
      // the comparison is meaningless (and the build broken) otherwise.
      std::vector<Polynomial> ga = reduce_basis(sys.ctx, a.basis, coeff);
      std::vector<Polynomial> gb = reduce_basis(sys.ctx, b.basis, coeff);
      bool equal = ga.size() == gb.size();
      for (std::size_t i = 0; equal && i < ga.size(); ++i) equal = ga[i].equals(gb[i]);
      if (!equal) {
        std::fprintf(stderr, "FAIL: %s %s: matrix path basis differs from per-poly\n",
                     sys.name.c_str(), use_zp ? "zp" : "exact");
        return 1;
      }

      double speedup = mx_ms > 0 ? pp_ms / mx_ms : 0;
      if (use_zp && speedup > 1.0) any_zp_win = true;
      std::string coeff_name = use_zp ? "zp:" + std::to_string(prime) : "exact";
      std::printf("%-12s %-6s %-14s %12.2f %12.2f %8.2fx  %llu/%llu/%llu\n", sys.name.c_str(),
                  order_name(row.order), coeff_name.c_str(), pp_ms, mx_ms, speedup,
                  static_cast<unsigned long long>(ms.batches / mr),
                  static_cast<unsigned long long>(ms.frame_cols / mr),
                  static_cast<unsigned long long>(ms.axpys / mr));
      std::fflush(stdout);

      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"name\": \"%s\", \"order\": \"%s\", \"coeff\": \"%s\", "
          "\"per_poly_ms\": %.3f, \"matrix_ms\": %.3f, \"speedup\": %.4f, "
          "\"basis_added\": %llu, \"matrix_batches\": %llu, \"frame_cols\": %llu, "
          "\"pivot_rows\": %llu, \"work_rows\": %llu, \"rows_zeroed\": %llu, "
          "\"axpys\": %llu, \"dense_cells\": %llu}",
          sys.name.c_str(), order_name(row.order), coeff_name.c_str(), pp_ms, mx_ms, speedup,
          static_cast<unsigned long long>(b.stats.basis_added),
          static_cast<unsigned long long>(ms.batches / mr),
          static_cast<unsigned long long>(ms.frame_cols / mr),
          static_cast<unsigned long long>(ms.pivot_rows / mr),
          static_cast<unsigned long long>(ms.work_rows / mr),
          static_cast<unsigned long long>(ms.rows_zeroed / mr),
          static_cast<unsigned long long>(ms.axpys / mr),
          static_cast<unsigned long long>(ms.dense_cells / mr));
      json += (first_row ? "" : ",\n");
      json += buf;
      first_row = false;
    }
  }
  json += "\n  ]\n}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::printf("\nwritten to %s\n", out_path.c_str());
  }
  if (!smoke && !any_zp_win) {
    std::fprintf(stderr, "note: matrix path did not beat per-poly on any Zp row\n");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --pr8 mode: scalar vs vectorized elimination kernel (PR 8).
//
//   reduce_kernel --pr8 [--smoke] [--repeat N] [--out FILE]
//
// runs the sequential matrix engine mod p on each problem two ways —
// dispatch pinned scalar (GBD_DISABLE_SIMD set for that run) and automatic
// dispatch (the vector sweep where the host supports it) — checks both reach
// the bit-identical reduced basis, and reports min-of-N whole-run times
// plus the stage-1 sweep time (the dense-tile phase the SIMD work targets).
// The JSON records the host's vector features and the dispatch choice so
// committed numbers are interpretable on other machines.

struct Pr8Row {
  const char* problem;
  bool smoke;
};

const Pr8Row kPr8Rows[] = {
    {"trinks1", true}, {"katsura(5)", true}, {"cyclic(5)", true},
    {"katsura(6)", false}, {"katsura(7)", false},
};

/// One timed configuration: min-of-N wall ms, plus per-run averages of the
/// kernel counters accumulated across the N runs.
struct Pr8Timing {
  double run_ms = 0;
  double sweep_ms = 0;  ///< stage-1 sweep wall time, per run
  MatrixKernelStats stats;  ///< per-run averages
  SequentialResult result;
};

Pr8Timing pr8_time(const PolySystem& sys, const GbConfig& cfg, int reps) {
  Pr8Timing t;
  reset_matrix_kernel_stats();
  int ran = 0;
  t.run_ms = timed_run_ms(sys, cfg, reps, &t.result, &ran);
  MatrixKernelStats ms = matrix_kernel_stats();
  const std::uint64_t r = static_cast<std::uint64_t>(ran);
  t.sweep_ms = static_cast<double>(ms.sweep_ns / r) / 1e6;
  ms.batches /= r;
  ms.axpys /= r;
  ms.simd_rows /= r;
  ms.scalar_rows /= r;
  ms.simd_cells /= r;
  ms.memo_hits /= r;
  ms.memo_misses /= r;
  t.stats = ms;
  return t;
}

/// pr8_time with dispatch pinned to the scalar kernel through the
/// environment; the caller's GBD_DISABLE_SIMD setting is restored after.
Pr8Timing pr8_time_scalar(const PolySystem& sys, const GbConfig& cfg, int reps) {
  const char* prev = std::getenv("GBD_DISABLE_SIMD");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("GBD_DISABLE_SIMD", "1", 1);
  Pr8Timing t = pr8_time(sys, cfg, reps);
  if (prev != nullptr) {
    setenv("GBD_DISABLE_SIMD", saved.c_str(), 1);
  } else {
    unsetenv("GBD_DISABLE_SIMD");
  }
  return t;
}

int run_pr8_mode(bool smoke, int repeat, const std::string& out_path) {
  const std::uint64_t prime = prev_prime_u64(std::uint64_t{1} << 31);
  const int reps = repeat > 0 ? repeat : (smoke ? 1 : 5);
  const SimdLevel level = simd_level();
  std::printf("cpu: avx2=%d avx512f=%d dispatch=%s\n", cpu_has_avx2() ? 1 : 0,
              cpu_has_avx512() ? 1 : 0, simd_level_name(level));
  std::printf("%-12s %-14s %10s %10s %8s %8s\n", "problem", "coeff", "scalar_ms", "simd_ms",
              "speedup", "sweep_x");

  std::string json = "{\n  \"bench\": \"pr8_simd_kernel\",\n";
  json += "  \"cpu\": {\"avx2\": " + std::string(cpu_has_avx2() ? "true" : "false") +
          ", \"avx512f\": " + std::string(cpu_has_avx512() ? "true" : "false") +
          ", \"dispatch\": \"" + simd_level_name(level) + "\"},\n  \"rows\": [\n";
  bool first_row = true;

  for (const Pr8Row& row : kPr8Rows) {
    if (smoke && !row.smoke) continue;
    const OrderKind order = OrderKind::kGrLex;
    PolySystem sys = load_with_order(row.problem, order);
    CoeffOptions coeff = CoeffOptions::zp(prime);
    GbConfig cfg;
    cfg.coeff = coeff;
    cfg.matrix_reduce = true;

    Pr8Timing sc = pr8_time_scalar(sys, cfg, reps);
    Pr8Timing vec = pr8_time(sys, cfg, reps);

    // Both dispatch levels must reach the bit-identical reduced basis.
    std::vector<Polynomial> want = reduce_basis(sys.ctx, sc.result.basis, coeff);
    std::vector<Polynomial> got = reduce_basis(sys.ctx, vec.result.basis, coeff);
    bool equal = want.size() == got.size();
    for (std::size_t i = 0; equal && i < want.size(); ++i) equal = want[i].equals(got[i]);
    if (!equal) {
      std::fprintf(stderr, "FAIL: %s: dispatch configs disagree on the reduced basis\n",
                   sys.name.c_str());
      return 1;
    }

    double speedup = vec.run_ms > 0 ? sc.run_ms / vec.run_ms : 0;
    double sweep_x = vec.sweep_ms > 0 ? sc.sweep_ms / vec.sweep_ms : 0;
    std::string coeff_name = "zp:" + std::to_string(prime);
    std::printf("%-12s %-14s %10.2f %10.2f %7.2fx %7.2fx\n", sys.name.c_str(),
                coeff_name.c_str(), sc.run_ms, vec.run_ms, speedup, sweep_x);
    std::fflush(stdout);

    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"order\": \"%s\", \"coeff\": \"%s\", "
        "\"reps\": %d, \"scalar_ms\": %.3f, \"simd_ms\": %.3f, "
        "\"speedup\": %.4f, \"sweep_scalar_ms\": %.3f, \"sweep_simd_ms\": %.3f, "
        "\"sweep_speedup\": %.4f, \"simd_rows\": %llu, \"scalar_rows\": %llu, "
        "\"simd_cells\": %llu, \"memo_hits\": %llu, \"memo_misses\": %llu}",
        sys.name.c_str(), order_name(order), coeff_name.c_str(), reps, sc.run_ms, vec.run_ms,
        speedup, sc.sweep_ms, vec.sweep_ms, sweep_x,
        static_cast<unsigned long long>(vec.stats.simd_rows),
        static_cast<unsigned long long>(sc.stats.scalar_rows),
        static_cast<unsigned long long>(vec.stats.simd_cells),
        static_cast<unsigned long long>(vec.stats.memo_hits),
        static_cast<unsigned long long>(vec.stats.memo_misses));
    json += (first_row ? "" : ",\n");
    json += buf;
    first_row = false;
  }
  json += "\n  ]\n}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::printf("\nwritten to %s\n", out_path.c_str());
  }
  if (level == SimdLevel::kScalar) {
    std::printf("note: host dispatches scalar — simd columns measure the same kernel\n");
  }
  return 0;
}

}  // namespace
}  // namespace gbd

int main(int argc, char** argv) {
  bool matrix = false, pr8 = false, smoke = false;
  int repeat = 0;  // 0 = mode default
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--matrix") == 0) {
      matrix = true;
    } else if (std::strcmp(argv[i], "--pr8") == 0) {
      pr8 = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (pr8) return gbd::run_pr8_mode(smoke, repeat, out_path);
  if (matrix) return gbd::run_matrix_mode(smoke, out_path, repeat);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
