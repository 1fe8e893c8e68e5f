#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perfbench.hpp"
#include "poly/echelon.hpp"
#include "poly/matrix.hpp"
#include "poly/reduce.hpp"
#include "poly/simd.hpp"
#include "poly/spoly.hpp"
#include "poly/symbolic.hpp"

namespace perfbench {

using namespace gbd;

void Report::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  std::size_t beyond = v.size() > 10 ? 10 : 0;
  t.beyond = beyond;
  t.value = v[v.size() - 1 - beyond];
  t.pct = 100.0 * static_cast<double>(v.size() - beyond) / static_cast<double>(v.size());
  return t;
}

std::string describe_tail(const Tail& t, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "p%.2f = %.3f %s (n=%zu, %zu beyond)", t.pct, t.value, unit, t.n,
                t.beyond);
  return buf;
}

std::uint64_t basis_digest(const PolyContext& ctx, const std::vector<Polynomial>& basis) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (const Polynomial& p : basis) {
    for (char c : p.to_string(ctx)) mix(static_cast<unsigned char>(c));
    mix(';');
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string lookup_reference(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string k, v;
    if (ls >> k >> v && k == key) return v;
  }
  return "";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void report_kernel_layer(const MetricsSnapshot& snap, double ops, Report* out) {
  auto per_op = [&](const char* name) { return static_cast<double>(snap.total(name)) / ops; };
  for (const char* name : {"kernel.matrix.batches", "kernel.matrix.frame_cols",
                           "kernel.matrix.pivot_rows", "kernel.matrix.axpys",
                           "kernel.matrix.dense_cells", "kernel.matrix.rows_zeroed"})
    out->add(name, per_op(name), "count");
  double hits = per_op("kernel.matrix.memo_hits");
  double misses = per_op("kernel.matrix.memo_misses");
  out->add("kernel.matrix.memo_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
           "ratio");
  out->add("kernel.simd.sweep_ms", per_op("kernel.simd.sweep_ns") / 1e6, "ms");
  out->add("kernel.simd.cells", per_op("kernel.simd.cells"), "count");
  double probes = per_op("kernel.find_reducer.probes");
  out->add("kernel.find_reducer.probes", probes, "count");
  out->add("kernel.find_reducer.mask_reject_ratio",
           probes > 0 ? per_op("kernel.find_reducer.mask_rejects") / probes : 0, "ratio");
  out->add("kernel.geobucket.axpys", per_op("kernel.geobucket.axpys"), "count");
}

void report_poly_replay(const PolyContext& ctx, const std::vector<Polynomial>& reduced,
                        const CoeffOptions& coeff, Report* out) {
  // The batch: the first 48 pairs of the reduced basis in (i, j) order. A
  // Gröbner basis reduces every one of them to zero, so the batch is fixed by
  // the workload's input and exercises the full reducer-search path.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t j = 1; j < reduced.size() && pairs.size() < 48; ++j)
    for (std::size_t i = 0; i < j && pairs.size() < 48; ++i) pairs.emplace_back(i, j);

  VectorReducerSet reducers(&reduced);
  EchelonOptions eopt;
  eopt.coeff = coeff;
  const bool runs = coeff.is_zp() && coeff.prime < (std::uint64_t{1} << 32) &&
                    simd_level() != SimdLevel::kScalar;
  ReduceOptions ropt;
  ropt.coeff = coeff;
  ropt.tail_reduce = true;

  std::vector<double> t_spoly, t_sym, t_build, t_ech, t_full;
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = now_s();
    std::vector<Polynomial> rows;
    rows.reserve(pairs.size());
    for (auto [i, j] : pairs) rows.push_back(spoly(ctx, reduced[i], reduced[j], coeff));
    double t1 = now_s();
    SymbolicFrame frame = symbolic_preprocess(ctx, rows, reducers);
    double t2 = now_s();
    MacaulayMatrix mat = build_matrix(ctx, frame, rows, coeff, runs);
    double t3 = now_s();
    EchelonOutput ech = echelon_reduce(ctx, frame, mat, eopt);
    double t4 = now_s();
    std::size_t nonzero = 0;
    for (const Polynomial& r : rows) nonzero += reduce_full(ctx, r, reducers, ropt).poly.is_zero() ? 0 : 1;
    double t5 = now_s();
    if (!ech.rows.empty() || nonzero != 0)
      out->fail("poly replay: an s-polynomial of the reduced basis did not reduce to zero");
    t_spoly.push_back(t1 - t0);
    t_sym.push_back(t2 - t1);
    t_build.push_back(t3 - t2);
    t_ech.push_back(t4 - t3);
    t_full.push_back(t5 - t4);
  }
  out->add("poly.spoly_us", median(t_spoly) * 1e6, "us");
  out->add("poly.symbolic_us", median(t_sym) * 1e6, "us");
  out->add("poly.build_matrix_us", median(t_build) * 1e6, "us");
  out->add("poly.echelon_us", median(t_ech) * 1e6, "us");
  out->add("poly.reduce_full_us", median(t_full) * 1e6, "us");
}

}  // namespace perfbench
