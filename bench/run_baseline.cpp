// Reduction-kernel baseline: runs the sequential engine over the benchmark
// problems with the geobucket reduction path and with the naive flat-vector
// path, and reports (as BENCH_pr2.json with --out) per-problem wall time and
// the kernel counters (reduction steps, find_reducer probes / divmask
// rejects, BigInt heap spills, charged work units).
//
// Modes:
//   run_baseline [--out FILE] [--problems a,b,c] [--repeats N]
//       measure and print; with --out, also write the JSON to FILE.
//   run_baseline --check FILE [--tolerance PCT] [--problems a,b,c]
//       measure and compare against a committed baseline. The deterministic
//       counters (steps, probes, mask rejects, heap spills) must match
//       exactly; the *normalized* wall time — geobucket path divided by the
//       naive path measured in the same process — must not regress by more
//       than PCT percent (default 15). Normalizing by the in-binary naive
//       path cancels machine speed, so the committed numbers are meaningful
//       on any host (see EXPERIMENTS.md).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "gb/sequential.hpp"
#include "poly/divmask.hpp"
#include "problems/problems.hpp"

namespace gbd {
namespace {

struct Row {
  std::string name;
  double wall_ms = 0;        // geobucket path, best of repeats
  double wall_ms_naive = 0;  // naive path, best of repeats
  std::uint64_t reduction_steps = 0;
  std::uint64_t basis_added = 0;
  std::uint64_t work_units = 0;
  std::uint64_t find_reducer_calls = 0;
  std::uint64_t find_reducer_probes = 0;
  std::uint64_t mask_rejects = 0;
  std::uint64_t divides_calls = 0;
  std::uint64_t bigint_heap_allocs = 0;

  double normalized_wall() const {
    return wall_ms_naive > 0 ? wall_ms / wall_ms_naive : 0.0;
  }
};

double time_run_ms(const PolySystem& sys, const GbConfig& cfg) {
  auto t0 = std::chrono::steady_clock::now();
  SequentialResult r = groebner_sequential(sys, cfg);
  auto t1 = std::chrono::steady_clock::now();
  (void)r;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Row measure(const std::string& name, int repeats) {
  PolySystem sys = load_problem(name);
  Row row;
  row.name = name;

  GbConfig geo;
  GbConfig naive;
  naive.use_geobuckets = false;

  // Counter pass: one geobucket run with the thread-local counters reset.
  reset_find_reducer_stats();
  LimbVec::reset_heap_allocs();
  SequentialResult res = groebner_sequential(sys, geo);
  const FindReducerStats& st = find_reducer_stats();
  row.reduction_steps = res.stats.reduction_steps;
  row.basis_added = res.stats.basis_added;
  row.work_units = res.stats.work_units;
  row.find_reducer_calls = st.calls;
  row.find_reducer_probes = st.probes;
  row.mask_rejects = st.mask_rejects;
  row.divides_calls = st.divides_calls;
  row.bigint_heap_allocs = LimbVec::heap_allocs();

  // Timing passes: best of `repeats` for each path.
  for (int i = 0; i < repeats; ++i) {
    double g = time_run_ms(sys, geo);
    if (i == 0 || g < row.wall_ms) row.wall_ms = g;
    double n = time_run_ms(sys, naive);
    if (i == 0 || n < row.wall_ms_naive) row.wall_ms_naive = n;
  }
  return row;
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"pr2_reduce_kernel_baseline\",\n  \"problems\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[640];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"wall_ms_naive\": %.3f, "
                  "\"normalized_wall\": %.4f, \"reduction_steps\": %llu, \"basis_added\": %llu, "
                  "\"work_units\": %llu, \"find_reducer_calls\": %llu, "
                  "\"find_reducer_probes\": %llu, \"mask_rejects\": %llu, "
                  "\"divides_calls\": %llu, \"bigint_heap_allocs\": %llu}%s\n",
                  r.name.c_str(), r.wall_ms, r.wall_ms_naive, r.normalized_wall(),
                  static_cast<unsigned long long>(r.reduction_steps),
                  static_cast<unsigned long long>(r.basis_added),
                  static_cast<unsigned long long>(r.work_units),
                  static_cast<unsigned long long>(r.find_reducer_calls),
                  static_cast<unsigned long long>(r.find_reducer_probes),
                  static_cast<unsigned long long>(r.mask_rejects),
                  static_cast<unsigned long long>(r.divides_calls),
                  static_cast<unsigned long long>(r.bigint_heap_allocs),
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

/// Minimal field extraction from the committed baseline: finds the object
/// containing "name": "<name>" and pulls one numeric field out of it. Not a
/// JSON parser; sufficient for the format write_json emits.
bool json_field(const std::string& text, const std::string& name, const std::string& field,
                double* out) {
  std::string key = "\"name\": \"" + name + "\"";
  std::size_t at = text.find(key);
  if (at == std::string::npos) return false;
  std::size_t end = text.find('}', at);
  std::string fkey = "\"" + field + "\": ";
  std::size_t f = text.find(fkey, at);
  if (f == std::string::npos || f > end) return false;
  *out = std::strtod(text.c_str() + f + fkey.size(), nullptr);
  return true;
}

int check(const std::vector<Row>& rows, const std::string& path, double tolerance_pct) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  int failures = 0;
  for (const Row& r : rows) {
    double want;
    auto exact = [&](const char* field, std::uint64_t got) {
      if (!json_field(text, r.name, field, &want)) {
        std::fprintf(stderr, "FAIL %s: field %s missing from baseline\n", r.name.c_str(), field);
        failures += 1;
        return;
      }
      if (static_cast<double>(got) != want) {
        std::fprintf(stderr, "FAIL %s: %s = %llu, baseline %.0f (deterministic counter drifted)\n",
                     r.name.c_str(), field, static_cast<unsigned long long>(got), want);
        failures += 1;
      }
    };
    exact("reduction_steps", r.reduction_steps);
    exact("find_reducer_probes", r.find_reducer_probes);
    exact("mask_rejects", r.mask_rejects);
    exact("bigint_heap_allocs", r.bigint_heap_allocs);

    if (!json_field(text, r.name, "normalized_wall", &want)) {
      std::fprintf(stderr, "FAIL %s: normalized_wall missing from baseline\n", r.name.c_str());
      failures += 1;
      continue;
    }
    double got = r.normalized_wall();
    double limit = want * (1.0 + tolerance_pct / 100.0);
    if (got > limit) {
      std::fprintf(stderr,
                   "FAIL %s: normalized wall %.4f exceeds baseline %.4f by more than %.0f%%\n",
                   r.name.c_str(), got, want, tolerance_pct);
      failures += 1;
    } else {
      std::printf("ok %s: normalized wall %.4f (baseline %.4f, limit %.4f)\n", r.name.c_str(), got,
                  want, limit);
    }
  }
  return failures == 0 ? 0 : 1;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  double tolerance = 15.0;
  int repeats = 3;
  // Default set: the paper-table problems that finish in seconds
  // sequentially, smallest first; trinks1 is the largest seed problem.
  std::vector<std::string> problems = {"morgenstern", "arnborg4", "katsura4",
                                       "trinks2",     "rose",     "trinks1"};

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--out") {
      out_path = next();
    } else if (a == "--check") {
      check_path = next();
    } else if (a == "--tolerance") {
      tolerance = std::strtod(next().c_str(), nullptr);
    } else if (a == "--repeats") {
      repeats = std::atoi(next().c_str());
    } else if (a == "--problems") {
      problems = split_csv(next());
    } else {
      std::fprintf(stderr,
                   "usage: run_baseline [--out FILE] [--problems a,b,c] [--repeats N]\n"
                   "                    [--check FILE [--tolerance PCT]]\n");
      return 2;
    }
  }

  std::vector<Row> rows;
  for (const std::string& name : problems) {
    if (!has_problem(name)) {
      std::fprintf(stderr, "unknown problem %s\n", name.c_str());
      return 2;
    }
    Row r = measure(name, repeats);
    std::printf("%-12s geo %8.2f ms  naive %8.2f ms  speedup %5.2fx  steps %8llu  "
                "probes %9llu  mask_rejects %9llu  heap_allocs %9llu\n",
                r.name.c_str(), r.wall_ms, r.wall_ms_naive,
                r.wall_ms > 0 ? r.wall_ms_naive / r.wall_ms : 0.0,
                static_cast<unsigned long long>(r.reduction_steps),
                static_cast<unsigned long long>(r.find_reducer_probes),
                static_cast<unsigned long long>(r.mask_rejects),
                static_cast<unsigned long long>(r.bigint_heap_allocs));
    rows.push_back(std::move(r));
  }

  if (!check_path.empty()) return check(rows, check_path, tolerance);
  if (out_path.empty()) return 0;
  write_json(rows, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace gbd

int main(int argc, char** argv) { return gbd::run(argc, argv); }
