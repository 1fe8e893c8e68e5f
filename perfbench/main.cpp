// perfbench — wall time from input text to a Gröbner basis, end to end and
// layer by layer. See README.md in this directory.
//
//   perfbench --workload solve_zp|serve_mix --seed N --seconds S --trace 0|1
//   perfbench --write-reference
//
// Prints a run fingerprint, human-readable notes, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits nonzero
// when any output was wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "poly/simd.hpp"

namespace {

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double v = -1;
  in >> v;
  return v;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload solve_zp|serve_mix --seed N --seconds S "
               "--trace 0|1 [--reference FILE]\n"
               "       %s --write-reference\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--write-reference") == 0) return write_reference();
    if (std::strcmp(a, "--workload") == 0 && (v = next())) {
      opt.workload = v;
      have_workload = true;
    } else if (std::strcmp(a, "--seed") == 0 && (v = next())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && (v = next())) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(a, "--trace") == 0 && (v = next())) {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(a, "--reference") == 0 && (v = next())) {
      opt.reference_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !(opt.seconds > 0)) return usage(argv[0]);

  std::printf(
      "fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %u, \"simd\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"tracing_compiled\": %s, \"loadavg_1m\": %.2f}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      gbd::simd_level_name(gbd::simd_level()), compiler().c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_TRACING_COMPILED ? "true" : "false", load_average_1m());
  std::fflush(stdout);

  Report rep;
  if (opt.workload == "solve_zp") {
    run_solve_zp(opt, &rep);
  } else if (opt.workload == "serve_mix") {
    run_serve_mix(opt, &rep);
  } else {
    return usage(argv[0]);
  }
  if (rep.attempted == 0) rep.fail("no operation was attempted");
  if (opt.trace) {
    rep.add("error_rate", static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
            "ratio");
  } else {
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  for (Metric& m : rep.metrics) {
    if (std::isfinite(m.value)) continue;
    rep.fail("metric " + m.name + " is not a finite number");
    m.value = 0;
  }

  const bool correct = rep.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
