// Shared pieces of the perfbench binary: options, the metric report, order
// statistics, basis digests and the per-layer helpers every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "poly/coeff.hpp"
#include "poly/polynomial.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference_path = "perfbench/reference.txt";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run hands back to main: operation counts and named metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);
};

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Quantile q in [0, 1], interpolated linearly between order statistics.
double quantile(std::vector<double> v, double q);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, at percentile 100·(n−10)/n. With fewer than 11 samples
/// the maximum is reported (beyond = 0).
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> v);
std::string describe_tail(const Tail& t, const char* unit);

/// A measured series is cut into this many consecutive, equal-count slices
/// (equal-time for a fixed-rate schedule), and a bounded figure is the median
/// of its per-slice values: host interference that spoils one or two slices
/// of a run, such as a burst of vCPU steal, then does not move it.
constexpr std::size_t kSlices = 5;

/// The median over the kSlices slices of `v` (in time order) of stat(slice).
template <typename F>
double median_of_slices(const std::vector<double>& v, F&& stat) {
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < kSlices; ++s) {
    std::vector<double> slice(v.begin() + static_cast<std::ptrdiff_t>(v.size() * s / kSlices),
                              v.begin() + static_cast<std::ptrdiff_t>(v.size() * (s + 1) / kSlices));
    if (!slice.empty()) per_slice.push_back(stat(slice));
  }
  return median(per_slice);
}

/// Set-ups per run: setup_s is their median, since one set-up is a single
/// solve or server start and reads as noisily as one solve does.
constexpr int kSetupReps = 5;

/// Median wall time of kSetupReps calls of a set-up function, in seconds.
template <typename F>
double median_setup_s(F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < kSetupReps; ++i) {
    double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// FNV-1a over the rendered polynomials: the reference digest of a basis.
std::uint64_t basis_digest(const gbd::PolyContext& ctx, const std::vector<gbd::Polynomial>& basis);
std::string hex64(std::uint64_t v);

/// Reference digests stored with the benchmark ("<key> <hex>" lines).
std::string lookup_reference(const std::string& path, const std::string& key);

double peak_rss_mb();

/// Per-op kernel counters (kernel.matrix.*, kernel.simd.*, kernel.find_reducer.*,
/// kernel.geobucket.*) from a registry that collected `ops` operations.
void report_kernel_layer(const gbd::MetricsSnapshot& snap, double ops, Report* out);

/// The fixed replay batch of the poly layer: s-polynomials of (up to 48)
/// pairs of `reduced`, timed through spoly, symbolic_preprocess,
/// build_matrix, echelon_reduce and reduce_full. Reports poly.*_us medians.
void report_poly_replay(const gbd::PolyContext& ctx, const std::vector<gbd::Polynomial>& reduced,
                        const gbd::CoeffOptions& coeff, Report* out);

void run_solve_zp(const Options& opt, Report* out);
void run_serve_mix(const Options& opt, Report* out);

/// Recompute the reference digests (per-poly oracle, no matrix path) and
/// print them in reference-file format.
int write_reference();

}  // namespace perfbench
