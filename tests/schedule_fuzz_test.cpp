// Schedule fuzzing for the GL-P engine: sweep seeds × processor counts ×
// chaos intensities × basis protocols (per-id or batched adds; replicated
// or hybrid store) over a small problem, assert (a) the chaotic parallel
// run still produces the sequential reduced basis and (b) every protocol
// invariant held on every sweep. A failing configuration is shrunk to a
// minimal replay string before being reported, so a red run in CI is
// directly re-runnable (see DESIGN.md "Determinism & chaos testing").
//
// GBD_FUZZ_SEEDS overrides the seeds-per-cell count (default 64); CI's
// smoke matrix runs with GBD_FUZZ_SEEDS=32.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"

namespace gbd {
namespace {

constexpr const char* kProblem = "arnborg4";

int seeds_per_cell() {
  const char* env = std::getenv("GBD_FUZZ_SEEDS");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 64;
}

const PolySystem& problem() {
  static const PolySystem sys = load_problem(kProblem);
  return sys;
}

const std::vector<Polynomial>& reference() {
  static const std::vector<Polynomial> ref =
      reduce_basis(problem().ctx, groebner_sequential(problem()).basis);
  return ref;
}

/// The basis protocol × store a run uses: per-id or batched adds (the wire
/// format and round size of the replicated store), over the replicated or
/// the hybrid store (which always speaks per-id).
struct Variant {
  bool batched = false;
  bool hybrid = false;
  std::string name() const {
    return std::string("protocol=") + (batched ? "batched" : "per-id") +
           ";store=" + (hybrid ? "hybrid" : "replicated");
  }
};

ParallelResult run_chaos(const Variant& variant, int nprocs, const ChaosConfig& chaos) {
  ParallelConfig cfg;
  cfg.nprocs = nprocs;
  cfg.wire.batch_invalidations = variant.batched;
  cfg.wire.batch_fetches = variant.batched;
  if (variant.hybrid) cfg.basis_mode = BasisMode::kHybrid;
  cfg.seed = chaos.seed + 1;  // also perturb initial pair placement
  cfg.chaos = chaos;
  cfg.check_invariants = true;
  cfg.invariant_period = 64;
  return groebner_parallel(problem(), cfg);
}

std::string replay_string(const Variant& variant, int nprocs, const ChaosConfig& chaos) {
  return std::string("problem=") + kProblem + ";nprocs=" + std::to_string(nprocs) +
         ";" + variant.name() + ";" + chaos.encode();
}

/// "" when the run is healthy, else a description of what broke.
std::string failure_reason(const Variant& variant, int nprocs, const ChaosConfig& chaos) {
  ParallelResult res = run_chaos(variant, nprocs, chaos);
  if (!res.violations.empty()) return "invariant violated: " + res.violations.front();
  std::vector<Polynomial> red = reduce_basis(problem().ctx, res.basis);
  if (red.size() != reference().size()) {
    return "reduced basis size " + std::to_string(red.size()) + " != " +
           std::to_string(reference().size());
  }
  for (std::size_t i = 0; i < red.size(); ++i) {
    if (!red[i].equals(reference()[i])) {
      return "reduced basis element " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// Greedy 1-minimal shrink of a failing configuration: try zeroing each chaos
/// knob and halving the processor count, keeping every simplification that
/// still fails. Returns the minimal replay string.
std::string shrink(const Variant& variant, int nprocs, ChaosConfig chaos) {
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<ChaosConfig> candidates;
    if (chaos.jitter != 0) {
      ChaosConfig c = chaos;
      c.jitter = 0;
      candidates.push_back(c);
    }
    if (chaos.reorder_permille != 0) {
      ChaosConfig c = chaos;
      c.reorder_permille = 0;
      c.reorder_window = 0;
      candidates.push_back(c);
    }
    if (chaos.dup_permille != 0) {
      ChaosConfig c = chaos;
      c.dup_permille = 0;
      c.dup_safe.clear();
      candidates.push_back(c);
    }
    if (chaos.starve_permille != 0) {
      ChaosConfig c = chaos;
      c.starve_permille = 0;
      c.starve_factor = 1;
      candidates.push_back(c);
    }
    for (const ChaosConfig& c : candidates) {
      if (!failure_reason(variant, nprocs, c).empty()) {
        chaos = c;
        progress = true;
        break;
      }
    }
    if (!progress && nprocs > 2 && !failure_reason(variant, nprocs / 2, chaos).empty()) {
      nprocs /= 2;
      progress = true;
    }
  }
  return replay_string(variant, nprocs, chaos);
}

// ---------------------------------------------------------------------------
// The matrix: seeds × {2, 4, 8} processors, one test per intensity level and
// protocol so a failure pinpoints the regime. The hybrid store ignores wire
// batching, so it runs per-id only.

struct FuzzCell {
  int level;
  Variant variant;
};

void PrintTo(const FuzzCell& c, std::ostream* os) {
  *os << "level " << c.level << ", " << (c.variant.batched ? "batched" : "per-id") << ", "
      << (c.variant.hybrid ? "hybrid" : "replicated");
}

std::vector<FuzzCell> fuzz_cells() {
  std::vector<FuzzCell> cells;
  for (int level : {1, 2, 3}) {
    cells.push_back({level, Variant{false, false}});
    cells.push_back({level, Variant{true, false}});
    cells.push_back({level, Variant{false, true}});
  }
  return cells;
}

class FuzzMatrixTest : public ::testing::TestWithParam<FuzzCell> {};

TEST_P(FuzzMatrixTest, ChaoticSchedulesPreserveBasisAndInvariants) {
  const FuzzCell& cell = GetParam();
  const int seeds = seeds_per_cell();
  for (int nprocs : {2, 4, 8}) {
    for (int s = 0; s < seeds; ++s) {
      std::uint64_t seed = 0x5EED0000u + static_cast<std::uint64_t>(s);
      ChaosConfig chaos = ChaosConfig::intensity(cell.level, seed);
      std::string why = failure_reason(cell.variant, nprocs, chaos);
      if (!why.empty()) {
        ADD_FAILURE() << why << "\n  failing config: " << replay_string(cell.variant, nprocs, chaos)
                      << "\n  shrunk to:      " << shrink(cell.variant, nprocs, chaos);
        return;  // one reproducer per regime is enough signal
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Intensity, FuzzMatrixTest, ::testing::ValuesIn(fuzz_cells()),
                         [](const ::testing::TestParamInfo<FuzzCell>& info) {
                           const Variant& v = info.param.variant;
                           return "Level" + std::to_string(info.param.level) +
                                  (v.batched ? "_Batched" : "_PerId") +
                                  (v.hybrid ? "_Hybrid" : "_Replicated");
                         });

// ---------------------------------------------------------------------------
// Pinned reproducers (arnborg4, P=2, seed = chaos seed + 1), both found by
// the matrix above.

TEST(FuzzRegressionTest, BatchedRoundMembersCountAsWork) {
  // Members of a batched add round once left Idle?'s view before their
  // pairs existed, so termination was announced in the middle of an add.
  const Variant batched{true, false};
  EXPECT_EQ(failure_reason(batched, 2,
                           ChaosConfig::decode("chaos:v1;seed=1592590354;jit=400;rp=100;rw=2000")),
            "");
}

TEST(FuzzRegressionTest, HybridAcksAreIdempotent) {
  // The hybrid store's acks once carried no id and were counted blindly, so
  // a duplicated ack aborted the run ("unexpected invalidation ack").
  const Variant hybrid{false, true};
  EXPECT_EQ(failure_reason(hybrid, 2,
                           ChaosConfig::decode("chaos:v1;seed=1592590338;jit=800;rp=200;rw=4000;"
                                               "dp=100;sp=250;sf=3")),
            "");
}

// ---------------------------------------------------------------------------
// Replayability: the replay string alone reproduces a run bit-for-bit.

TEST(FuzzReplayTest, ReplayStringReproducesRunExactly) {
  ChaosConfig chaos = ChaosConfig::intensity(3, 0xC0FFEE);
  ParallelResult a = run_chaos(Variant{}, 4, chaos);
  ParallelResult b = run_chaos(Variant{}, 4, ChaosConfig::decode(chaos.encode()));
  EXPECT_EQ(a.machine.makespan, b.machine.makespan);
  EXPECT_EQ(a.machine.duplicated_messages, b.machine.duplicated_messages);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_EQ(a.basis_ids.size(), b.basis_ids.size());
  for (std::size_t i = 0; i < a.basis_ids.size(); ++i) {
    EXPECT_EQ(a.basis_ids[i].first, b.basis_ids[i].first);
    EXPECT_TRUE(a.basis_ids[i].second.equals(b.basis_ids[i].second));
  }
}

TEST(FuzzReplayTest, SweepsActuallyRan) {
  ParallelResult res = run_chaos(Variant{}, 4, ChaosConfig::intensity(2, 7));
  // The monitor must have swept periodically plus once at quiescence;
  // a zero here would mean the harness silently checked nothing.
  EXPECT_GE(res.invariant_sweeps, 2u);
  EXPECT_TRUE(res.violations.empty());
}

// ---------------------------------------------------------------------------
// Checker validation: a deliberately injected protocol bug — a processor
// acks an INVALIDATE but drops the apply (ack-before-apply lost update) —
// must be caught by the coherence checker, with a replayable seed.

TEST(InjectedFaultTest, DroppedInvalidationIsCaughtByCoherenceChecker) {
  int caught = 0;
  std::string first_reproducer;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.fault_drop_invalidate_permille = 500;
    ParallelResult res = run_chaos(Variant{}, 4, chaos);
    bool coherence = false;
    for (const std::string& v : res.violations) {
      if (v.find("basis-coherence") != std::string::npos) coherence = true;
    }
    if (coherence) {
      ++caught;
      if (first_reproducer.empty()) first_reproducer = replay_string(Variant{}, 4, chaos);
    }
  }
  EXPECT_GE(caught, 3) << "coherence checker missed the injected lost-update bug";
  ASSERT_FALSE(first_reproducer.empty());
  // The reproducer replays to the same violation.
  std::size_t semi = first_reproducer.rfind("chaos:v1");
  ASSERT_NE(semi, std::string::npos);
  ChaosConfig replay = ChaosConfig::decode(first_reproducer.substr(semi));
  ParallelResult again = run_chaos(Variant{}, 4, replay);
  bool coherence_again = false;
  for (const std::string& v : again.violations) {
    if (v.find("basis-coherence") != std::string::npos) coherence_again = true;
  }
  EXPECT_TRUE(coherence_again);
}

TEST(InjectedFaultTest, ShrinkStripsIrrelevantChaos) {
  // Start from the fault plus full schedule chaos; the fault alone explains
  // the failure, so shrinking must discard every schedule knob.
  ChaosConfig chaos = ChaosConfig::intensity(3, 2);
  chaos.fault_drop_invalidate_permille = 500;
  ASSERT_FALSE(failure_reason(Variant{}, 4, chaos).empty()) << "fault did not trigger at this seed";
  std::string minimal = shrink(Variant{}, 4, chaos);
  EXPECT_NE(minimal.find("fdi=500"), std::string::npos) << minimal;
  EXPECT_EQ(minimal.find("jit="), std::string::npos) << minimal;
  EXPECT_EQ(minimal.find("rp="), std::string::npos) << minimal;
  EXPECT_EQ(minimal.find("dp="), std::string::npos) << minimal;
  EXPECT_EQ(minimal.find("sp="), std::string::npos) << minimal;
}

}  // namespace
}  // namespace gbd
