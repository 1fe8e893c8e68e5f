// Tests for the hybrid replicate/partition basis (§7's space-time
// continuum): correctness across the whole (homes, cache) grid, the memory
// bound, home-placement invariants, and the trade-off's direction.
#include "basis/hybrid_basis.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "machine/sim_machine.hpp"
#include "obs/metrics.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "basis_helpers.hpp"

namespace gbd {
namespace {

std::vector<Polynomial> reduced_reference(const PolySystem& sys) {
  return reduce_basis(sys.ctx, groebner_sequential(sys).basis);
}

TEST(HybridBasisTest, HomeAssignmentIsContiguousFromOwner) {
  SimMachine m(6);
  m.run([&](Proc& self) {
    HybridConfig cfg;
    cfg.homes = 3;
    HybridBasis basis(self, cfg);
    PolyId id = make_poly_id(4, 0);  // owner 4 => homes 4,5,0
    bool home = self.id() == 4 || self.id() == 5 || self.id() == 0;
    EXPECT_EQ(basis.is_home(id), home) << "proc " << self.id();
  });
}

TEST(HybridBasisTest, HomesClampedToMachineSize) {
  SimMachine m(2);
  m.run([&](Proc& self) {
    HybridConfig cfg;
    cfg.homes = 99;
    HybridBasis basis(self, cfg);
    EXPECT_TRUE(basis.is_home(make_poly_id(0, 0)));
    EXPECT_TRUE(basis.is_home(make_poly_id(1, 0)));
  });
}

TEST(HybridBasisTest, AddPushesBodyToHomesOnly) {
  const int kP = 4;
  SimMachine m(kP);
  PolyContext ctx{{"x", "y"}, OrderKind::kGrLex};
  Polynomial g = parse_poly_or_die(ctx, "x^2 - y");
  m.run([&](Proc& self) {
    HybridConfig cfg;
    cfg.homes = 2;
    cfg.cache_capacity = 8;
    HybridBasis basis(self, cfg);
    if (self.id() == 1) {
      add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      while (self.wait()) {
      }
    } else {
      while (self.wait()) {
      }
    }
    PolyId id = make_poly_id(1, 0);
    // Everyone knows the head.
    ASSERT_EQ(basis.known_heads().size(), 1u);
    EXPECT_EQ(basis.known_heads()[0].first, id);
    // Only the homes (1 and 2) hold the body.
    bool home = self.id() == 1 || self.id() == 2;
    EXPECT_EQ(basis.find(id) != nullptr, home) << "proc " << self.id();
    if (!home) {
      EXPECT_NE(basis.pending_reducer(Monomial({2, 0})), 0u);
    }
  });
}

TEST(HybridBasisTest, DuplicateAndStaleAcksAreIgnored) {
  // Every ack is delivered twice. Acks carry their round's token and count
  // once per (round, processor), so each add completes exactly when all
  // three victims have answered, and a duplicate arriving after completion
  // (or during the next round) changes nothing.
  ChaosConfig chaos;
  chaos.seed = 5;
  chaos.dup_permille = 1000;
  chaos.dup_safe = {kBaInvAck};
  SimMachine m(4, CostModel{}, chaos);
  PolyContext ctx{{"x", "y"}, OrderKind::kGrLex};
  std::atomic<int> added{0};
  SimStats stats = m.run_sim([&](Proc& self) {
    HybridBasis basis(self, HybridConfig{});
    if (self.id() == 0) {
      for (int k = 0; k < 3; ++k) {
        add_one(basis, parse_poly_or_die(ctx, "x^" + std::to_string(k + 2) + " - y"));
        while (!basis.add_done()) {
          ASSERT_TRUE(self.wait());
        }
        ++added;
      }
    }
    while (self.wait()) {
    }
    EXPECT_EQ(basis.known_heads().size(), 3u) << "proc " << self.id();
  });
  EXPECT_EQ(added.load(), 3);
  EXPECT_GT(stats.duplicated_messages, 0u);
}

TEST(HybridBasisTest, FetchMaterializesAndEvictionRecycles) {
  const int kP = 3;
  SimMachine m(kP);
  PolyContext ctx{{"x", "y"}, OrderKind::kGrLex};
  m.run([&](Proc& self) {
    HybridConfig cfg;
    cfg.homes = 1;
    cfg.cache_capacity = 4;  // the enforced minimum
    HybridBasis basis(self, cfg);
    // Proc 0 adds six polynomials; proc 2 fetches them all and must evict.
    if (self.id() == 0) {
      for (int k = 0; k < 6; ++k) {
        add_one(basis, parse_poly_or_die(ctx, "x^" + std::to_string(k + 2) + " - y"));
        while (!basis.add_done()) {
          ASSERT_TRUE(self.wait());
        }
      }
      while (self.wait()) {
      }
    } else if (self.id() == 2) {
      while (basis.known_heads().size() < 6) {
        ASSERT_TRUE(self.wait());
      }
      for (int k = 0; k < 6; ++k) {
        PolyId id = make_poly_id(0, static_cast<std::uint32_t>(k));
        basis.prefetch(id);
        while (basis.find(id) == nullptr) {
          basis.prefetch(id);  // eviction can race the loop
          ASSERT_TRUE(self.wait());
        }
      }
      EXPECT_LE(basis.cached_bodies(), 4u);
      EXPECT_GT(basis.stats().evictions, 0u);
      EXPECT_EQ(basis.stats().bodies_received, 6u);
      while (self.wait()) {
      }
    } else {
      while (self.wait()) {
      }
    }
  });
}

class HybridGridTest : public ::testing::TestWithParam<std::pair<int, std::size_t>> {};

TEST_P(HybridGridTest, EngineCorrectAcrossTheContinuum) {
  auto [homes, cache] = GetParam();
  PolySystem sys = load_problem("trinks2");
  std::vector<Polynomial> ref = reduced_reference(sys);
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.basis_mode = BasisMode::kHybrid;
  cfg.hybrid_homes = homes;
  cfg.hybrid_cache_capacity = cache;
  ParallelResult res = groebner_parallel(sys, cfg);
  std::string why;
  ASSERT_TRUE(verify_groebner_result(sys.ctx, sys.polys, res.basis, &why)) << why;
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), ref.size());
  for (std::size_t i = 0; i < red.size(); ++i) {
    EXPECT_TRUE(red[i].equals(ref[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, HybridGridTest,
                         ::testing::Values(std::pair<int, std::size_t>{1, 4},
                                           std::pair<int, std::size_t>{1, 16},
                                           std::pair<int, std::size_t>{2, 4},
                                           std::pair<int, std::size_t>{2, 16},
                                           std::pair<int, std::size_t>{4, 0}),
                         [](const auto& info) {
                           return "homes" + std::to_string(info.param.first) + "cache" +
                                  std::to_string(info.param.second);
                         });

TEST(HybridEngineTest, MemoryBoundHolds) {
  // With homes=1 and cache=c, a processor's residency is bounded by
  // inputs + its own additions + c.
  PolySystem sys = load_problem("trinks2");
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.basis_mode = BasisMode::kHybrid;
  cfg.hybrid_homes = 1;
  cfg.hybrid_cache_capacity = 6;
  MetricsRegistry reg(cfg.nprocs);
  cfg.metrics = &reg;
  ParallelResult res = groebner_parallel(sys, cfg);
  const MetricsSnapshot snap = reg.snapshot();
  const std::vector<std::uint64_t>* resident = snap.find("basis.max_resident");
  ASSERT_NE(resident, nullptr);
  for (int p = 0; p < cfg.nprocs; ++p) {
    const GbStats& s = res.per_proc[static_cast<std::size_t>(p)];
    EXPECT_LE((*resident)[static_cast<std::size_t>(p)], sys.polys.size() + s.basis_added + 6)
        << "proc " << p;
  }
  // Replicated peaks at the whole basis on some processor, strictly more
  // than the hybrid bound when anything was added remotely.
  ParallelConfig full;
  full.nprocs = 4;
  ParallelResult rep = groebner_parallel(sys, full);
  EXPECT_EQ(rep.wire.max_resident, rep.basis.size());
  EXPECT_LT(res.wire.max_resident, rep.wire.max_resident);
}

TEST(HybridEngineTest, TradeoffDirection) {
  // Less memory => more body traffic (the continuum's defining slope).
  PolySystem sys = load_problem("trinks2");
  auto run = [&](BasisMode mode, int homes, std::size_t cache) {
    ParallelConfig cfg;
    cfg.nprocs = 4;
    cfg.basis_mode = mode;
    cfg.hybrid_homes = homes;
    cfg.hybrid_cache_capacity = cache;
    return groebner_parallel(sys, cfg);
  };
  ParallelResult replicated = run(BasisMode::kReplicated, 0, 0);
  ParallelResult tight = run(BasisMode::kHybrid, 1, 4);
  EXPECT_GT(tight.wire.bodies_received, replicated.wire.bodies_received);
  EXPECT_LT(tight.wire.max_resident, replicated.wire.max_resident);
}

TEST(HybridEngineTest, DeterministicPerSeed) {
  PolySystem sys = load_problem("trinks2");
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.basis_mode = BasisMode::kHybrid;
  cfg.hybrid_homes = 2;
  cfg.hybrid_cache_capacity = 8;
  cfg.seed = 5;
  ParallelResult a = groebner_parallel(sys, cfg);
  ParallelResult b = groebner_parallel(sys, cfg);
  EXPECT_EQ(a.machine.makespan, b.machine.makespan);
  EXPECT_EQ(a.wire.bodies_received, b.wire.bodies_received);
}

}  // namespace
}  // namespace gbd
