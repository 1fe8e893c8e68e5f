// Larger-topology coverage: tree-routed fetches across a 16-processor ring
// (multi-hop forwarding paths), hybrid stores at machine sizes past the
// paper's partitions, and virtual-time properties of long chains.
#include <gtest/gtest.h>

#include "basis/replicated_basis.hpp"
#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "io/parse.hpp"
#include "machine/sim_machine.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "basis_helpers.hpp"

namespace gbd {
namespace {

TEST(DeepTopologyTest, TreeFetchForwardsAcrossMultipleHops) {
  // P = 16, owner = 0: the fetch tree is four levels deep. A leaf-distance
  // processor's fetch must route up through intermediates, each of which
  // caches the body and can serve later requests.
  const int kP = 16;
  SimMachine m(kP);
  PolyContext ctx{{"x", "y"}, OrderKind::kGrLex};
  Polynomial g = parse_poly_or_die(ctx, "x^4 - y + 3");
  std::vector<std::uint64_t> fetches(kP, 0), serves(kP, 0);
  m.run([&](Proc& self) {
    ReplicatedBasis basis(self);
    if (self.id() == 0) {
      add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      while (self.wait()) {
      }
    } else {
      while (basis.shadow_size() == 0) {
        ASSERT_TRUE(self.wait());
      }
      while (!basis.valid()) {
        basis.begin_validate();
        ASSERT_TRUE(self.wait());
      }
      const Polynomial* p = basis.find(make_poly_id(0, 0));
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(p->equals(g));
      while (self.wait()) {
      }
    }
    fetches[static_cast<std::size_t>(self.id())] = basis.stats().fetches_sent;
    serves[static_cast<std::size_t>(self.id())] =
        basis.stats().bodies_served + basis.stats().bodies_forwarded;
  });
  // Load balancing: the owner must NOT have served all 15 bodies itself —
  // the tree spreads distribution across intermediate nodes.
  EXPECT_LT(serves[0], 15u);
  std::uint64_t intermediate_serves = 0;
  for (int p = 1; p < kP; ++p) intermediate_serves += serves[static_cast<std::size_t>(p)];
  EXPECT_GT(intermediate_serves, 0u);
}

TEST(DeepTopologyTest, EngineAt32Processors) {
  PolySystem sys = load_problem("trinks2");
  std::vector<Polynomial> ref = reduce_basis(sys.ctx, groebner_sequential(sys).basis);
  ParallelConfig cfg;
  cfg.nprocs = 32;
  ParallelResult res = groebner_parallel(sys, cfg);
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), ref.size());
  for (std::size_t i = 0; i < red.size(); ++i) {
    EXPECT_TRUE(red[i].equals(ref[i])) << i;
  }
}

TEST(DeepTopologyTest, HybridAt16WithTinyCache) {
  PolySystem sys = load_problem("trinks2");
  std::vector<Polynomial> ref = reduce_basis(sys.ctx, groebner_sequential(sys).basis);
  ParallelConfig cfg;
  cfg.nprocs = 16;
  cfg.basis_mode = BasisMode::kHybrid;
  cfg.hybrid_homes = 2;
  cfg.hybrid_cache_capacity = 4;
  ParallelResult res = groebner_parallel(sys, cfg);
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), ref.size());
  for (std::size_t i = 0; i < red.size(); ++i) {
    EXPECT_TRUE(red[i].equals(ref[i])) << i;
  }
  // The memory bound really bit: no processor held the whole basis.
  EXPECT_LT(res.wire.max_resident, res.basis.size());
}

TEST(DeepTopologyTest, VirtualTimeMonotoneAlongMessageChains) {
  // now() observed in a chain of handlers must be nondecreasing along the
  // causal chain even when the chain zig-zags between processors.
  const int kP = 8;
  SimMachine m(kP);
  std::vector<std::uint64_t> stamps;
  m.run([&](Proc& self) {
    self.on(0, [&](Proc& p, int, Reader& r) {
      std::uint64_t hop = r.u64();
      stamps.push_back(p.now());
      if (hop < 20) {
        Writer w;
        w.u64(hop + 1);
        p.send(static_cast<int>((hop * 5 + 3) % kP), 0, w.take());
      }
    });
    if (self.id() == 0) {
      Writer w;
      w.u64(0);
      self.send(3, 0, w.take());
    }
    while (self.wait()) {
    }
  });
  ASSERT_EQ(stamps.size(), 21u);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_GE(stamps[i], stamps[i - 1]) << "hop " << i;
  }
}

TEST(DeepTopologyTest, ReservedCoordinatorAtScale) {
  PolySystem sys = load_problem("arnborg4");
  std::vector<Polynomial> ref = reduce_basis(sys.ctx, groebner_sequential(sys).basis);
  ParallelConfig cfg;
  cfg.nprocs = 12;
  cfg.reserve_coordinator = true;
  cfg.taskq.termination = Termination::kTokenRing;
  ParallelResult res = groebner_parallel(sys, cfg);
  std::vector<Polynomial> red = reduce_basis(sys.ctx, res.basis);
  ASSERT_EQ(red.size(), ref.size());
  for (std::size_t i = 0; i < red.size(); ++i) {
    EXPECT_TRUE(red[i].equals(ref[i])) << i;
  }
}

}  // namespace
}  // namespace gbd
