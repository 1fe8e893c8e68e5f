// Tests for the replicated basis: invalidation/ack, shadow sets, validation
// via tree-routed fetches, and the coordinator lock.
#include "basis/replicated_basis.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "io/parse.hpp"
#include "machine/sim_machine.hpp"
#include "machine/thread_machine.hpp"
#include "basis_helpers.hpp"

namespace gbd {
namespace {

PolyContext ctx3() { return PolyContext{{"x", "y", "z"}, OrderKind::kGrLex}; }

std::unique_ptr<Machine> make_machine(bool sim, int p) {
  if (sim) return std::make_unique<SimMachine>(p);
  return std::make_unique<ThreadMachine>(p);
}

TEST(PolyIdTest, PackUnpack) {
  PolyId id = make_poly_id(7, 12345);
  EXPECT_EQ(poly_id_owner(id), 7);
  EXPECT_EQ(poly_id_seq(id), 12345u);
  EXPECT_EQ(make_poly_id(0, 0), 0u);
}

class BasisTest : public ::testing::TestWithParam<bool> {
 protected:
  bool sim() const { return GetParam(); }
};

TEST_P(BasisTest, PreloadVisibleEverywhere) {
  auto m = make_machine(sim(), 3);
  PolyContext c = ctx3();
  Polynomial f = parse_poly_or_die(c, "x^2 - y");
  std::atomic<int> ok{0};
  m->run([&](Proc& self) {
    ReplicatedBasis basis(self);
    basis.preload(make_poly_id(0, 0), f);
    EXPECT_TRUE(basis.valid());
    EXPECT_EQ(basis.replica_size(), 1u);
    const Polynomial* p = basis.find(make_poly_id(0, 0));
    ASSERT_NE(p, nullptr);
    if (p->equals(f)) ++ok;
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST_P(BasisTest, AddInvalidatesOthersAndAcks) {
  auto m = make_machine(sim(), 4);
  PolyContext c = ctx3();
  Polynomial g = parse_poly_or_die(c, "x*y - z");
  std::atomic<int> shadowed{0};
  m->run([&](Proc& self) {
    ReplicatedBasis basis(self);
    if (self.id() == 2) {
      PolyId id = add_one(basis, g);
      EXPECT_EQ(poly_id_owner(id), 2);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      EXPECT_TRUE(basis.valid());  // the adder's own replica is never stale
    } else {
      // Serve protocol until the machine quiesces.
      while (self.wait()) {
      }
      EXPECT_EQ(basis.shadow_size(), 1u);
      EXPECT_FALSE(basis.valid());
      if (basis.find(make_poly_id(2, 0)) == nullptr) ++shadowed;
    }
  });
  EXPECT_EQ(shadowed.load(), 3);
}

TEST_P(BasisTest, ValidateFetchesBodies) {
  const int kP = 5;
  auto m = make_machine(sim(), kP);
  PolyContext c = ctx3();
  Polynomial g = parse_poly_or_die(c, "x^3 + 2*y*z - 1");
  std::atomic<int> validated{0};
  m->run([&](Proc& self) {
    ReplicatedBasis basis(self);
    if (self.id() == 0) {
      add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      while (self.wait()) {
      }
    } else {
      // Wait for the invalidation to arrive.
      while (basis.shadow_size() == 0) {
        ASSERT_TRUE(self.wait());
      }
      basis.begin_validate();
      while (!basis.valid()) {
        ASSERT_TRUE(self.wait());
      }
      const Polynomial* p = basis.find(make_poly_id(0, 0));
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(p->equals(g));
      ++validated;
      while (self.wait()) {
      }
    }
  });
  EXPECT_EQ(validated.load(), kP - 1);
}

TEST_P(BasisTest, ReducerSetSeesLocalReplicaOnly) {
  auto m = make_machine(sim(), 2);
  PolyContext c = ctx3();
  Polynomial f = parse_poly_or_die(c, "x^2 - y");
  Polynomial g = parse_poly_or_die(c, "y^2 - z");
  m->run([&](Proc& self) {
    ReplicatedBasis basis(self);
    basis.preload(make_poly_id(0, 100), f);
    if (self.id() == 1) {
      add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      // Local replica has both: y^2 reducible.
      std::uint64_t id = 0;
      const Polynomial* r = basis.reducer_set().find_reducer(Monomial({0, 2, 0}), &id);
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(id, make_poly_id(1, 0));
      while (self.wait()) {
      }
    } else {
      while (self.wait()) {
      }
      // Proc 0 never validated: y^2 must be irreducible against its replica,
      // x^2*z reducible via the preloaded f.
      EXPECT_EQ(basis.reducer_set().find_reducer(Monomial({0, 2, 0}), nullptr), nullptr);
      EXPECT_NE(basis.reducer_set().find_reducer(Monomial({2, 0, 1}), nullptr), nullptr);
    }
  });
}

TEST_P(BasisTest, InvalidateHookFires) {
  auto m = make_machine(sim(), 2);
  PolyContext c = ctx3();
  Polynomial g = parse_poly_or_die(c, "z^4 - 1");
  std::atomic<int> hook_calls{0};
  m->run([&](Proc& self) {
    ReplicatedBasis basis(self);
    basis.set_invalidate_hook([&](PolyId id) {
      EXPECT_EQ(poly_id_owner(id), 0);
      ++hook_calls;
    });
    if (self.id() == 0) {
      add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
    } else {
      while (self.wait()) {
      }
    }
  });
  EXPECT_EQ(hook_calls.load(), 1);
}

TEST_P(BasisTest, ManyAddsFromManyOwners) {
  const int kP = 4;
  auto m = make_machine(sim(), kP);
  PolyContext c = ctx3();
  std::atomic<int> complete{0};
  m->run([&](Proc& self) {
    ReplicatedBasis basis(self);
    // Each processor adds one distinct polynomial, serialized by id order to
    // keep the test simple (the engine uses the lock for this).
    Polynomial mine = parse_poly_or_die(
        c, "x^" + std::to_string(self.id() + 1) + " - " + std::to_string(self.id() + 2));
    for (int turn = 0; turn < kP; ++turn) {
      if (turn == self.id()) {
        add_one(basis, mine);
        while (!basis.add_done()) {
          ASSERT_TRUE(self.wait());
        }
      } else {
        // Validate until this turn's body is resident. begin_validate is
        // re-issued after every wake because a later turn's invalidation can
        // land mid-validation (it dedups in-flight fetches).
        while (basis.replica_size() < static_cast<std::size_t>(turn) + 1) {
          if (!basis.valid()) basis.begin_validate();
          ASSERT_TRUE(self.wait());
        }
      }
    }
    EXPECT_EQ(basis.replica_size(), static_cast<std::size_t>(kP));
    ++complete;
    while (self.wait()) {
    }
  });
  EXPECT_EQ(complete.load(), kP);
}

// ---------------------------------------------------------------------------
// Idempotence of the basis protocol under chaos-mode message duplication and
// reordering (the §4.1.2 operations must tolerate an at-least-once network).

ChaosConfig dup_all_basis(std::uint64_t seed) {
  ChaosConfig chaos;
  chaos.seed = seed;
  chaos.dup_permille = 1000;  // duplicate every basis message
  chaos.dup_safe = {kBaInvalidate, kBaInvAck, kBaFetch, kBaBody};
  return chaos;
}

TEST(ChaosBasisTest, DuplicatedInvalidationBroadcastIsIdempotent) {
  SimMachine m(4, CostModel{}, dup_all_basis(21));
  PolyContext c = ctx3();
  Polynomial g = parse_poly_or_die(c, "x*y^2 - z");
  std::atomic<int> shadow_once{0};
  std::atomic<int> completed{0};
  SimStats stats = m.run_sim([&](Proc& self) {
    ReplicatedBasis basis(self);
    if (self.id() == 0) {
      PolyId id = add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      ASSERT_EQ(basis.completed_adds().size(), 1u);
      EXPECT_EQ(basis.completed_adds()[0], id);
      ++completed;
      while (self.wait()) {
      }
    } else {
      while (self.wait()) {
      }
      // Each victim saw the INVALIDATE twice; Valid? must still report
      // exactly one pending shadow entry, not two.
      if (basis.shadow_size() == 1) ++shadow_once;
    }
  });
  EXPECT_EQ(completed.load(), 1);
  EXPECT_EQ(shadow_once.load(), 3);
  EXPECT_GT(stats.duplicated_messages, 0u);
}

TEST(ChaosBasisTest, DuplicateAcksCountedOncePerProcessor) {
  // Only acks are duplicated: with 3 victims the adder receives 6 acks. The
  // pre-hardening counter would hit zero after the first 3 arrivals even if
  // two came from the same processor; the per-(id, proc) dedup must wait for
  // all three distinct victims and complete the add exactly once.
  ChaosConfig chaos;
  chaos.seed = 9;
  chaos.dup_permille = 1000;
  chaos.dup_safe = {kBaInvAck};
  SimMachine m(4, CostModel{}, chaos);
  PolyContext c = ctx3();
  Polynomial g = parse_poly_or_die(c, "y^3 - x");
  std::atomic<int> completed{0};
  m.run_sim([&](Proc& self) {
    ReplicatedBasis basis(self);
    if (self.id() == 0) {
      add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      while (self.wait()) {
      }
      completed = static_cast<int>(basis.completed_adds().size());
    } else {
      while (self.wait()) {
      }
    }
  });
  EXPECT_EQ(completed.load(), 1);
}

TEST(ChaosBasisTest, StaleOrForgedAckIsIgnored) {
  // An ack for an id that is not the in-flight add must be dropped, and a
  // later legitimate add must still complete normally.
  SimMachine m(2);
  PolyContext c = ctx3();
  Polynomial g = parse_poly_or_die(c, "z^2 - x*y");
  bool added = false;
  m.run_sim([&](Proc& self) {
    ReplicatedBasis basis(self);
    if (self.id() == 1) {
      Writer w;
      w.u64(make_poly_id(0, 777));  // ack for an add that never happened
      self.send(0, kBaInvAck, w.take());
      while (self.wait()) {
      }
    } else {
      self.poll();
      EXPECT_TRUE(basis.add_done());  // forged ack must not corrupt the idle state
      add_one(basis, g);
      while (!basis.add_done()) {
        ASSERT_TRUE(self.wait());
      }
      added = true;
      while (self.wait()) {
      }
    }
  });
  EXPECT_TRUE(added);
}

TEST(ChaosBasisTest, ReorderedBroadcastsConvergeToIdenticalReplicas) {
  // Several adds under full reordering plus duplication: whatever order the
  // invalidations, fetches and bodies land in, Validate must converge every
  // replica to the same three bodies.
  ChaosConfig chaos = dup_all_basis(33);
  chaos.reorder_permille = 1000;
  chaos.reorder_window = 5000;
  chaos.jitter = 500;
  SimMachine m(3, CostModel{}, chaos);
  PolyContext c = ctx3();
  std::atomic<int> converged{0};
  m.run_sim([&](Proc& self) {
    ReplicatedBasis basis(self);
    std::vector<Polynomial> gs = {parse_poly_or_die(c, "x^2 - y"),
                                  parse_poly_or_die(c, "x*y - z"),
                                  parse_poly_or_die(c, "y^2 - x*z")};
    if (self.id() == 0) {
      for (const Polynomial& g : gs) {
        add_one(basis, g);
        while (!basis.add_done()) {
          ASSERT_TRUE(self.wait());
        }
      }
      while (self.wait()) {
      }
    } else {
      // Keep validating until all three bodies are resident; begin_validate
      // is re-issued on every wake and must be idempotent (in-flight fetches
      // dedup, duplicated bodies overwrite with identical content).
      while (basis.replica_size() < 3) {
        if (!basis.valid()) basis.begin_validate();
        if (!self.wait()) break;
      }
      ASSERT_EQ(basis.replica_size(), 3u);
      EXPECT_TRUE(basis.valid());
      bool all_equal = true;
      for (std::uint32_t s = 0; s < 3; ++s) {
        const Polynomial* p = basis.find(make_poly_id(0, s));
        all_equal = all_equal && p != nullptr && p->equals(gs[s]);
      }
      if (all_equal) ++converged;
      while (self.wait()) {
      }
    }
  });
  EXPECT_EQ(converged.load(), 2);
}

class LockTest : public ::testing::TestWithParam<bool> {
 protected:
  bool sim() const { return GetParam(); }
};

TEST_P(LockTest, MutualExclusionAndFairness) {
  const int kP = 4;
  auto m = make_machine(sim(), kP);
  std::atomic<int> in_critical{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> entries{0};
  m->run([&](Proc& self) {
    if (self.id() == 0) {
      LockManager manager(self);
      LockClient lock(self, 0);
      // The coordinator also competes for the lock.
      lock.request();
      while (!lock.granted()) {
        ASSERT_TRUE(self.wait());
      }
      int now = ++in_critical;
      int prev = max_seen.load();
      while (prev < now && !max_seen.compare_exchange_weak(prev, now)) {
      }
      ++entries;
      --in_critical;
      lock.release();
      while (self.wait()) {
      }
    } else {
      LockClient lock(self, 0);
      for (int round = 0; round < 3; ++round) {
        lock.request();
        while (!lock.granted()) {
          ASSERT_TRUE(self.wait());
        }
        int now = ++in_critical;
        int prev = max_seen.load();
        while (prev < now && !max_seen.compare_exchange_weak(prev, now)) {
        }
        ++entries;
        --in_critical;
        lock.release();
      }
      while (self.wait()) {
      }
    }
  });
  EXPECT_EQ(max_seen.load(), 1) << "two processors were in the critical section at once";
  EXPECT_EQ(entries.load(), 1 + 3 * (kP - 1));
}

INSTANTIATE_TEST_SUITE_P(Impls, BasisTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sim" : "Threads";
                         });
INSTANTIATE_TEST_SUITE_P(Impls, LockTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sim" : "Threads";
                         });

}  // namespace
}  // namespace gbd
