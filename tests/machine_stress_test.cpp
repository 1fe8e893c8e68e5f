// Stress and property tests for the virtual machine: message storms, big
// payloads, determinism under load, and cost-model arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "machine/cost_model.hpp"
#include "machine/sim_machine.hpp"
#include "machine/thread_machine.hpp"
#include "support/cost.hpp"
#include "support/rng.hpp"

namespace gbd {
namespace {

enum Handlers : HandlerId { kWork = 0, kStop = 1 };

TEST(CostModelTest, WireTimeArithmetic) {
  CostModel cm;
  cm.latency = 100;
  cm.units_per_16_bytes = 8;
  EXPECT_EQ(cm.wire_time(0), 100u);
  EXPECT_EQ(cm.wire_time(1), 108u);
  EXPECT_EQ(cm.wire_time(16), 108u);
  EXPECT_EQ(cm.wire_time(17), 116u);
  EXPECT_EQ(cm.wire_time(160), 180u);
  CostModel free = CostModel::free();
  EXPECT_EQ(free.wire_time(100000), 0u);
  EXPECT_EQ(free.dispatch, 0u);
}

// Random storm: every processor fires pseudo-random messages at random
// destinations for a fixed number of rounds; the run must terminate and be
// bit-identical across repetitions (SimMachine).
std::vector<std::uint64_t> storm_run(int procs, std::uint64_t seed, int rounds) {
  SimMachine m(procs);
  std::vector<std::uint64_t> digest(static_cast<std::size_t>(procs), 0);
  auto stats = m.run_sim([&](Proc& self) {
    Rng rng(seed + static_cast<std::uint64_t>(self.id()) * 1000003);
    int remaining = rounds;
    std::uint64_t& mine = digest[static_cast<std::size_t>(self.id())];
    self.on(kWork, [&](Proc& p, int src, Reader& r) {
      std::uint64_t v = r.u64();
      mine = mine * 31 + v + static_cast<std::uint64_t>(src);
      CostCounter::charge(v % 257);
      if (remaining > 0) {
        --remaining;
        Writer w;
        w.u64(rng.next() % 1000);
        p.send(static_cast<int>(rng.below(static_cast<std::uint64_t>(p.nprocs()))), kWork,
               w.take());
      }
    });
    // Kick off a few messages.
    for (int k = 0; k < 3; ++k) {
      Writer w;
      w.u64(rng.next() % 1000);
      self.send(static_cast<int>(rng.below(static_cast<std::uint64_t>(self.nprocs()))), kWork,
                w.take());
    }
    while (self.wait()) {
    }
  });
  digest.push_back(stats.makespan);
  return digest;
}

TEST(SimStressTest, MessageStormDeterministic) {
  auto a = storm_run(6, 99, 50);
  auto b = storm_run(6, 99, 50);
  EXPECT_EQ(a, b);
  auto c = storm_run(6, 100, 50);
  EXPECT_NE(a, c);  // different seed, different run
}

TEST(SimStressTest, LargePayloadsSurvive) {
  SimMachine m(2);
  std::size_t got = 0;
  m.run([&](Proc& self) {
    self.on(kWork, [&](Proc&, int, Reader& r) { got = r.str().size(); });
    if (self.id() == 0) {
      Writer w;
      w.str(std::string(1 << 20, 'x'));
      self.send(1, kWork, w.take());
    } else {
      while (self.wait()) {
      }
    }
  });
  EXPECT_EQ(got, static_cast<std::size_t>(1 << 20));
}

TEST(SimStressTest, BandwidthChargesForBigMessages) {
  CostModel cm;
  cm.latency = 10;
  cm.units_per_16_bytes = 4;
  cm.dispatch = 0;
  cm.inject = 0;
  SimMachine m(2, cm);
  std::uint64_t recv_at = 0;
  m.run_sim([&](Proc& self) {
    self.on(kWork, [&](Proc& p, int, Reader&) { recv_at = p.now(); });
    if (self.id() == 0) {
      self.send(1, kWork, std::vector<std::uint8_t>(1600));
    } else {
      while (self.wait()) {
      }
    }
  });
  EXPECT_EQ(recv_at, 10u + 4u * 100u);
}

TEST(ThreadStressTest, ManyMessagesAllDelivered) {
  const int kP = 4;
  const int kEach = 500;
  ThreadMachine m(kP);
  std::atomic<int> received{0};
  m.run([&](Proc& self) {
    self.on(kWork, [&](Proc&, int, Reader&) { received.fetch_add(1); });
    for (int k = 0; k < kEach; ++k) {
      self.send((self.id() + 1 + k) % kP, kWork, {});
    }
    while (self.wait()) {
    }
  });
  EXPECT_EQ(received.load(), kP * kEach);
}

TEST(ThreadStressTest, PingPongChainsUnderRealConcurrency) {
  const int kP = 3;
  ThreadMachine m(kP);
  std::atomic<int> hops{0};
  m.run([&](Proc& self) {
    self.on(kWork, [&](Proc& p, int, Reader& r) {
      std::uint64_t left = r.u64();
      hops.fetch_add(1);
      if (left > 0) {
        Writer w;
        w.u64(left - 1);
        p.send((p.id() + 1) % kP, kWork, w.take());
      }
    });
    if (self.id() == 0) {
      Writer w;
      w.u64(300);
      self.send(1, kWork, w.take());
    }
    while (self.wait()) {
    }
  });
  EXPECT_EQ(hops.load(), 301);
}

TEST(ThreadStressTest, MultiProducerMailboxThroughputAndOrdering) {
  // Every other processor floods processor 0's mailbox concurrently with a
  // per-source sequence number. The machine contract is FIFO per (src, dst):
  // each producer's stream must arrive in order; interleaving across
  // producers is free. Also exercises the drain path's slab swapping under
  // real contention and checks the PR-3 mailbox counters add up.
  const int kP = 8;
  const int kEach = 2000;
  ThreadMachine m(kP);
  std::vector<std::uint64_t> next_expected(kP, 0);
  std::uint64_t received = 0;  // proc 0 only — no lock needed
  MachineStats stats = m.run([&](Proc& self) {
    self.on(kWork, [&](Proc&, int src, Reader& r) {
      std::uint64_t seq = r.u64();
      ASSERT_EQ(seq, next_expected[static_cast<std::size_t>(src)]) << "src " << src;
      next_expected[static_cast<std::size_t>(src)] = seq + 1;
      ++received;
    });
    if (self.id() != 0) {
      for (int k = 0; k < kEach; ++k) {
        Writer w;
        w.u64(static_cast<std::uint64_t>(k));
        self.send(0, kWork, w.take());
      }
    }
    while (self.wait()) {
    }
  });
  EXPECT_EQ(received, static_cast<std::uint64_t>((kP - 1) * kEach));
  ASSERT_EQ(stats.mailbox.size(), static_cast<std::size_t>(kP));
  const MailboxStats& mb0 = stats.mailbox[0];
  EXPECT_EQ(mb0.enqueues, static_cast<std::uint64_t>((kP - 1) * kEach));
  EXPECT_EQ(mb0.drained_messages, mb0.enqueues);
  EXPECT_GE(mb0.max_drain_batch, 1u);
  EXPECT_LE(mb0.notifies, mb0.enqueues);
}

TEST(ThreadStressTest, RegistrationBarrierBlocksCrossProcDispatch) {
  // Regression for the handler-registration race: processor 0 fires at
  // processor 1 immediately, while processor 1 dawdles before registering.
  // The machine-wide barrier must hold 0's send until 1's registration is
  // complete — otherwise the dispatch aborts on an unknown handler id.
  const int kP = 2;
  for (int round = 0; round < 20; ++round) {
    ThreadMachine m(kP);
    std::atomic<int> got{0};
    m.run([&](Proc& self) {
      if (self.id() == 0) {
        self.on(kWork, [](Proc&, int, Reader&) {});
        self.send(1, kWork, {});  // first comm call: blocks on the barrier
      } else {
        // Not a comm call, so the barrier is still open while we stall.
        std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
        self.on(kWork, [&](Proc&, int, Reader&) { got.fetch_add(1); });
      }
      while (self.wait()) {
      }
    });
    ASSERT_EQ(got.load(), 1) << "round " << round;
  }
}

TEST(ThreadStressTest, WorkersThatNeverCommunicateStillQuiesce) {
  // A worker may return without ever sending or waiting; the barrier and
  // the quiescence count must both account for it.
  ThreadMachine m(4);
  std::atomic<int> got{0};
  m.run([&](Proc& self) {
    if (self.id() == 3) return;  // registers nothing, communicates never
    self.on(kWork, [&](Proc&, int, Reader&) { got.fetch_add(1); });
    if (self.id() == 0) self.send(1, kWork, {});
    while (self.wait()) {
    }
  });
  EXPECT_EQ(got.load(), 1);
}

TEST(ThreadStressTest, AllToAllStormQuiescesWithConservedCounters) {
  // Random all-to-all storm on real threads: echo chains with decreasing
  // TTL. Checks global quiescence under the atomic in-flight counter and
  // that sender-side enqueues equal owner-side drains on every mailbox.
  const int kP = 6;
  ThreadMachine m(kP);
  std::atomic<std::uint64_t> delivered{0};
  MachineStats stats = m.run([&](Proc& self) {
    Rng rng(static_cast<std::uint64_t>(self.id()) * 7919 + 1);
    self.on(kWork, [&](Proc& p, int, Reader& r) {
      std::uint64_t ttl = r.u64();
      delivered.fetch_add(1);
      if (ttl > 0) {
        Writer w;
        w.u64(ttl - 1);
        p.send(static_cast<int>(rng.below(kP)), kWork, w.take());
      }
    });
    for (int k = 0; k < 20; ++k) {
      Writer w;
      w.u64(rng.next() % 30);
      self.send(static_cast<int>(rng.below(kP)), kWork, w.take());
    }
    while (self.wait()) {
    }
  });
  std::uint64_t enqueued = 0, drained = 0;
  for (const MailboxStats& mb : stats.mailbox) {
    enqueued += mb.enqueues;
    drained += mb.drained_messages;
  }
  const std::uint64_t sent = stats.total(&ProcCommStats::messages_sent);
  EXPECT_EQ(delivered.load(), sent);
  EXPECT_EQ(enqueued, sent);
  EXPECT_EQ(drained, sent);
}

TEST(SimStressTest, ManyProcessorsQuiesce) {
  // 64 simulated processors — well past the CM-5 partition sizes the paper
  // used — start, exchange one round, and shut down cleanly.
  const int kP = 64;
  SimMachine m(kP);
  std::atomic<int> done{0};
  m.run([&](Proc& self) {
    self.on(kWork, [](Proc&, int, Reader&) {});
    self.send((self.id() + 1) % kP, kWork, {});
    while (self.wait()) {
    }
    ++done;
  });
  EXPECT_EQ(done.load(), kP);
}

}  // namespace
}  // namespace gbd
