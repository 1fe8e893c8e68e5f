// Multi-process tests for the socket backend (src/net/).
//
// Every test forks one real OS process per rank on loopback TCP — the same
// shape gbd_launch produces — and asserts on child exit codes. Children
// communicate verdicts only through their exit status (and _exit, never
// exit, so a forked gtest child cannot run the parent's teardown). Each
// test takes a fresh port block (test_ports.hpp), so concurrent ctest
// processes never collide.
#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "gb/verify.hpp"
#include "net/net_engine.hpp"
#include "net/socket_machine.hpp"
#include "net/transport.hpp"
#include "problems/problems.hpp"
#include "support/serialize.hpp"
#include "test_ports.hpp"

namespace gbd {
namespace {

NetConfig make_net(int rank, int nprocs, int base_port) {
  NetConfig cfg;
  cfg.rank = rank;
  cfg.nprocs = nprocs;
  for (int r = 0; r < nprocs; ++r) {
    NetEndpoint ep;
    ep.host = "127.0.0.1";
    ep.port = static_cast<std::uint16_t>(base_port + r);
    cfg.peers.push_back(ep);
  }
  return cfg;
}

/// Fork `nprocs` children, run body(rank) in each, _exit with its return
/// value. Returns per-rank exit codes; 255 means killed/abnormal, 254 means
/// the parent-side deadline expired (children were SIGKILLed).
template <typename Body>
std::vector<int> run_ranks(int nprocs, int timeout_s, Body body) {
  std::vector<pid_t> pids(static_cast<std::size_t>(nprocs), -1);
  for (int r = 0; r < nprocs; ++r) {
    pid_t pid = ::fork();
    if (pid == 0) {
      ::_exit(body(r));
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }
  std::vector<int> codes(static_cast<std::size_t>(nprocs), 254);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  int remaining = nprocs;
  while (remaining > 0) {
    int st = 0;
    pid_t done = ::waitpid(-1, &st, WNOHANG);
    if (done > 0) {
      for (int r = 0; r < nprocs; ++r) {
        if (pids[static_cast<std::size_t>(r)] == done) {
          codes[static_cast<std::size_t>(r)] = WIFEXITED(st) ? WEXITSTATUS(st) : 255;
          remaining -= 1;
        }
      }
      continue;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      for (pid_t p : pids) ::kill(p, SIGKILL);
      while (remaining > 0 && ::waitpid(-1, &st, 0) > 0) remaining -= 1;
      break;
    }
    ::usleep(10000);
  }
  return codes;
}

// ---------------------------------------------------------------------------
// Transport layer
// ---------------------------------------------------------------------------

// Rank 0 streams numbered messages to rank 1; rank 1 checks exactly-once,
// in-order delivery and reports the total back. Exercised twice: clean wire
// and chaos wire (drop + dup + delay at level 2) — the reliability layer
// must make both indistinguishable to the receiver.
int ping_pong_body(int rank, int base_port, int nmsgs, const ChaosConfig& chaos) {
  NetConfig cfg = make_net(rank, 2, base_port);
  cfg.chaos = chaos;
  cfg.peer_timeout_ms = 20000;
  Transport t(cfg, [](int, FrameType, Reader&) {});
  t.connect_all();
  if (rank == 0) {
    for (int i = 0; i < nmsgs; ++i) {
      Writer w;
      w.u64(static_cast<std::uint64_t>(i));
      t.send_app(1, /*handler=*/7, w.take());
    }
    // Wait for the receiver's summary.
    std::uint64_t deadline = Transport::now_ms() + 20000;
    AppMessage m;
    while (!t.next_app(&m)) {
      if (Transport::now_ms() > deadline) return 10;
      t.pump(50);
    }
    Reader r(m.payload);
    if (m.src != 1 || m.handler != 8) return 11;
    if (r.u64() != static_cast<std::uint64_t>(nmsgs)) return 12;
    // Drain until the peer has our ack, then part ways.
    t.set_lenient(true);
    std::uint64_t linger = Transport::now_ms() + 500;
    while (Transport::now_ms() < linger) t.pump(50);
    return 0;
  }
  // rank 1: expect 0,1,2,... exactly once, in order.
  std::uint64_t expected = 0;
  std::uint64_t deadline = Transport::now_ms() + 20000;
  while (expected < static_cast<std::uint64_t>(nmsgs)) {
    if (Transport::now_ms() > deadline) return 20;
    AppMessage m;
    if (!t.next_app(&m)) {
      t.pump(50);
      continue;
    }
    if (m.handler != 7) return 21;
    Reader r(m.payload);
    if (r.u64() != expected) return 22;  // reorder, loss or duplicate
    expected += 1;
  }
  Writer w;
  w.u64(expected);
  t.send_app(0, /*handler=*/8, w.take());
  t.set_lenient(true);
  std::uint64_t linger = Transport::now_ms() + 1000;
  while (Transport::now_ms() < linger) t.pump(50);
  return 0;
}

TEST(SocketTransport, InOrderDeliveryCleanWire) {
  int base = test::reserve_port_block();
  std::vector<int> codes =
      run_ranks(2, 40, [&](int r) { return ping_pong_body(r, base, 500, ChaosConfig{}); });
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);
}

TEST(SocketTransport, ExactlyOnceUnderChaos) {
  // Level 2: 50permille drop, 50permille dup, 100permille delayed 5 ms. The
  // receiver's in-order exactly-once check is the assertion; retransmits and
  // dedup must hide every injected fault.
  int base = test::reserve_port_block();
  ChaosConfig chaos = ChaosConfig::net_intensity(2, /*seed=*/1234);
  std::vector<int> codes =
      run_ranks(2, 60, [&](int r) { return ping_pong_body(r, base, 400, chaos); });
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);
}

// ---------------------------------------------------------------------------
// SocketMachine: barrier, app traffic, quiescence
// ---------------------------------------------------------------------------

// A token circles the ranks `laps` times; when it stops, every rank's
// wait() must return false (cross-process quiescence) and rank 0's gathered
// MachineStats must conserve envelopes: sum(sent) == sum(received).
int ring_body(int rank, int nprocs, int base_port, int laps) {
  SocketMachineConfig mc;
  mc.net = make_net(rank, nprocs, base_port);
  SocketMachine machine(mc);
  MachineStats stats = machine.run([&](Proc& self) {
    self.on(1, [&](Proc& p, int src, Reader& r) {
      (void)src;
      std::uint64_t hops = r.u64();
      if (hops == 0) return;
      Writer w;
      w.u64(hops - 1);
      p.send((p.id() + 1) % p.nprocs(), 1, w.take());
    });
    if (self.id() == 0) {
      Writer w;
      w.u64(static_cast<std::uint64_t>(laps * nprocs));
      self.send(1 % nprocs, 1, w.take());
    }
    while (self.wait()) {
    }
  });
  if (rank != 0) return 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const ProcCommStats& p : stats.per_proc) {
    sent += p.messages_sent;
    received += p.messages_received;
  }
  if (sent != received) {
    std::fprintf(stderr, "conservation broken: sent=%llu received=%llu\n",
                 static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(received));
    return 31;
  }
  // laps*nprocs hops plus the seed message.
  if (received != static_cast<std::uint64_t>(laps * nprocs) + 1) return 32;
  return 0;
}

TEST(SocketMachine, RingTokenAndQuiescenceP2) {
  int base = test::reserve_port_block();
  std::vector<int> codes = run_ranks(2, 60, [&](int r) { return ring_body(r, 2, base, 10); });
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);
}

TEST(SocketMachine, RingTokenAndQuiescenceP4) {
  int base = test::reserve_port_block();
  std::vector<int> codes = run_ranks(4, 90, [&](int r) { return ring_body(r, 4, base, 5); });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(codes[static_cast<std::size_t>(r)], 0) << "rank " << r;
}

// ---------------------------------------------------------------------------
// Failure: a killed peer must surface as a clean NetError, not a hang
// ---------------------------------------------------------------------------

TEST(SocketMachine, KilledPeerIsCleanErrorNotHang) {
  int base = test::reserve_port_block();
  auto t0 = std::chrono::steady_clock::now();
  std::vector<int> codes = run_ranks(2, 30, [&](int rank) -> int {
    if (rank == 1) {
      // Die abruptly after the barrier, mid-conversation.
      SocketMachineConfig mc;
      mc.net = make_net(1, 2, base);
      mc.net.peer_timeout_ms = 3000;
      SocketMachine machine(mc);
      try {
        machine.run([&](Proc& self) {
          self.on(1, [](Proc&, int, Reader&) {});
          self.poll();   // pass the registration barrier
          ::_exit(99);   // simulated crash: no shutdown, sockets just vanish
        });
      } catch (const NetError&) {
        return 98;
      }
      return 97;  // unreachable
    }
    SocketMachineConfig mc;
    mc.net = make_net(0, 2, base);
    mc.net.peer_timeout_ms = 3000;
    SocketMachine machine(mc);
    try {
      machine.run([&](Proc& self) {
        self.on(1, [](Proc&, int, Reader&) {});
        while (self.wait()) {
        }
      });
    } catch (const NetError&) {
      return 42;  // the clean outcome: named error, bounded delay
    }
    return 41;  // quiesced against a dead peer — termination protocol broken
  });
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(codes[0], 42) << "rank 0 should see a NetError";
  EXPECT_EQ(codes[1], 99);
  // EOF detection makes this near-instant; the hard bound is the configured
  // peer timeout plus slack, nowhere near the parent's 30 s kill deadline.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 20);
}

// ---------------------------------------------------------------------------
// Full engine over sockets
// ---------------------------------------------------------------------------

TEST(SocketEngine, Katsura4CertificateP2) {
  int base = test::reserve_port_block();
  std::vector<int> codes = run_ranks(2, 120, [&](int rank) -> int {
    PolySystem sys = load_problem("katsura4");
    SocketMachineConfig mc;
    mc.net = make_net(rank, 2, base);
    SocketMachine machine(mc);
    ParallelConfig cfg;
    cfg.nprocs = 2;
    cfg.seed = 1;
    ParallelResult res;
    try {
      res = groebner_parallel_socket(machine, sys, cfg);
    } catch (const NetError& e) {
      std::fprintf(stderr, "rank %d: %s\n", rank, e.what());
      return 3;
    }
    if (rank != 0) return 0;
    if (!res.violations.empty()) return 51;
    std::vector<Polynomial> inputs;
    for (const auto& p : sys.polys) {
      if (!p.is_zero()) inputs.push_back(p);
    }
    std::string why;
    if (!verify_groebner_result(sys.ctx, inputs, res.basis, &why)) {
      std::fprintf(stderr, "certificate: %s\n", why.c_str());
      return 52;
    }
    return 0;
  });
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);
}

}  // namespace
}  // namespace gbd
