// Cross-backend agreement: the same GL-P worker runs on the deterministic
// SimMachine and on real OS threads (ThreadMachine, PR-3 sharded
// mailboxes). Thread schedules are nondeterministic, so virtual-time
// quantities and per-processor splits may differ — but the *answer* is
// schedule-independent (the reduced Gröbner basis is canonical) and the
// engine's accounting identities must hold on any schedule. This is the
// differential test that the real-concurrency backend implements the same
// protocol, not a lookalike.
#include <sys/wait.h>

#include <cstdio>
#include <fstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "net/net_engine.hpp"
#include "obs/metrics.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "support/serialize.hpp"
#include "test_ports.hpp"

namespace gbd {
namespace {

void expect_identical_reduced(const PolySystem& sys, const std::vector<Polynomial>& a,
                              const std::vector<Polynomial>& b, const std::string& label,
                              const CoeffOptions& coeff = {}) {
  std::vector<Polynomial> ra = reduce_basis(sys.ctx, a, coeff);
  std::vector<Polynomial> rb = reduce_basis(sys.ctx, b, coeff);
  ASSERT_EQ(ra.size(), rb.size()) << label;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(ra[i].equals(rb[i])) << label << " element " << i;
  }
}

void expect_accounting_identities(const ParallelResult& res, const std::string& label) {
  const GbStats& s = res.stats;
  // Every computed s-polynomial either died or joined the basis — on any
  // backend, any schedule.
  EXPECT_EQ(s.spolys_computed, s.reductions_to_zero + s.basis_added) << label;
  EXPECT_GT(s.basis_added, 0u) << label;
  EXPECT_GT(s.work_units, 0u) << label;
}

class CrossBackendTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossBackendTest, SimAndThreadsComputeTheSameBasis) {
  PolySystem sys = load_problem(GetParam());
  ParallelConfig cfg;
  cfg.nprocs = 4;
  ParallelResult sim = groebner_parallel(sys, cfg);
  ParallelResult thr = groebner_parallel_threads(sys, cfg);
  std::string why;
  ASSERT_TRUE(verify_groebner_result(sys.ctx, sys.polys, sim.basis, &why)) << why;
  ASSERT_TRUE(verify_groebner_result(sys.ctx, sys.polys, thr.basis, &why)) << why;
  expect_identical_reduced(sys, sim.basis, thr.basis, GetParam());
  expect_accounting_identities(sim, std::string(GetParam()) + " sim");
  expect_accounting_identities(thr, std::string(GetParam()) + " threads");
}

INSTANTIATE_TEST_SUITE_P(Problems, CrossBackendTest,
                         ::testing::Values("katsura4", "trinks1"));

TEST(CrossBackendTest, ThreadsMatchSimWithWireBatching) {
  PolySystem sys = load_problem("katsura4");
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.wire.batch_invalidations = true;
  cfg.wire.batch_fetches = true;
  ParallelResult sim = groebner_parallel(sys, cfg);
  ParallelResult thr = groebner_parallel_threads(sys, cfg);
  expect_identical_reduced(sys, sim.basis, thr.basis, "batched");
  expect_accounting_identities(thr, "batched threads");
}

TEST(CrossBackendTest, ThreadRunsAgreeWithEachOther) {
  // Different wall-clock schedules, same canonical answer.
  PolySystem sys = load_problem("katsura4");
  ParallelConfig cfg;
  cfg.nprocs = 3;
  ParallelResult a = groebner_parallel_threads(sys, cfg);
  ParallelResult b = groebner_parallel_threads(sys, cfg);
  expect_identical_reduced(sys, a.basis, b.basis, "run-to-run");
}

TEST(CrossBackendTest, ThreadMachineSurfacesMailboxStats) {
  PolySystem sys = load_problem("katsura4");
  ParallelConfig cfg;
  cfg.nprocs = 4;
  ParallelResult res = groebner_parallel_threads(sys, cfg);
  ASSERT_EQ(res.machine.mailbox.size(), 4u);
  std::uint64_t enqueues = 0, drained = 0;
  for (const MailboxStats& mb : res.machine.mailbox) {
    enqueues += mb.enqueues;
    drained += mb.drained_messages;
    EXPECT_GE(mb.enqueues, mb.notifies);
    EXPECT_GE(mb.drained_messages, mb.max_drain_batch);
  }
  const std::uint64_t sent = res.machine.total(&ProcCommStats::messages_sent);
  // Every sent message was enqueued in some mailbox. Drains may fall a few
  // short of enqueues: GL-P workers exit on the task-queue termination
  // announcement, so a last ack or steal reply addressed to an
  // already-finished processor stays in its mailbox — the same
  // drop-on-finish semantics the machine has always had.
  EXPECT_EQ(enqueues, sent);
  EXPECT_LE(drained, enqueues);
  EXPECT_GT(drained, 0u);
}

// ---------------------------------------------------------------------------
// Third backend: one OS process per rank over loopback TCP (src/net/).
// ---------------------------------------------------------------------------

struct SocketRunResult {
  bool ok = false;
  std::vector<Polynomial> basis;
  std::uint64_t sent = 0;      ///< sum of per-rank envelopes sent
  std::uint64_t received = 0;  ///< sum of per-rank envelopes delivered
};

/// Fork `nprocs` real processes, run GL-P over sockets, and recover rank 0's
/// merged result through a temp file (children cannot return objects). The
/// per-rank ProcCommStats come back too: rank 0's exit handshake collects
/// every rank's counters, which is what makes the conservation law checkable
/// from one process.
SocketRunResult run_socket_backend(const PolySystem& sys, int nprocs, int base_port,
                                   const CoeffOptions& coeff = {}) {
  std::string path = "/tmp/gbd_xbk_" + std::to_string(::getpid()) + "_" +
                     std::to_string(base_port) + ".bin";
  std::vector<pid_t> pids;
  for (int r = 0; r < nprocs; ++r) {
    pid_t pid = ::fork();
    if (pid == 0) {
      SocketMachineConfig mc;
      mc.net.rank = r;
      mc.net.nprocs = nprocs;
      for (int i = 0; i < nprocs; ++i) {
        NetEndpoint ep;
        ep.host = "127.0.0.1";
        ep.port = static_cast<std::uint16_t>(base_port + i);
        mc.net.peers.push_back(ep);
      }
      SocketMachine machine(mc);
      ParallelConfig cfg;
      cfg.nprocs = nprocs;
      cfg.gb.coeff = coeff;
      ParallelResult res;
      try {
        res = groebner_parallel_socket(machine, sys, cfg);
      } catch (const NetError& e) {
        std::fprintf(stderr, "rank %d: %s\n", r, e.what());
        ::_exit(3);
      }
      if (r != 0) ::_exit(0);
      Writer w;
      w.u32(static_cast<std::uint32_t>(res.basis.size()));
      for (const Polynomial& p : res.basis) p.write(w);
      w.u64(res.machine.total(&ProcCommStats::messages_sent));
      w.u64(res.machine.total(&ProcCommStats::messages_received));
      std::vector<std::uint8_t> bytes = w.take();
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      out.close();  // _exit skips destructors; flush explicitly
      ::_exit(out ? 0 : 1);
    }
    pids.push_back(pid);
  }
  SocketRunResult result;
  result.ok = true;
  for (pid_t pid : pids) {
    int st = 0;
    ::waitpid(pid, &st, 0);
    result.ok = result.ok && WIFEXITED(st) && WEXITSTATUS(st) == 0;
  }
  if (!result.ok) return result;
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  Reader rd(bytes);
  std::uint32_t n = rd.u32();
  for (std::uint32_t i = 0; i < n; ++i) result.basis.push_back(Polynomial::read(rd));
  result.sent = rd.u64();
  result.received = rd.u64();
  result.ok = rd.done();
  return result;
}

// The full three-way differential: simulator, threads and sockets reduce to
// the *identical* canonical basis at P=2 and P=4, over Q and mod p, and the
// socket backend's gathered counters conserve envelopes (everything sent
// across process boundaries was delivered somewhere — quiescence guarantees
// no residue). The Zp cell also checks each backend against the sequential
// engine's reduced basis mod p.
TEST(CrossBackendTest, SimThreadsAndSocketsComputeTheSameBasis) {
  PolySystem sys = load_problem("katsura4");
  const std::uint64_t prime = 4611686018427387847ULL;  // largest prime below 2^62
  for (const CoeffOptions& coeff : {CoeffOptions::exact(), CoeffOptions::zp(prime)}) {
    GbConfig seq;
    seq.coeff = coeff;
    std::vector<Polynomial> want = groebner_sequential(sys, seq).basis;
    for (int nprocs : {2, 4}) {
      ParallelConfig cfg;
      cfg.nprocs = nprocs;
      cfg.gb.coeff = coeff;
      ParallelResult sim = groebner_parallel(sys, cfg);
      ParallelResult thr = groebner_parallel_threads(sys, cfg);
      SocketRunResult sock = run_socket_backend(sys, nprocs, test::reserve_port_block(), coeff);
      std::string label = coeff.to_string() + " P=" + std::to_string(nprocs);
      ASSERT_TRUE(sock.ok) << "socket run failed at " << label;
      expect_identical_reduced(sys, want, sim.basis, label + " sequential/sim", coeff);
      expect_identical_reduced(sys, want, thr.basis, label + " sequential/threads", coeff);
      expect_identical_reduced(sys, want, sock.basis, label + " sequential/sockets", coeff);
      EXPECT_EQ(sock.sent, sock.received) << label << " envelope conservation across ranks";
      EXPECT_GT(sock.sent, 0u) << label;
    }
  }
}

TEST(CrossBackendTest, SocketsMatchSimOnTrinks1) {
  PolySystem sys = load_problem("trinks1");
  ParallelConfig cfg;
  cfg.nprocs = 4;
  ParallelResult sim = groebner_parallel(sys, cfg);
  SocketRunResult sock = run_socket_backend(sys, 4, test::reserve_port_block());
  ASSERT_TRUE(sock.ok);
  std::string why;
  ASSERT_TRUE(verify_groebner_result(sys.ctx, sys.polys, sock.basis, &why)) << why;
  expect_identical_reduced(sys, sim.basis, sock.basis, "trinks1 sim/sockets");
  EXPECT_EQ(sock.sent, sock.received);
}

TEST(CrossBackendTest, MetricsSnapshotsHaveIdenticalShape) {
  // The unified registry is the cross-backend reporting surface: both
  // machines must yield the exact same set of series names, each with one
  // slot per processor — including mailbox.*, which required the simulator
  // to start populating MachineStats::mailbox (PR 4 satellite).
  PolySystem sys = load_problem("katsura4");
  ParallelConfig cfg;
  cfg.nprocs = 4;
  MetricsRegistry sim_reg(cfg.nprocs);
  MetricsRegistry thr_reg(cfg.nprocs);
  cfg.metrics = &sim_reg;
  ParallelResult sim = groebner_parallel(sys, cfg);
  cfg.metrics = &thr_reg;
  ParallelResult thr = groebner_parallel_threads(sys, cfg);
  ASSERT_TRUE(sim.machine.has_mailbox_stats);
  ASSERT_TRUE(thr.machine.has_mailbox_stats);
  ASSERT_EQ(sim.machine.mailbox.size(), 4u);

  MetricsSnapshot a = sim_reg.snapshot();
  MetricsSnapshot b = thr_reg.snapshot();
  std::vector<std::string> a_names, b_names;
  for (const auto& [name, vals] : a.series) {
    a_names.push_back(name);
    EXPECT_EQ(vals.size(), 4u) << name;
  }
  for (const auto& [name, vals] : b.series) {
    b_names.push_back(name);
    EXPECT_EQ(vals.size(), 4u) << name;
  }
  EXPECT_EQ(a_names, b_names);
  EXPECT_NE(a.find("mailbox.enqueues"), nullptr);
  // Schedule-independent identities hold on both backends through the
  // registry as well.
  for (const MetricsSnapshot* s : {&a, &b}) {
    EXPECT_EQ(s->total("gb.spolys_computed"),
              s->total("gb.reductions_to_zero") + s->total("gb.basis_added"));
    EXPECT_EQ(s->total("comm.messages_sent"), s->total("mailbox.enqueues"));
  }
}

}  // namespace
}  // namespace gbd
