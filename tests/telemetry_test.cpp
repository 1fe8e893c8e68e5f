// Live telemetry pipeline (obs/telemetry.hpp) + crash flight recorder.
//
//   · LogHistogram bucket mechanics and its sparse wire round trip;
//   · the delta+keyframe frame codec: lossless application, gap detection,
//     keyframe resynchronization, stale-frame rejection;
//   · zero perturbation: a SimMachine run with telemetry attached is
//     bit-identical (trace bytes, virtual makespan, basis) to the same run
//     without it — with and without chaos;
//   · cross-rank causal flow ids: every kMsgRecv on the socket backend
//     resolves to exactly one kMsgSend, and the merged Perfetto export
//     carries "s"/"f" flow events;
//   · best-effort kTelemetry frames never perturb the reliable app channel's
//     exactly-once in-order delivery, even under chaos;
//   · the flight recorder leaves a parseable post-mortem dump on a fatal
//     signal, ending with the last recorded event.
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "gb/parallel.hpp"
#include "gb/verify.hpp"
#include "machine/chaos.hpp"
#include "net/net_engine.hpp"
#include "net/socket_machine.hpp"
#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
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

/// Fork `nprocs` children, run body(rank), collect exit codes (255 =
/// abnormal, 254 = parent deadline). Same harness as net_socket_test.
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- LogHistogram ------------------------------------------------------------

TEST(LogHistogramTest, BucketByBitWidth) {
  LogHistogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1
  h.record(2);    // bucket 2
  h.record(3);    // bucket 2
  h.record(4);    // bucket 3
  h.record(std::uint64_t(1) << 20);  // bucket 21
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[21], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum, 10u + (std::uint64_t(1) << 20));
  EXPECT_EQ(h.max, std::uint64_t(1) << 20);
  EXPECT_EQ(LogHistogram::bucket_floor(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_floor(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_floor(21), std::uint64_t(1) << 20);
}

TEST(LogHistogramTest, EncodeDecodeRoundTrip) {
  LogHistogram h;
  for (std::uint64_t v : {0ull, 1ull, 17ull, 1000ull, 12345678ull}) h.record(v);
  Writer w;
  h.encode(w);
  std::vector<std::uint8_t> bytes = w.take();
  Reader r(bytes.data(), bytes.size());
  LogHistogram back = LogHistogram::decode(r);
  EXPECT_EQ(back.count, h.count);
  EXPECT_EQ(back.sum, h.sum);
  EXPECT_EQ(back.max, h.max);
  EXPECT_EQ(back.buckets, h.buckets);
  EXPECT_EQ(r.remaining(), 0u);

  LogHistogram other;
  other.record(42);
  other.merge(h);
  EXPECT_EQ(other.count, h.count + 1);
  EXPECT_EQ(other.max, h.max);
}

// --- Frame codec: keyframes, deltas, loss, staleness -------------------------

class CodecHarness {
 public:
  CodecHarness() {
    tele_.start_run(/*nprocs=*/2, ClockDomain::kVirtual);
    tele_.at(1).set_sampler([this](TeleSample& s) {
      tele_at(s, TeleKey::kQueueDepth) = queue_;
      tele_at(s, TeleKey::kSpairsRetired) = retired_;
      tele_at(s, TeleKey::kSpairsZeroed) = zeroed_;
    });
  }

  std::vector<std::uint8_t> tick(std::uint64_t t) {
    return tele_.at(1).sample(1, t, comm_, /*tracer_dropped=*/0);
  }

  void ingest(const std::vector<std::uint8_t>& f) { tele_.ingest_bytes(f.data(), f.size()); }

  Telemetry tele_;
  ProcCommStats comm_;
  std::uint64_t queue_ = 0, retired_ = 0, zeroed_ = 0;
};

TEST(TelemetryCodecTest, DeltasTrackGaugesExactly) {
  CodecHarness h;
  // Including a *decreasing* gauge: wrapping u64 deltas must round-trip it.
  std::uint64_t queues[] = {10, 14, 3, 0, 7};
  for (int i = 0; i < 5; ++i) {
    h.queue_ = queues[i];
    h.retired_ += 2;
    h.comm_.messages_sent += 5;
    h.ingest(h.tick(100 * static_cast<std::uint64_t>(i + 1)));
    const auto& rs = h.tele_.aggregator().rank(1);
    ASSERT_TRUE(rs.synced) << "frame " << i;
    EXPECT_EQ(tele_get(rs.values, TeleKey::kQueueDepth), queues[i]) << "frame " << i;
    EXPECT_EQ(tele_get(rs.values, TeleKey::kSpairsRetired), 2u * (i + 1));
    EXPECT_EQ(tele_get(rs.values, TeleKey::kMsgsSent), 5u * (i + 1));
    EXPECT_EQ(tele_get(rs.values, TeleKey::kTime), 100u * (i + 1));
  }
  EXPECT_EQ(h.tele_.dropped_frames(), 0u);
  EXPECT_EQ(h.tele_.aggregator().rank(1).frames, 5u);
}

TEST(TelemetryCodecTest, LossDesyncsUntilNextKeyframe) {
  CodecHarness h;
  std::vector<std::vector<std::uint8_t>> frames;
  // Snapshots 1..12; seq 1 and 9 are keyframes (every 8th).
  for (int i = 1; i <= 12; ++i) {
    h.queue_ = static_cast<std::uint64_t>(10 * i);
    frames.push_back(h.tick(static_cast<std::uint64_t>(i)));
  }
  h.ingest(frames[0]);  // seq 1 (keyframe)
  // Frames 2 and 3 lost in flight.
  h.ingest(frames[3]);  // seq 4: gap of 2 — cannot apply the delta
  {
    const auto& rs = h.tele_.aggregator().rank(1);
    EXPECT_FALSE(rs.synced);
    EXPECT_EQ(rs.dropped, 2u);
    // Values frozen at the last synced sample, not corrupted.
    EXPECT_EQ(tele_get(rs.values, TeleKey::kQueueDepth), 10u);
  }
  for (int i = 4; i <= 7; ++i) h.ingest(frames[static_cast<std::size_t>(i)]);  // still deltas
  EXPECT_FALSE(h.tele_.aggregator().rank(1).synced);
  h.ingest(frames[8]);  // seq 9: keyframe resynchronizes absolutely
  {
    const auto& rs = h.tele_.aggregator().rank(1);
    EXPECT_TRUE(rs.synced);
    EXPECT_EQ(tele_get(rs.values, TeleKey::kQueueDepth), 90u);
  }
  h.ingest(frames[9]);  // seq 10: delta applies again
  EXPECT_EQ(tele_get(h.tele_.aggregator().rank(1).values, TeleKey::kQueueDepth), 100u);
  // A duplicated / reordered old frame is counted stale and changes nothing.
  h.ingest(frames[3]);
  const auto& rs = h.tele_.aggregator().rank(1);
  EXPECT_EQ(rs.stale, 1u);
  EXPECT_TRUE(rs.synced);
  EXPECT_EQ(tele_get(rs.values, TeleKey::kQueueDepth), 100u);
  EXPECT_EQ(h.tele_.dropped_frames(), 2u);
}

TEST(TelemetryCodecTest, MalformedFramesAreCountedNeverFatal) {
  CodecHarness h;
  std::vector<std::uint8_t> junk = {0xff, 0x01, 0x02};
  h.tele_.ingest_bytes(junk.data(), junk.size());
  h.tele_.ingest_bytes(junk.data(), 0);
  EXPECT_EQ(h.tele_.aggregator().malformed_frames(), 2u);
  // The pipeline still works afterwards.
  h.queue_ = 5;
  h.ingest(h.tick(50));
  EXPECT_TRUE(h.tele_.aggregator().rank(1).synced);
}

TEST(TelemetryCodecTest, ProgressIsMonotone) {
  CodecHarness h;
  double last = 0.0;
  std::uint64_t queues[] = {20, 10, 15, 4, 0};
  for (int i = 0; i < 5; ++i) {
    h.queue_ = queues[i];
    h.retired_ += 3;
    h.zeroed_ += 1;
    h.ingest(h.tick(static_cast<std::uint64_t>(i + 1)));
    double p = h.tele_.progress();
    EXPECT_GE(p, last);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    last = p;
  }
  EXPECT_GT(last, 0.0);
  // JSON snapshot is emitted and self-describing.
  std::string js = h.tele_.snapshot_json();
  EXPECT_NE(js.find("\"type\":\"sample\""), std::string::npos);
  EXPECT_NE(js.find("\"progress\":"), std::string::npos);
  EXPECT_NE(js.find("\"ranks\":["), std::string::npos);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
}

// --- Zero perturbation on the simulator --------------------------------------

struct SimRun {
  std::vector<std::uint8_t> trace_bytes;
  std::uint64_t makespan = 0;
  std::vector<Polynomial> basis;
  std::uint64_t frames = 0;
  double progress = 0.0;
};

SimRun run_sim(const PolySystem& sys, bool with_telemetry, const ChaosConfig& chaos) {
  Tracer tracer;
  Telemetry tele(TelemetryConfig{/*sim_interval_units=*/5'000, /*interval_ms=*/100,
                                 /*series_capacity=*/256});
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.seed = 7;
  cfg.chaos = chaos;
  cfg.tracer = &tracer;
  if (with_telemetry) cfg.telemetry = &tele;
  ParallelResult res = groebner_parallel(sys, cfg);
  SimRun out;
  out.trace_bytes = tracer.data().encode();
  out.makespan = res.elapsed_units;
  out.basis = res.basis;
  if (with_telemetry) {
    out.frames = tele.aggregator().frames_received();
    out.progress = tele.progress();
  }
  return out;
}

void expect_identical(const SimRun& off, const SimRun& on) {
  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.trace_bytes, on.trace_bytes);
  ASSERT_EQ(off.basis.size(), on.basis.size());
  for (std::size_t i = 0; i < off.basis.size(); ++i) {
    EXPECT_TRUE(off.basis[i].equals(on.basis[i])) << "basis element " << i;
  }
}

TEST(TelemetrySimTest, AttachingTelemetryIsBitIdentical) {
  PolySystem sys = load_problem("trinks1");
  SimRun off = run_sim(sys, false, ChaosConfig{});
  SimRun on = run_sim(sys, true, ChaosConfig{});
  expect_identical(off, on);
  // And the pipeline actually observed the run.
  EXPECT_GT(on.frames, 0u);
  EXPECT_GT(on.progress, 0.0);
  EXPECT_LE(on.progress, 1.0);
}

TEST(TelemetrySimTest, BitIdenticalUnderChaosToo) {
  PolySystem sys = load_problem("trinks1");
  ChaosConfig chaos = ChaosConfig::intensity(2, /*seed=*/99);
  SimRun off = run_sim(sys, false, chaos);
  SimRun on = run_sim(sys, true, chaos);
  expect_identical(off, on);
  EXPECT_GT(on.frames, 0u);
}

// --- Cross-rank causal flow ids (socket backend) -----------------------------

TEST(TelemetryFlowTest, EveryReceiveResolvesToExactlyOneSend) {
  int base = test::reserve_port_block();
  std::string dir = ::testing::TempDir();
  std::string t0_path = dir + "/flow_rank0." + std::to_string(::getpid()) + ".trace";
  std::string t1_path = dir + "/flow_rank1." + std::to_string(::getpid()) + ".trace";
  constexpr int kMsgs = 5;
  std::vector<int> codes = run_ranks(2, 60, [&](int rank) -> int {
    SocketMachineConfig mc;
    mc.net = make_net(rank, 2, base);
    SocketMachine machine(mc);
    Tracer tracer;
    machine.set_tracer(&tracer);
    try {
      machine.run([&](Proc& self) {
        self.on(7, [](Proc&, int, Reader&) {});
        if (self.id() == 0) {
          for (int i = 0; i < kMsgs; ++i) {
            Writer w;
            w.u64(static_cast<std::uint64_t>(i));
            self.send(1, 7, w.take());
          }
        }
        while (self.wait()) {
        }
      });
    } catch (const NetError&) {
      return 3;
    }
    std::vector<std::uint8_t> bytes = tracer.data().encode();
    std::ofstream out(rank == 0 ? t0_path : t1_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return out.good() ? 0 : 4;
  });
  ASSERT_EQ(codes[0], 0);
  ASSERT_EQ(codes[1], 0);

  std::string b0 = slurp(t0_path), b1 = slurp(t1_path);
  ASSERT_FALSE(b0.empty());
  ASSERT_FALSE(b1.empty());
  TraceData d0 = TraceData::decode(std::vector<std::uint8_t>(b0.begin(), b0.end()));
  TraceData d1 = TraceData::decode(std::vector<std::uint8_t>(b1.begin(), b1.end()));

  std::vector<std::uint64_t> sends, recvs;
  for (const TraceEvent& e : d0.procs[0].events) {
    if (e.kind == Ev::kMsgSend) sends.push_back(e.a);
  }
  for (const TraceEvent& e : d1.procs[1].events) {
    if (e.kind == Ev::kMsgRecv) recvs.push_back(e.a);
  }
  ASSERT_EQ(sends.size(), static_cast<std::size_t>(kMsgs));
  ASSERT_EQ(recvs.size(), static_cast<std::size_t>(kMsgs));
  // Transport seqs are 1-based and per-channel: the flow ids are exactly
  // (0 -> 1, seq k) — and every receive matches exactly one send.
  for (int k = 0; k < kMsgs; ++k) {
    EXPECT_EQ(sends[static_cast<std::size_t>(k)],
              flow_id(0, 1, static_cast<std::uint64_t>(k + 1)));
  }
  std::vector<std::uint64_t> sorted_sends = sends, sorted_recvs = recvs;
  std::sort(sorted_sends.begin(), sorted_sends.end());
  std::sort(sorted_recvs.begin(), sorted_recvs.end());
  EXPECT_EQ(sorted_sends, sorted_recvs);

  // The merged Perfetto timeline carries the flow edges.
  std::string json = merged_traces_to_perfetto_json({d0, d1});
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  std::remove(t0_path.c_str());
  std::remove(t1_path.c_str());
}

// --- Best-effort telemetry vs the reliable channel ---------------------------

// Rank 0 interleaves reliable app messages with best-effort kTelemetry
// frames under chaos (drop + dup + delay). The app stream must still arrive
// exactly once, in order — telemetry loss/duplication can never leak into
// the reliable seq space — while at least some telemetry frames get through.
TEST(TelemetryTransportTest, BestEffortNeverPerturbsReliableDelivery) {
  int base = test::reserve_port_block();
  constexpr int kMsgs = 300;
  std::vector<int> codes = run_ranks(2, 60, [&](int rank) -> int {
    NetConfig cfg = make_net(rank, 2, base);
    cfg.chaos = ChaosConfig::net_intensity(2, /*seed=*/4242);
    cfg.peer_timeout_ms = 20000;
    std::uint64_t tele_frames = 0;
    Transport t(cfg, [&](int, FrameType type, Reader&) {
      if (type == FrameType::kTelemetry) tele_frames += 1;
    });
    t.connect_all();
    if (rank == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        Writer w;
        w.u64(static_cast<std::uint64_t>(i));
        t.send_app(1, /*handler=*/7, w.take());
        Writer tw;
        tw.u64(static_cast<std::uint64_t>(i));
        t.send_telemetry(1, tw.take());
      }
      std::uint64_t deadline = Transport::now_ms() + 20000;
      AppMessage m;
      while (!t.next_app(&m)) {
        if (Transport::now_ms() > deadline) return 10;
        t.pump(50);
      }
      if (m.handler != 8) return 11;
      // telemetry_sent counts every attempt; chaos-dropped ones also land in
      // telemetry_lost and are never retransmitted.
      if (t.stats().telemetry_sent != static_cast<std::uint64_t>(kMsgs)) return 12;
      if (t.stats().telemetry_lost >= t.stats().telemetry_sent) return 13;
      t.set_lenient(true);
      std::uint64_t linger = Transport::now_ms() + 500;
      while (Transport::now_ms() < linger) t.pump(50);
      return 0;
    }
    std::uint64_t expected = 0;
    std::uint64_t deadline = Transport::now_ms() + 20000;
    while (expected < static_cast<std::uint64_t>(kMsgs)) {
      if (Transport::now_ms() > deadline) return 20;
      AppMessage m;
      if (!t.next_app(&m)) {
        t.pump(50);
        continue;
      }
      if (m.handler != 7) return 21;
      Reader r(m.payload);
      if (r.u64() != expected) return 22;  // loss, reorder or dup on the reliable path
      if (m.seq != expected + 1) return 23;  // app seq space must stay dense
      expected += 1;
    }
    if (tele_frames == 0) return 24;  // best-effort, but the wire is mostly up
    Writer w;
    w.u64(expected);
    t.send_app(0, /*handler=*/8, w.take());
    t.set_lenient(true);
    std::uint64_t linger = Transport::now_ms() + 1000;
    while (Transport::now_ms() < linger) t.pump(50);
    return 0;
  });
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);
}

// --- Full engine over sockets, telemetry on, chaos on ------------------------

TEST(TelemetrySocketTest, ChaosRunStillCorrectAndObserved) {
  int base = test::reserve_port_block();
  std::vector<int> codes = run_ranks(2, 120, [&](int rank) -> int {
    PolySystem sys = load_problem("katsura4");
    SocketMachineConfig mc;
    mc.net = make_net(rank, 2, base);
    mc.net.chaos = ChaosConfig::net_intensity(2, /*seed=*/1729);
    SocketMachine machine(mc);
    Telemetry tele(TelemetryConfig{/*sim_interval_units=*/50'000, /*interval_ms=*/5,
                                   /*series_capacity=*/256});
    ParallelConfig cfg;
    cfg.nprocs = 2;
    cfg.seed = 1;
    cfg.telemetry = &tele;
    ParallelResult res;
    try {
      res = groebner_parallel_socket(machine, sys, cfg);
    } catch (const NetError& e) {
      std::fprintf(stderr, "rank %d: %s\n", rank, e.what());
      return 3;
    }
    if (rank != 0) return 0;
    // Quiescence was reached with telemetry riding the wire, the basis is a
    // certified Groebner basis, and rank 0 actually aggregated frames.
    if (!res.violations.empty()) return 51;
    std::vector<Polynomial> inputs;
    for (const auto& p : sys.polys) {
      if (!p.is_zero()) inputs.push_back(p);
    }
    std::string why;
    if (!verify_groebner_result(sys.ctx, inputs, res.basis, &why)) return 52;
    if (tele.aggregator().frames_received() == 0) return 53;
    double p = tele.progress();
    if (p < 0.0 || p > 1.0) return 54;
    return 0;
  });
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 0);
}

// --- Crash flight recorder ---------------------------------------------------

TEST(FlightRecorderTest, DumpNowWritesParseablePostMortem) {
  std::string path = ::testing::TempDir() + "/fr_dump_" + std::to_string(::getpid()) + ".json";
  ProcTracer tracer;
  tracer.instant(Ev::kSteal, 10, 1);
  tracer.complete(Ev::kHandler, 20, 30, /*a=*/7, /*b=*/1);
  tracer.instant(Ev::kMsgRecv, 40, flow_id(1, 0, 3), 7);
  ProcTelemetry pt;
  ProcCommStats comm;
  comm.messages_sent = 12;
  pt.set_sampler([](TeleSample& s) { tele_at(s, TeleKey::kQueueDepth) = 9; });
  pt.sample(0, /*now=*/100, comm, /*tracer_dropped=*/0);

  FlightRecorder& fr = FlightRecorder::instance();
  fr.arm(path, /*rank=*/2, &tracer, &pt);
  EXPECT_FALSE(fr.dumped());
  fr.dump_now("test-dump");
  EXPECT_TRUE(fr.dumped());
  fr.disarm();

  std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(dump.front(), '{');
  EXPECT_EQ(dump[dump.size() - 2], '}');  // trailing newline after the object
  EXPECT_NE(dump.find("\"type\":\"flight_recorder\""), std::string::npos);
  EXPECT_NE(dump.find("\"rank\":2"), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"test-dump\""), std::string::npos);
  EXPECT_NE(dump.find("\"queue\":9"), std::string::npos);
  EXPECT_NE(dump.find("\"msgs_sent\":12"), std::string::npos);
  // The last recorded event is the last one in the dump.
  std::size_t steal = dump.find("\"kind\":\"steal\"");
  std::size_t recv = dump.find("\"kind\":\"msg-recv\"");
  EXPECT_NE(steal, std::string::npos);
  EXPECT_NE(recv, std::string::npos);
  EXPECT_LT(steal, recv);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, FatalSignalLeavesDumpAndDies) {
  std::string path =
      ::testing::TempDir() + "/fr_crash_" + std::to_string(::getpid()) + ".json";
  std::remove(path.c_str());
  pid_t pid = ::fork();
  if (pid == 0) {
    // Child: arm, record some activity, then crash. The recorder's handler
    // must dump and re-raise so the exit status still reports the signal.
    static ProcTracer tracer;
    tracer.instant(Ev::kSteal, 5, 1);
    tracer.complete(Ev::kReduce, 10, 90, 0, 42);
    static ProcTelemetry pt;
    ProcCommStats comm;
    pt.sample(1, 50, comm, 0);
    FlightRecorder::instance().arm(path, /*rank=*/1, &tracer, &pt);
    ::abort();
  }
  int st = 0;
  ASSERT_EQ(::waitpid(pid, &st, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(st));
  EXPECT_EQ(WTERMSIG(st), SIGABRT);
  std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << "no flight-recorder dump at " << path;
  EXPECT_NE(dump.find("\"reason\":\"SIGABRT\""), std::string::npos);
  EXPECT_NE(dump.find("\"rank\":1"), std::string::npos);
  // Last event before the kill survives in the tail.
  EXPECT_NE(dump.find("\"kind\":\"reduce\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gbd
