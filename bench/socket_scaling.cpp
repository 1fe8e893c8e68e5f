// Socket-backend benchmarks (PR 5): what does crossing a real process
// boundary cost, and what does GL-P wall time look like when every logical
// processor is its own OS process on loopback TCP?
//
// Three sections, emitted as BENCH_pr5.json:
//   - rtt: round-trip time of one application envelope between two ranks
//     (transport layer only — frame codec, reliability, poll loop).
//   - throughput: one-way streaming rate of small envelopes, rank 0 -> 1.
//   - glp: trinks1 wall time at P=1/2/4 processes, with message and wire
//     counters from the exit handshake. host_cores rides along: on a
//     single-core host every process multiplexes one CPU, so wall times
//     measure protocol overhead, not parallel speedup (same caveat as
//     thread_scaling; the SimMachine numbers are the architecture proxy).
//
// Modes:
//   socket_scaling [--out FILE]       measure everything, write the JSON
//   socket_scaling --smoke            CI gate: RTT sane (< 50 ms) and
//                                     trinks1 P=2 completes with a basis
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "net/net_engine.hpp"
#include "problems/problems.hpp"
#include "support/serialize.hpp"

namespace gbd {
namespace {

int next_port_block() {
  static int counter = 0;
  counter += 8;
  return 26000 + static_cast<int>(::getpid() % 18000) + counter;
}

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

/// Fork `nprocs` ranks; rank 0's body returns a serialized result blob that
/// comes back to the parent via a temp file. Returns empty on any failure.
template <typename Body>
std::vector<std::uint8_t> run_forked(int nprocs, Body body) {
  int base_port = next_port_block();
  std::string path =
      "/tmp/gbd_bench_" + std::to_string(::getpid()) + "_" + std::to_string(base_port) + ".bin";
  std::vector<pid_t> pids;
  for (int r = 0; r < nprocs; ++r) {
    pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<std::uint8_t> out;
      int code = body(r, base_port, &out);
      if (r == 0 && code == 0) {
        std::ofstream f(path, std::ios::binary);
        f.write(reinterpret_cast<const char*>(out.data()),
                static_cast<std::streamsize>(out.size()));
        f.close();  // _exit skips destructors; flush explicitly
        if (!f) code = 1;
      }
      ::_exit(code);
    }
    pids.push_back(pid);
  }
  bool ok = true;
  for (pid_t pid : pids) {
    int st = 0;
    ::waitpid(pid, &st, 0);
    ok = ok && WIFEXITED(st) && WEXITSTATUS(st) == 0;
  }
  if (!ok) return {};
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------------------------
// RTT: rank 0 sends one envelope, rank 1 echoes it, `rounds` times.
// --------------------------------------------------------------------------

struct RttResult {
  double avg_us = 0;
  bool ok = false;
};

RttResult bench_rtt(int rounds) {
  std::vector<std::uint8_t> blob = run_forked(2, [&](int rank, int base_port,
                                                     std::vector<std::uint8_t>* out) -> int {
    NetConfig cfg = make_net(rank, 2, base_port);
    Transport t(cfg, [](int, FrameType, Reader&) {});
    t.connect_all();
    std::uint64_t deadline = Transport::now_ms() + 60000;
    if (rank == 0) {
      double t0 = now_ms();
      for (int i = 0; i < rounds; ++i) {
        Writer w;
        w.u64(static_cast<std::uint64_t>(i));
        t.send_app(1, 1, w.take());
        AppMessage m;
        while (!t.next_app(&m)) {
          if (Transport::now_ms() > deadline) return 10;
          t.pump(10);
        }
      }
      double elapsed = now_ms() - t0;
      Writer w;
      w.u64(static_cast<std::uint64_t>(elapsed * 1000.0));  // total us
      *out = w.take();
      t.set_lenient(true);
      std::uint64_t linger = Transport::now_ms() + 300;
      while (Transport::now_ms() < linger) t.pump(20);
      return 0;
    }
    for (int i = 0; i < rounds; ++i) {
      AppMessage m;
      while (!t.next_app(&m)) {
        if (Transport::now_ms() > deadline) return 20;
        t.pump(10);
      }
      t.send_app(0, 1, m.payload);
    }
    t.set_lenient(true);
    std::uint64_t linger = Transport::now_ms() + 600;
    while (Transport::now_ms() < linger) t.pump(20);
    return 0;
  });
  RttResult r;
  if (blob.empty()) return r;
  Reader rd(blob);
  r.avg_us = static_cast<double>(rd.u64()) / rounds;
  r.ok = true;
  return r;
}

// --------------------------------------------------------------------------
// Throughput: rank 0 streams `count` envelopes of `payload_bytes` to rank 1.
// --------------------------------------------------------------------------

struct ThroughputResult {
  double envelopes_per_sec = 0;
  double mb_per_sec = 0;
  bool ok = false;
};

ThroughputResult bench_throughput(int count, std::size_t payload_bytes) {
  std::vector<std::uint8_t> blob = run_forked(2, [&](int rank, int base_port,
                                                     std::vector<std::uint8_t>* out) -> int {
    NetConfig cfg = make_net(rank, 2, base_port);
    Transport t(cfg, [](int, FrameType, Reader&) {});
    t.connect_all();
    std::uint64_t deadline = Transport::now_ms() + 120000;
    if (rank == 0) {
      std::vector<std::uint8_t> payload(payload_bytes, 0x5A);
      double t0 = now_ms();
      for (int i = 0; i < count; ++i) {
        t.send_app(1, 1, payload);
        t.pump(0);  // keep the pipe draining; don't build an unbounded queue
      }
      // Completion = receiver's summary envelope.
      AppMessage m;
      while (!t.next_app(&m)) {
        if (Transport::now_ms() > deadline) return 10;
        t.pump(10);
      }
      double elapsed_s = (now_ms() - t0) / 1000.0;
      Reader r(m.payload);
      if (r.u64() != static_cast<std::uint64_t>(count)) return 11;
      Writer w;
      w.u64(static_cast<std::uint64_t>(count / elapsed_s));
      w.u64(static_cast<std::uint64_t>(
          (static_cast<double>(count) * static_cast<double>(payload_bytes)) / elapsed_s));
      *out = w.take();
      t.set_lenient(true);
      std::uint64_t linger = Transport::now_ms() + 300;
      while (Transport::now_ms() < linger) t.pump(20);
      return 0;
    }
    std::uint64_t seen = 0;
    while (seen < static_cast<std::uint64_t>(count)) {
      AppMessage m;
      if (!t.next_app(&m)) {
        if (Transport::now_ms() > deadline) return 20;
        t.pump(10);
        continue;
      }
      seen += 1;
    }
    Writer w;
    w.u64(seen);
    t.send_app(0, 2, w.take());
    t.set_lenient(true);
    std::uint64_t linger = Transport::now_ms() + 600;
    while (Transport::now_ms() < linger) t.pump(20);
    return 0;
  });
  ThroughputResult r;
  if (blob.empty()) return r;
  Reader rd(blob);
  r.envelopes_per_sec = static_cast<double>(rd.u64());
  r.mb_per_sec = static_cast<double>(rd.u64()) / (1024.0 * 1024.0);
  r.ok = true;
  return r;
}

// --------------------------------------------------------------------------
// GL-P over processes: trinks1 at P ranks.
// --------------------------------------------------------------------------

struct GlpCell {
  int nprocs = 0;
  double wall_ms = 0;
  std::size_t basis = 0;
  std::uint64_t messages = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t retransmits = 0;
  bool ok = false;
};

GlpCell bench_glp(const std::string& problem, int nprocs) {
  PolySystem sys = load_problem(problem);
  std::vector<std::uint8_t> blob = run_forked(nprocs, [&](int rank, int base_port,
                                                          std::vector<std::uint8_t>* out) -> int {
    SocketMachineConfig mc;
    mc.net = make_net(rank, nprocs, base_port);
    SocketMachine machine(mc);
    ParallelConfig cfg;
    cfg.nprocs = nprocs;
    double t0 = now_ms();
    ParallelResult res;
    try {
      res = groebner_parallel_socket(machine, sys, cfg);
    } catch (const NetError& e) {
      std::fprintf(stderr, "rank %d: %s\n", rank, e.what());
      return 3;
    }
    if (rank != 0) return 0;
    double wall = now_ms() - t0;
    const TransportStats& net = machine.transport_stats();
    Writer w;
    w.u64(static_cast<std::uint64_t>(wall * 1000.0));  // us
    w.u64(res.basis.size());
    w.u64(res.machine.total(&ProcCommStats::messages_sent));
    w.u64(net.frames_sent);
    w.u64(net.bytes_sent);
    w.u64(net.retransmits);
    *out = w.take();
    return 0;
  });
  GlpCell c;
  c.nprocs = nprocs;
  if (blob.empty()) return c;
  Reader rd(blob);
  c.wall_ms = static_cast<double>(rd.u64()) / 1000.0;
  c.basis = static_cast<std::size_t>(rd.u64());
  c.messages = rd.u64();
  c.frames = rd.u64();
  c.wire_bytes = rd.u64();
  c.retransmits = rd.u64();
  c.ok = true;
  return c;
}

int run_smoke() {
  RttResult rtt = bench_rtt(50);
  if (!rtt.ok) {
    std::fprintf(stderr, "smoke: RTT bench failed\n");
    return 1;
  }
  std::printf("smoke: loopback RTT %.1f us\n", rtt.avg_us);
  if (rtt.avg_us > 50000.0) {
    std::fprintf(stderr, "smoke: RTT %.1f us implausibly slow (> 50 ms)\n", rtt.avg_us);
    return 1;
  }
  GlpCell glp = bench_glp("trinks1", 2);
  if (!glp.ok || glp.basis == 0) {
    std::fprintf(stderr, "smoke: trinks1 P=2 over sockets failed\n");
    return 1;
  }
  std::printf("smoke: trinks1 P=2 wall %.1f ms, basis %zu, %llu frames\n", glp.wall_ms,
              glp.basis, static_cast<unsigned long long>(glp.frames));
  return 0;
}

int run_full(const std::string& out_path) {
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("host_cores=%u\n", cores);

  RttResult rtt = bench_rtt(500);
  if (!rtt.ok) {
    std::fprintf(stderr, "RTT bench failed\n");
    return 1;
  }
  std::printf("loopback RTT: %.1f us/round-trip\n", rtt.avg_us);

  ThroughputResult tput = bench_throughput(20000, 64);
  if (!tput.ok) {
    std::fprintf(stderr, "throughput bench failed\n");
    return 1;
  }
  std::printf("throughput (64 B envelopes): %.0f env/s, %.2f MiB/s\n", tput.envelopes_per_sec,
              tput.mb_per_sec);

  std::vector<GlpCell> cells;
  for (int p : {1, 2, 4}) {
    GlpCell c = bench_glp("trinks1", p);
    if (!c.ok) {
      std::fprintf(stderr, "trinks1 P=%d failed\n", p);
      return 1;
    }
    std::printf("trinks1 P=%d: wall %.1f ms, basis %zu, messages %llu, frames %llu, "
                "retransmits %llu\n",
                p, c.wall_ms, c.basis, static_cast<unsigned long long>(c.messages),
                static_cast<unsigned long long>(c.frames),
                static_cast<unsigned long long>(c.retransmits));
    cells.push_back(c);
  }

  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"socket_scaling\",\n";
  js << "  \"backend\": \"socket (1 process per rank, loopback TCP)\",\n";
  js << "  \"host_cores\": " << cores << ",\n";
  js << "  \"note\": \"single-core hosts multiplex all ranks on one CPU; wall times "
        "measure protocol overhead, not parallel speedup\",\n";
  js << "  \"rtt_us\": " << rtt.avg_us << ",\n";
  js << "  \"envelopes_per_sec\": " << tput.envelopes_per_sec << ",\n";
  js << "  \"throughput_mib_per_sec\": " << tput.mb_per_sec << ",\n";
  js << "  \"glp\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GlpCell& c = cells[i];
    js << "    {\"problem\": \"trinks1\", \"procs\": " << c.nprocs
       << ", \"wall_ms\": " << c.wall_ms << ", \"basis\": " << c.basis
       << ", \"messages\": " << c.messages << ", \"frames\": " << c.frames
       << ", \"wire_bytes\": " << c.wire_bytes << ", \"retransmits\": " << c.retransmits << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  js << "  ]\n";
  js << "}\n";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << js.str();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace gbd

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr5.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return smoke ? gbd::run_smoke() : gbd::run_full(out_path);
}
