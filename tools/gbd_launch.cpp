// gbd_launch — rendezvous launcher for the SocketMachine backend: one OS
// process per logical processor over TCP loopback (or real hosts).
//
// Launcher mode (default):
//   gbd_launch [--procs N] [--problem NAME] [--port BASE] [--seed S]
//              [--coeff exact|zp:P] [--net-chaos LEVEL] [--chaos-seed S]
//              [--batch] [--reserve] [--peer-timeout-ms T] [--trace-dir DIR]
//              [--watch] [--telemetry-out FILE]
//              [--timeout SECONDS] [--no-verify]
//              [--kill-rank R [--kill-after-ms T]]
//
//   Forks N worker processes (re-exec of this binary) on 127.0.0.1 ports
//   BASE..BASE+N-1, supervises them under a watchdog, and reports per-rank
//   exit status. Rank 0 computes the merged basis, verifies the Gröbner
//   certificate, and prints the run summary. --kill-rank is a failure drill:
//   the launcher SIGKILLs that rank mid-run and then *expects* the survivors
//   to fail fast with a clean transport error (exit 3) instead of hanging.
//
//   --watch turns on live telemetry and renders a dashboard on rank 0's
//   stderr (per-rank busy bars, queue depth, message rates, a progress/ETA
//   line); --telemetry-out FILE appends one JSON object per telemetry update
//   (a flight log replayable offline). Both ride the best-effort kTelemetry
//   frame path: loss under --net-chaos costs dashboard freshness, never
//   correctness. With --trace-dir, each rank also arms the crash flight
//   recorder: a rank dying to a fatal signal or NetError leaves
//   DIR/rankN.flight.json with its last trace events and metric snapshot.
//
// Worker mode (started by the launcher, or by hand on real hosts):
//   gbd_launch --worker --rank R [--hosts FILE] ...same flags...
//
//   With --hosts, FILE lists one "host:port" per line, one line per rank,
//   and every rank must be started manually with its --rank.
//
// Exit codes: 0 success; 1 wrong result/verification failure; 2 usage;
// 3 transport failure (peer died / timed out); 124 watchdog timeout.
#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bigint/zp.hpp"
#include "gb/verify.hpp"
#include "net/net_engine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "problems/problems.hpp"

using namespace gbd;

namespace {

struct Options {
  int procs = 4;
  std::string problem = "trinks1";
  int port = 0;  ///< 0 = derive from pid
  std::uint64_t seed = 1;
  std::string coeff = "exact";  ///< "exact" or "zp:P" (run over Z/PZ)
  int net_chaos = 0;
  std::uint64_t chaos_seed = 42;
  bool batch = false;
  bool reserve = false;
  int peer_timeout_ms = 10000;
  std::string trace_dir;
  bool watch = false;
  std::string telemetry_out;
  int telemetry_interval_ms = 100;
  int timeout_s = 120;
  bool verify = true;
  int kill_rank = -1;
  int kill_after_ms = 500;
  std::string hosts_file;
  // Worker mode.
  bool worker = false;
  int rank = -1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--procs N] [--problem NAME] [--port BASE] [--seed S]\n"
               "          [--coeff exact|zp:P] [--net-chaos LEVEL] [--chaos-seed S]\n"
               "          [--batch] [--reserve] [--peer-timeout-ms T] [--trace-dir DIR]\n"
               "          [--watch] [--telemetry-out FILE] [--telemetry-interval-ms T]\n"
               "          [--timeout SECONDS] [--no-verify]\n"
               "          [--kill-rank R [--kill-after-ms T]]\n"
               "       %s --worker --rank R [--hosts FILE] ...\n",
               argv0, argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--procs") == 0) {
      opt.procs = std::atoi(value(i));
    } else if (std::strcmp(a, "--problem") == 0) {
      opt.problem = value(i);
    } else if (std::strcmp(a, "--port") == 0) {
      opt.port = std::atoi(value(i));
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--coeff") == 0) {
      opt.coeff = value(i);
    } else if (std::strcmp(a, "--net-chaos") == 0) {
      opt.net_chaos = std::atoi(value(i));
    } else if (std::strcmp(a, "--chaos-seed") == 0) {
      opt.chaos_seed = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--batch") == 0) {
      opt.batch = true;
    } else if (std::strcmp(a, "--reserve") == 0) {
      opt.reserve = true;
    } else if (std::strcmp(a, "--peer-timeout-ms") == 0) {
      opt.peer_timeout_ms = std::atoi(value(i));
    } else if (std::strcmp(a, "--trace-dir") == 0) {
      opt.trace_dir = value(i);
    } else if (std::strcmp(a, "--watch") == 0) {
      opt.watch = true;
    } else if (std::strcmp(a, "--telemetry-out") == 0) {
      opt.telemetry_out = value(i);
    } else if (std::strcmp(a, "--telemetry-interval-ms") == 0) {
      opt.telemetry_interval_ms = std::atoi(value(i));
    } else if (std::strcmp(a, "--timeout") == 0) {
      opt.timeout_s = std::atoi(value(i));
    } else if (std::strcmp(a, "--no-verify") == 0) {
      opt.verify = false;
    } else if (std::strcmp(a, "--kill-rank") == 0) {
      opt.kill_rank = std::atoi(value(i));
    } else if (std::strcmp(a, "--kill-after-ms") == 0) {
      opt.kill_after_ms = std::atoi(value(i));
    } else if (std::strcmp(a, "--hosts") == 0) {
      opt.hosts_file = value(i);
    } else if (std::strcmp(a, "--worker") == 0) {
      opt.worker = true;
    } else if (std::strcmp(a, "--rank") == 0) {
      opt.rank = std::atoi(value(i));
    } else {
      usage(argv[0]);
    }
  }
  if (opt.procs < 1 || opt.procs > 256) usage(argv[0]);
  if (opt.worker && (opt.rank < 0 || opt.rank >= opt.procs)) usage(argv[0]);
  return opt;
}

/// "exact" or "zp:P" → engine coefficient options; exits on junk.
CoeffOptions parse_coeff(const std::string& spec) {
  if (spec == "exact") return CoeffOptions::exact();
  if (spec.rfind("zp:", 0) == 0) {
    std::uint64_t p = std::strtoull(spec.c_str() + 3, nullptr, 10);
    if (p < 3 || p % 2 == 0 || p >= (std::uint64_t{1} << 62) || !is_prime_u64(p)) {
      std::fprintf(stderr, "error: --coeff zp:P needs an odd prime 3 <= P < 2^62 (got '%s')\n",
                   spec.c_str());
      std::exit(2);
    }
    return CoeffOptions::zp(p);
  }
  std::fprintf(stderr, "error: --coeff must be 'exact' or 'zp:P' (got '%s')\n", spec.c_str());
  std::exit(2);
}

int base_port(const Options& opt) {
  if (opt.port != 0) return opt.port;
  // Derive a per-invocation base so concurrent test runs don't collide.
  return 21000 + static_cast<int>(::getpid() % 20000);
}

std::vector<NetEndpoint> make_endpoints(const Options& opt) {
  std::vector<NetEndpoint> eps;
  if (!opt.hosts_file.empty()) {
    std::ifstream in(opt.hosts_file);
    if (!in) {
      std::fprintf(stderr, "error: cannot open hosts file %s\n", opt.hosts_file.c_str());
      std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      NetEndpoint ep;
      std::size_t colon = line.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "error: hosts line '%s' is not host:port\n", line.c_str());
        std::exit(2);
      }
      ep.host = line.substr(0, colon);
      ep.port = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
      eps.push_back(ep);
    }
    if (static_cast<int>(eps.size()) != opt.procs) {
      std::fprintf(stderr, "error: hosts file has %zu entries, --procs is %d\n", eps.size(),
                   opt.procs);
      std::exit(2);
    }
    return eps;
  }
  int base = base_port(opt);
  for (int r = 0; r < opt.procs; ++r) {
    NetEndpoint ep;
    ep.host = "127.0.0.1";
    ep.port = static_cast<std::uint16_t>(base + r);
    eps.push_back(ep);
  }
  return eps;
}

bool write_file(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  return static_cast<bool>(out);
}

/// Live --watch dashboard. Rendered on stderr from the telemetry on_update
/// hook (rank 0 only); on a TTY it redraws in place with cursor movement,
/// otherwise it degrades to an occasional plain status line. Rates (busy %,
/// msgs/s) come from deltas between consecutive per-rank samples — the wire
/// carries counters, the renderer differentiates.
struct WatchRenderer {
  bool tty = isatty(2) != 0;
  int lines_drawn = 0;
  std::chrono::steady_clock::time_point last{};
  std::vector<TeleSample> prev;  ///< per-rank previous sample, for deltas

  static std::string bar(double f, int width) {
    if (f < 0) f = 0;
    if (f > 1) f = 1;
    int fill = static_cast<int>(f * width + 0.5);
    std::string s(static_cast<std::size_t>(width), '-');
    for (int i = 0; i < fill; ++i) s[static_cast<std::size_t>(i)] = '#';
    return s;
  }

  void render(const TelemetryAggregator& agg) {
    auto now = std::chrono::steady_clock::now();
    auto min_gap = std::chrono::milliseconds(tty ? 100 : 1000);
    if (last.time_since_epoch().count() != 0 && now - last < min_gap) return;
    last = now;

    int n = agg.nprocs();
    prev.resize(static_cast<std::size_t>(n));
    std::string out;
    char line[256];

    std::uint64_t retired = 0, zeroed = 0, queued = 0;
    for (int r = 0; r < n; ++r) {
      const TelemetryAggregator::RankState& rs = agg.rank(r);
      retired += tele_get(rs.values, TeleKey::kSpairsRetired);
      zeroed += tele_get(rs.values, TeleKey::kSpairsZeroed);
      queued += tele_get(rs.values, TeleKey::kQueueDepth);
    }
    std::snprintf(line, sizeof line,
                  "progress [%s] %5.1f%%  pairs %llu done / %llu queued  "
                  "frames %llu (lost %llu)\n",
                  bar(agg.progress(), 30).c_str(), agg.progress() * 100.0,
                  static_cast<unsigned long long>(retired + zeroed),
                  static_cast<unsigned long long>(queued),
                  static_cast<unsigned long long>(agg.frames_received()),
                  static_cast<unsigned long long>(agg.dropped_frames()));
    out += line;

    if (!tty) {
      // Non-interactive: one summary line per second is plenty.
      std::fputs(out.c_str(), stderr);
      return;
    }

    for (int r = 0; r < n; ++r) {
      const TelemetryAggregator::RankState& rs = agg.rank(r);
      TeleSample& pv = prev[static_cast<std::size_t>(r)];
      std::uint64_t dt = tele_get(rs.values, TeleKey::kTime) - tele_get(pv, TeleKey::kTime);
      double busy = 0.0, msgs_s = 0.0;
      if (dt > 0) {
        std::uint64_t didle =
            tele_get(rs.values, TeleKey::kIdleUnits) - tele_get(pv, TeleKey::kIdleUnits);
        busy = didle <= dt ? 1.0 - static_cast<double>(didle) / static_cast<double>(dt) : 0.0;
        std::uint64_t dmsgs =
            tele_get(rs.values, TeleKey::kMsgsSent) - tele_get(pv, TeleKey::kMsgsSent) +
            tele_get(rs.values, TeleKey::kMsgsRecv) - tele_get(pv, TeleKey::kMsgsRecv);
        msgs_s = static_cast<double>(dmsgs) * 1e9 / static_cast<double>(dt);
      }
      pv = rs.values;
      std::snprintf(line, sizeof line,
                    "rank %2d [%s] %4.0f%% busy  q=%-5llu deg=%-3llu "
                    "basis=%-4llu %7.0f msg/s%s\n",
                    r, bar(busy, 16).c_str(), busy * 100.0,
                    static_cast<unsigned long long>(tele_get(rs.values, TeleKey::kQueueDepth)),
                    static_cast<unsigned long long>(tele_get(rs.values, TeleKey::kDegree)),
                    static_cast<unsigned long long>(tele_get(rs.values, TeleKey::kBasisSize)),
                    msgs_s, rs.synced ? "" : "  (stale)");
      out += line;
    }

    // Redraw in place: move the cursor back up over the previous frame and
    // clear each line as it is rewritten.
    if (lines_drawn > 0) std::fprintf(stderr, "\x1b[%dA", lines_drawn);
    lines_drawn = 1 + n;
    std::string painted;
    std::size_t start = 0;
    while (start < out.size()) {
      std::size_t nl = out.find('\n', start);
      painted += "\x1b[2K";
      painted += out.substr(start, nl - start + 1);
      start = nl + 1;
    }
    std::fputs(painted.c_str(), stderr);
    std::fflush(stderr);
  }
};

int run_worker(const Options& opt) {
  if (!has_problem(opt.problem)) {
    std::fprintf(stderr, "error: unknown problem '%s'\n", opt.problem.c_str());
    return 2;
  }
  PolySystem sys = load_problem(opt.problem);

  SocketMachineConfig mc;
  mc.net.rank = opt.rank;
  mc.net.nprocs = opt.procs;
  mc.net.peers = make_endpoints(opt);
  mc.net.peer_timeout_ms = opt.peer_timeout_ms;
  if (opt.net_chaos != 0) {
    mc.net.chaos = ChaosConfig::net_intensity(opt.net_chaos, opt.chaos_seed);
  }

  Tracer tracer;
  MetricsRegistry metrics(opt.procs);
  TelemetryConfig tc;
  if (opt.telemetry_interval_ms > 0) {
    tc.interval_ms = static_cast<std::uint64_t>(opt.telemetry_interval_ms);
  }
  Telemetry tele(tc);
  CoeffOptions coeff = parse_coeff(opt.coeff);
  ParallelConfig cfg;
  cfg.gb.coeff = coeff;
  cfg.nprocs = opt.procs;
  cfg.seed = opt.seed;
  cfg.reserve_coordinator = opt.reserve;
  if (opt.batch) {
    cfg.wire.batch_invalidations = true;
    cfg.wire.batch_fetches = true;
  }
  if (!opt.trace_dir.empty()) {
    cfg.tracer = &tracer;
    cfg.metrics = &metrics;
  }
  bool telemetry_on = opt.watch || !opt.telemetry_out.empty();
  if (telemetry_on) cfg.telemetry = &tele;

  // Only rank 0 ever aggregates; the dashboard and the JSONL flight log hang
  // off its on_update hook. The hook runs under the aggregator lock, so it
  // reads the aggregator it is handed and never calls back into `tele`.
  WatchRenderer watch;
  std::FILE* flight_log = nullptr;
  if (opt.rank == 0 && telemetry_on) {
    if (!opt.telemetry_out.empty()) {
      flight_log = std::fopen(opt.telemetry_out.c_str(), "w");
      if (flight_log == nullptr) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", opt.telemetry_out.c_str());
        return 2;
      }
    }
    tele.set_on_update([&](const TelemetryAggregator& agg) {
      if (flight_log != nullptr) {
        std::string line = agg.snapshot_json();
        line += '\n';
        std::fputs(line.c_str(), flight_log);
        std::fflush(flight_log);
      }
      if (opt.watch) watch.render(agg);
    });
  }

  // Arm the crash flight recorder alongside tracing: any rank that dies to a
  // fatal signal or a NetError leaves DIR/rankN.flight.json behind. Lazy arm:
  // the per-rank tracer/telemetry views only exist once the run starts.
  if (!opt.trace_dir.empty()) {
    FlightRecorder::instance().arm(
        opt.trace_dir + "/rank" + std::to_string(opt.rank) + ".flight.json", opt.rank, &tracer,
        telemetry_on ? &tele : nullptr);
  }

  SocketMachine machine(mc);
  ParallelResult res;
  try {
    res = groebner_parallel_socket(machine, sys, cfg);
  } catch (const NetError& e) {
    std::fprintf(stderr, "rank %d: transport failure: %s\n", opt.rank, e.what());
    std::string reason = "NetError: ";
    reason += e.what();
    FlightRecorder::instance().dump_now(reason.c_str());
    return 3;
  }
  FlightRecorder::instance().disarm();

  if (opt.rank == 0 && telemetry_on) {
    // Final state: one closing JSONL line, and step the dashboard off its
    // in-place redraw so the summary lines below start on a fresh row.
    if (flight_log != nullptr) {
      std::string line = tele.snapshot_json();
      line += '\n';
      std::fputs(line.c_str(), flight_log);
      std::fclose(flight_log);
    }
    if (opt.watch && watch.lines_drawn > 0) std::fputc('\n', stderr);
  }

  const TransportStats& net = machine.transport_stats();
  if (!opt.trace_dir.empty()) {
    // Per-rank wire counters ride along in the metrics snapshot.
    metrics.add("net.frames_sent", opt.rank, net.frames_sent);
    metrics.add("net.frames_received", opt.rank, net.frames_received);
    metrics.add("net.bytes_sent", opt.rank, net.bytes_sent);
    metrics.add("net.bytes_received", opt.rank, net.bytes_received);
    metrics.add("net.retransmits", opt.rank, net.retransmits);
    metrics.add("net.dup_frames_dropped", opt.rank, net.dup_frames_dropped);
    metrics.add("net.chaos_drops", opt.rank, net.chaos_drops);
    metrics.add("net.chaos_dups", opt.rank, net.chaos_dups);
    metrics.add("net.chaos_delays", opt.rank, net.chaos_delays);
    metrics.add("net.telemetry_sent", opt.rank, net.telemetry_sent);
    metrics.add("net.telemetry_received", opt.rank, net.telemetry_received);
    metrics.add("net.telemetry_lost", opt.rank, net.telemetry_lost);
    std::string prefix = opt.trace_dir + "/rank" + std::to_string(opt.rank);
    std::vector<std::uint8_t> bytes = tracer.data().encode();
    if (!write_file(prefix + ".gbdt", bytes.data(), bytes.size())) return 1;
    std::string json = metrics.snapshot().to_json();
    if (!write_file(prefix + ".metrics.json", json.data(), json.size())) return 1;
  }

  if (opt.rank != 0) return 0;

  std::printf("%s  P=%d  backend=socket  coeff=%s  seed=%llu  basis=%zu  makespan=%.3f ms\n",
              opt.problem.c_str(), opt.procs, opt.coeff.c_str(),
              static_cast<unsigned long long>(opt.seed), res.basis_ids.size(),
              static_cast<double>(res.machine.makespan) / 1e6);
  std::printf("messages=%llu  wire: frames=%llu retransmits=%llu dups_dropped=%llu "
              "chaos(drop/dup/delay)=%llu/%llu/%llu\n",
              static_cast<unsigned long long>(res.machine.total(&ProcCommStats::messages_sent)),
              static_cast<unsigned long long>(net.frames_sent),
              static_cast<unsigned long long>(net.retransmits),
              static_cast<unsigned long long>(net.dup_frames_dropped),
              static_cast<unsigned long long>(net.chaos_drops),
              static_cast<unsigned long long>(net.chaos_dups),
              static_cast<unsigned long long>(net.chaos_delays));
  if (telemetry_on) {
    const TelemetryAggregator& agg = tele.aggregator();
    std::printf("telemetry: frames=%llu lost=%llu stale+malformed=%llu progress=%.1f%%\n",
                static_cast<unsigned long long>(agg.frames_received()),
                static_cast<unsigned long long>(agg.dropped_frames()),
                static_cast<unsigned long long>(agg.malformed_frames()),
                agg.progress() * 100.0);
  }
  if (!res.violations.empty()) {
    for (const std::string& v : res.violations) {
      std::fprintf(stderr, "invariant violation: %s\n", v.c_str());
    }
    return 1;
  }
  if (opt.verify) {
    std::vector<Polynomial> inputs;
    for (const auto& p : sys.polys) {
      if (!p.is_zero()) inputs.push_back(p);
    }
    std::string why;
    if (!verify_groebner_result(sys.ctx, inputs, res.basis, &why, coeff)) {
      std::fprintf(stderr, "certificate FAILED: %s\n", why.c_str());
      return 1;
    }
    std::printf("certificate OK (%zu basis elements)\n", res.basis.size());
  }
  return 0;
}

int run_launcher(const Options& opt, char** argv) {
  if (!opt.hosts_file.empty()) {
    std::fprintf(stderr,
                 "error: with --hosts, start each rank yourself:\n"
                 "  %s --worker --rank R --hosts FILE ...\n",
                 argv[0]);
    return 2;
  }
  int base = base_port(opt);
  std::vector<pid_t> pids(static_cast<std::size_t>(opt.procs), -1);
  for (int r = 0; r < opt.procs; ++r) {
    pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      for (pid_t p : pids) {
        if (p > 0) ::kill(p, SIGKILL);
      }
      return 1;
    }
    if (pid == 0) {
      // Child: re-exec ourselves in worker mode with the same flags plus
      // identity. /proc/self/exe keeps this independent of argv[0] and cwd.
      std::vector<std::string> args;
      for (int i = 0; argv[i] != nullptr; ++i) args.push_back(argv[i]);
      args.push_back("--worker");
      args.push_back("--rank");
      args.push_back(std::to_string(r));
      args.push_back("--port");
      args.push_back(std::to_string(base));
      std::vector<char*> cargs;
      for (std::string& s : args) cargs.push_back(s.data());
      cargs.push_back(nullptr);
      ::execv("/proc/self/exe", cargs.data());
      std::perror("execv");
      ::_exit(127);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Failure drill: kill one rank mid-run, then expect the survivors to
  // detect it (peer EOF / heartbeat silence) and exit with a clean error.
  if (opt.kill_rank >= 0 && opt.kill_rank < opt.procs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.kill_after_ms));
    std::printf("launcher: killing rank %d (failure drill)\n", opt.kill_rank);
    ::kill(pids[static_cast<std::size_t>(opt.kill_rank)], SIGKILL);
  }

  // Watchdog: collect children, SIGKILL everyone at the deadline.
  std::vector<int> status(static_cast<std::size_t>(opt.procs), -1);
  int remaining = opt.procs;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(opt.timeout_s);
  bool timed_out = false;
  while (remaining > 0) {
    int st = 0;
    pid_t done = ::waitpid(-1, &st, WNOHANG);
    if (done > 0) {
      for (int r = 0; r < opt.procs; ++r) {
        if (pids[static_cast<std::size_t>(r)] == done) {
          status[static_cast<std::size_t>(r)] = st;
          remaining -= 1;
        }
      }
      continue;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      timed_out = true;
      std::fprintf(stderr, "launcher: timeout after %d s, killing all ranks\n", opt.timeout_s);
      for (pid_t p : pids) ::kill(p, SIGKILL);
      for (int r = 0; r < opt.procs; ++r) {
        if (status[static_cast<std::size_t>(r)] == -1) {
          ::waitpid(pids[static_cast<std::size_t>(r)], &st, 0);
          status[static_cast<std::size_t>(r)] = st;
          remaining -= 1;
        }
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  bool all_ok = true;
  for (int r = 0; r < opt.procs; ++r) {
    int st = status[static_cast<std::size_t>(r)];
    if (WIFEXITED(st)) {
      int code = WEXITSTATUS(st);
      if (code != 0) {
        std::fprintf(stderr, "launcher: rank %d exited with code %d\n", r, code);
      }
      all_ok = all_ok && code == 0;
    } else if (WIFSIGNALED(st)) {
      std::fprintf(stderr, "launcher: rank %d killed by signal %d\n", r, WTERMSIG(st));
      all_ok = false;
    } else {
      all_ok = false;
    }
  }
  if (timed_out) return 124;

  if (opt.kill_rank >= 0) {
    // Drill verdict: the killed rank must be signaled, every survivor must
    // exit 3 (clean NetError) — no rank may hang (covered by the watchdog).
    bool drill_ok = WIFSIGNALED(status[static_cast<std::size_t>(opt.kill_rank)]);
    for (int r = 0; r < opt.procs; ++r) {
      if (r == opt.kill_rank) continue;
      int st = status[static_cast<std::size_t>(r)];
      drill_ok = drill_ok && WIFEXITED(st) && WEXITSTATUS(st) == 3;
    }
    std::printf("failure drill: %s\n", drill_ok ? "PASS (clean transport errors)" : "FAIL");
    return drill_ok ? 0 : 1;
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_args(argc, argv);
  if (opt.worker) return run_worker(opt);
  return run_launcher(opt, argv);
}
