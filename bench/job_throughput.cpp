// PR 10 exhibit: GB-as-a-service job throughput.
//
// Drives the real daemon stack end to end — JobServer over TCP, the GBDF
// serve protocol and the canonical-form result cache — with a queued corpus
// of >= 1000 jobs, and reports jobs/sec plus p50/p99 client-observed latency
// (with --out FILE, in the JSON format of BENCH_pr10.json).
//
// Two scenarios, same harness:
//   cold_distinct  every job a distinct ideal: pure compute throughput
//   warm_cache     1000 jobs over 25 distinct ideals: cache-served rate
//
// Every job asks for a certificate (want_cert): a scenario only counts as
// passed when every result is kDone with a verified certificate, and no
// token is lost or answered twice. The server starts paused so the whole
// corpus is queued (admission-controlled) before the first worker runs —
// the measured window is resume() -> last result.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace gbd {
namespace {

std::uint64_t mono_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct ScenarioRow {
  std::string name;
  std::size_t jobs = 0;
  std::size_t distinct = 0;
  double wall_ms = 0;
  double jobs_per_sec = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  std::uint64_t cache_hits = 0;
  std::size_t certs = 0;
  std::size_t lost = 0;
  std::size_t duplicated = 0;
  bool ok = false;
};

double quantile_ms(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Queue `jobs` submissions across `nconns` connections against a paused
/// server, release the workers, and drain every result.
ScenarioRow run_scenario(const std::string& name, std::size_t jobs, std::size_t distinct,
                         std::uint32_t workers) {
  ScenarioRow row;
  row.name = name;
  row.jobs = jobs;
  row.distinct = distinct;

  ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = jobs + 64;
  cfg.cache_capacity = 512;
  cfg.start_paused = true;
  JobServer server(std::move(cfg));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "server start failed: %s\n", err.c_str());
    return row;
  }

  const std::size_t nconns = 4;
  std::vector<ServeClient> conns(nconns);
  for (std::size_t c = 0; c < nconns; ++c) {
    if (!conns[c].connect("127.0.0.1", server.port(), &err)) {
      std::fprintf(stderr, "connect failed: %s\n", err.c_str());
      return row;
    }
  }

  // Tokens are 1..jobs, dealt round-robin over the connections. The ideal
  // cycles over `distinct` seeded sparse systems, so warm scenarios resolve
  // mostly from the canonical-form cache.
  std::vector<std::size_t> expected(nconns, 0);
  for (std::size_t i = 0; i < jobs; ++i) {
    SubmitRequest req;
    req.token = i + 1;
    req.source = 1;
    req.problem = "sparse(4," + std::to_string(100 + i % distinct) + ")";
    req.want_cert = true;
    if (!conns[i % nconns].submit(req)) {
      std::fprintf(stderr, "submit %zu failed\n", i);
      return row;
    }
    ++expected[i % nconns];
  }

  // Admission runs on the server's I/O thread: wait until the whole corpus
  // is actually queued so the measured window starts at full depth.
  for (int spin = 0; spin < 20'000 && server.queue_depth() < jobs; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (server.queue_depth() < jobs) {
    std::fprintf(stderr, "%s: only %zu of %zu jobs queued\n", name.c_str(), server.queue_depth(),
                 jobs);
    return row;
  }

  std::uint64_t t0 = mono_ms();
  server.resume();

  // Drain round-robin so no connection's results back up; stamp arrivals.
  std::map<std::uint64_t, std::size_t> results_per_token;
  std::vector<double> latencies;
  latencies.reserve(jobs);
  std::size_t got = 0;
  row.certs = 0;
  std::uint64_t deadline = t0 + 600'000;
  while (got < jobs && mono_ms() < deadline) {
    bool progressed = false;
    for (std::size_t c = 0; c < nconns; ++c) {
      if (expected[c] == 0) continue;
      ClientUpdate u;
      int pr = conns[c].poll(&u, 2);
      if (pr < 0) {
        std::fprintf(stderr, "%s: connection %zu dropped\n", name.c_str(), c);
        return row;
      }
      if (pr == 0) continue;
      progressed = true;
      if (u.kind != ClientUpdate::Kind::kResult) continue;
      ++results_per_token[u.result.token];
      --expected[c];
      ++got;
      latencies.push_back(static_cast<double>(mono_ms() - t0));
      if (u.result.status == JobState::kDone && u.result.cert == 1) ++row.certs;
      else
        std::fprintf(stderr, "%s: token %llu status=%s cert=%d %s\n", name.c_str(),
                     static_cast<unsigned long long>(u.result.token),
                     job_state_name(u.result.status), u.result.cert, u.result.error.c_str());
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t t1 = mono_ms();

  for (std::uint64_t t = 1; t <= jobs; ++t) {
    auto it = results_per_token.find(t);
    if (it == results_per_token.end()) ++row.lost;
    else if (it->second > 1) ++row.duplicated;
  }

  row.wall_ms = static_cast<double>(t1 - t0);
  row.jobs_per_sec = row.wall_ms > 0 ? 1000.0 * static_cast<double>(got) / row.wall_ms : 0;
  row.p50_latency_ms = quantile_ms(latencies, 0.50);
  row.p99_latency_ms = quantile_ms(latencies, 0.99);
  row.cache_hits = server.cache_stats().hits;
  row.ok = got == jobs && row.certs == jobs && row.lost == 0 && row.duplicated == 0;
  server.stop();
  return row;
}

int run(std::size_t jobs, const std::string& out_path) {
  std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::uint32_t workers = std::min(hw, 4u);

  std::vector<ScenarioRow> rows;
  rows.push_back(run_scenario("cold_distinct", jobs, jobs, workers));
  rows.push_back(run_scenario("warm_cache", jobs, 25, workers));

  std::printf("%-14s %6s %9s %12s %12s %12s %10s %5s %4s %4s\n", "scenario", "jobs", "wall_ms",
              "jobs_per_sec", "p50_lat_ms", "p99_lat_ms", "cache_hits", "certs", "lost", "dup");
  bool all_ok = true;
  for (const ScenarioRow& r : rows) {
    std::printf("%-14s %6zu %9.0f %12.1f %12.1f %12.1f %10llu %5zu %4zu %4zu %s\n",
                r.name.c_str(), r.jobs, r.wall_ms, r.jobs_per_sec, r.p50_latency_ms,
                r.p99_latency_ms, static_cast<unsigned long long>(r.cache_hits), r.certs, r.lost,
                r.duplicated, r.ok ? "ok" : "FAIL");
    all_ok = all_ok && r.ok;
  }
  if (!all_ok) {
    std::fprintf(stderr, "a scenario failed its exactly-once/certificate contract\n");
    return 1;
  }
  if (out_path.empty()) return 0;

  std::ostringstream js;
  js << "{\n  \"bench\": \"pr10_job_throughput\",\n";
  js << "  \"config\": {\"workers\": " << workers << ", \"connections\": 4, "
     << "\"want_cert\": true, \"queued_before_start\": true},\n";
  js << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioRow& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"jobs\": %zu, \"distinct\": %zu, \"wall_ms\": %.0f, "
                  "\"jobs_per_sec\": %.1f, \"p50_latency_ms\": %.1f, \"p99_latency_ms\": %.1f, "
                  "\"cache_hits\": %llu, \"certs\": %zu, \"lost\": %zu, "
                  "\"duplicated\": %zu}%s\n",
                  r.name.c_str(), r.jobs, r.distinct, r.wall_ms, r.jobs_per_sec, r.p50_latency_ms,
                  r.p99_latency_ms, static_cast<unsigned long long>(r.cache_hits), r.certs, r.lost,
                  r.duplicated, i + 1 < rows.size() ? "," : "");
    js << buf;
  }
  js << "  ]\n}\n";

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
  std::size_t jobs = 1000;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      jobs = 60;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--jobs N] [--out FILE] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return gbd::run(jobs, out_path);
}
