// End-to-end tests for the GB-as-a-service daemon: submission, scheduling,
// admission control, cancellation, deadlines, the kill-a-worker chaos drill,
// progress streaming and the exactly-one-result contract.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/client.hpp"

namespace gbd {
namespace {

constexpr int kWaitMs = 60'000;

std::unique_ptr<JobServer> start_server(ServerConfig cfg) {
  auto server = std::make_unique<JobServer>(std::move(cfg));
  std::string err;
  EXPECT_TRUE(server->start(&err)) << err;
  return server;
}

ServeClient connect_to(const JobServer& server) {
  ServeClient client;
  std::string err;
  EXPECT_TRUE(client.connect("127.0.0.1", server.port(), &err)) << err;
  return client;
}

SubmitRequest named_job(std::uint64_t token, const std::string& problem) {
  SubmitRequest req;
  req.token = token;
  req.source = 1;
  req.problem = problem;
  return req;
}

SubmitRequest text_job(std::uint64_t token, const std::string& text) {
  SubmitRequest req;
  req.token = token;
  req.source = 0;
  req.problem = text;
  return req;
}

TEST(ServeTest, SubmitComputeVerifyRoundTrip) {
  ServerConfig cfg;
  cfg.workers = 2;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  SubmitRequest req = text_job(7, "vars x, y;\norder grlex;\nx^2 - y;\nx*y - 1;\n");
  req.want_cert = true;
  ASSERT_TRUE(client.submit(req));
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(7, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kDone);
  EXPECT_EQ(res.cert, 1) << res.error;
  EXPECT_FALSE(res.cache_hit);
  EXPECT_FALSE(res.basis.empty());
  // The basis is rendered in the submitted variable names.
  bool mentions_xy = false;
  for (const std::string& p : res.basis)
    if (p.find('x') != std::string::npos || p.find('y') != std::string::npos) mentions_xy = true;
  EXPECT_TRUE(mentions_xy);

  // Named problems work too.
  ASSERT_TRUE(client.submit(named_job(8, "katsura(3)")));
  ASSERT_TRUE(client.wait_result(8, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kDone);
}

TEST(ServeTest, CacheHitsAcrossRenamingAndConnections) {
  ServerConfig cfg;
  cfg.workers = 2;
  auto server = start_server(std::move(cfg));

  {
    ServeClient client = connect_to(*server);
    SubmitRequest req = text_job(1, "vars x, y;\norder grlex;\nx^2*y - 1;\nx + y;\n");
    req.want_cert = true;
    ASSERT_TRUE(client.submit(req));
    JobResultMsg res;
    ASSERT_TRUE(client.wait_result(1, &res, kWaitMs));
    EXPECT_EQ(res.status, JobState::kDone);
    EXPECT_FALSE(res.cache_hit);
  }
  {
    // Renamed variables, reordered + rescaled generators, fresh connection:
    // the same equivalence class, so a hit.
    ServeClient client = connect_to(*server);
    SubmitRequest req = text_job(2, "vars u, v;\norder grlex;\n2*u + 2*v;\n5*u^2*v - 5;\n");
    req.want_cert = true;
    ASSERT_TRUE(client.submit(req));
    JobResultMsg res;
    ASSERT_TRUE(client.wait_result(2, &res, kWaitMs));
    EXPECT_EQ(res.status, JobState::kDone);
    EXPECT_TRUE(res.cache_hit);
    EXPECT_EQ(res.cert, 1);
    // Rendered in *this* submission's names.
    bool mentions_uv = false;
    for (const std::string& p : res.basis)
      if (p.find('u') != std::string::npos || p.find('v') != std::string::npos) mentions_uv = true;
    EXPECT_TRUE(mentions_uv);

    // A genuinely different system must not hit.
    SubmitRequest other = text_job(3, "vars u, v;\norder grlex;\nu^2*v - 2;\nu + v;\n");
    ASSERT_TRUE(client.submit(other));
    ASSERT_TRUE(client.wait_result(3, &res, kWaitMs));
    EXPECT_EQ(res.status, JobState::kDone);
    EXPECT_FALSE(res.cache_hit);
  }
  CacheStats cs = server->cache_stats();
  EXPECT_GE(cs.hits, 1u);
  EXPECT_GE(cs.misses, 2u);
}

TEST(ServeTest, PrioritySchedulingRunsHighFirst) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  // Three distinct low-priority jobs, then one high-priority; with a single
  // worker released afterwards, the high one must finish first.
  for (std::uint64_t t = 1; t <= 3; ++t) {
    SubmitRequest req = named_job(t, "sparse(4," + std::to_string(40 + t) + ")");
    req.priority = 1;
    ASSERT_TRUE(client.submit(req));
  }
  SubmitRequest urgent = named_job(9, "sparse(4,99)");
  urgent.priority = 10;
  ASSERT_TRUE(client.submit(urgent));
  // Admission happens on the I/O thread; wait for all four to be queued
  // before releasing the worker.
  for (int spin = 0; spin < 2000 && server->queue_depth() < 4; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server->queue_depth(), 4u);

  server->resume();
  std::vector<std::uint64_t> completion;
  for (int i = 0; i < 4; ++i) {
    ClientUpdate u;
    int pr;
    do {
      pr = client.poll(&u, kWaitMs);
      ASSERT_GT(pr, 0);
    } while (u.kind != ClientUpdate::Kind::kResult);
    EXPECT_EQ(u.result.status, JobState::kDone) << u.result.error;
    completion.push_back(u.result.token);
  }
  EXPECT_EQ(completion.front(), 9u);
}

TEST(ServeTest, AdmissionControlRejectsBeyondCapacity) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  int rejected = 0, admitted = 0;
  for (std::uint64_t t = 1; t <= 5; ++t)
    ASSERT_TRUE(client.submit(named_job(t, "sparse(3," + std::to_string(t) + ")")));
  // Admission happens on the I/O thread. Rejections come back at once, while
  // admitted jobs cannot finish before resume(): collect the three "queue
  // full" results first, so a resumed worker cannot drain the queue and make
  // room for a submission the I/O thread has not admitted yet.
  for (int i = 0; i < 5; ++i) {
    if (i == 3) server->resume();
    ClientUpdate u;
    int pr;
    do {
      pr = client.poll(&u, kWaitMs);
      ASSERT_GT(pr, 0);
    } while (u.kind != ClientUpdate::Kind::kResult);
    if (u.result.status == JobState::kRejected) {
      ++rejected;
      EXPECT_NE(u.result.error.find("queue full"), std::string::npos);
    } else {
      EXPECT_EQ(u.result.status, JobState::kDone);
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(rejected, 3);
}

TEST(ServeTest, BadSubmissionsAreRejectedWithDiagnostics) {
  ServerConfig cfg;
  cfg.workers = 1;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  JobResultMsg res;
  ASSERT_TRUE(client.submit(text_job(1, "vars x;\nx^2 -;\n")));
  ASSERT_TRUE(client.wait_result(1, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kRejected);
  EXPECT_NE(res.error.find("parse error"), std::string::npos);

  ASSERT_TRUE(client.submit(named_job(2, "no_such_system")));
  ASSERT_TRUE(client.wait_result(2, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kRejected);
  EXPECT_NE(res.error.find("unknown problem"), std::string::npos);

  SubmitRequest bad_prime = named_job(3, "katsura(3)");
  bad_prime.zp_prime = 15;  // composite
  ASSERT_TRUE(client.submit(bad_prime));
  ASSERT_TRUE(client.wait_result(3, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kRejected);
  EXPECT_NE(res.error.find("prime"), std::string::npos);

  // The daemon is still healthy afterwards.
  SubmitRequest good = named_job(4, "katsura(3)");
  good.zp_prime = 32003;
  ASSERT_TRUE(client.submit(good));
  ASSERT_TRUE(client.wait_result(4, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kDone);
}

TEST(ServeTest, HostileBytesDropTheConnectionNotTheDaemon) {
  ServerConfig cfg;
  cfg.workers = 1;
  // Paused so the abuser's first job stays queued: its token is provably
  // still live when the duplicate arrives, making the reuse unambiguous.
  cfg.start_paused = true;
  auto server = start_server(std::move(cfg));

  // Raw garbage: not even a GBDF frame header.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::string garbage(512, 'Z');
  ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
  char buf[64];
  ssize_t n;
  do {
    n = ::recv(fd, buf, sizeof buf, 0);  // server closes on decode error
  } while (n > 0);
  EXPECT_EQ(n, 0);
  ::close(fd);

  // Token reuse on a live connection is a protocol violation: dropped too.
  {
    ServeClient abuser = connect_to(*server);
    ASSERT_TRUE(abuser.submit(named_job(1, "katsura(3)")));
    ASSERT_TRUE(abuser.submit(named_job(1, "katsura(3)")));
    ClientUpdate u;
    int pr = 1;
    while (pr > 0) pr = abuser.poll(&u, 2000);
    EXPECT_EQ(pr, -1);
  }

  // A well-behaved client still gets service.
  server->resume();
  ServeClient client = connect_to(*server);
  ASSERT_TRUE(client.submit(named_job(5, "katsura(3)")));
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(5, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kDone);
}

TEST(ServeTest, CancelQueuedAndRunningJobs) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  // Queued cancel: nothing is running, so token 1 is still in the queue.
  ASSERT_TRUE(client.submit(named_job(1, "katsura(4)")));
  ASSERT_TRUE(client.cancel(1));
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(1, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kCancelled);
  EXPECT_NE(res.error.find("queued"), std::string::npos);

  // Running cancel: start a long job, wait until it reports kRunning, then
  // cancel — the engine's stop seam aborts at the next pair boundary.
  SubmitRequest heavy = named_job(2, "cyclic(7)");
  heavy.subscribe = true;
  ASSERT_TRUE(client.submit(heavy));
  server->resume();
  bool running_seen = false;
  while (!running_seen) {
    ClientUpdate u;
    ASSERT_GT(client.poll(&u, kWaitMs), 0);
    ASSERT_NE(u.kind, ClientUpdate::Kind::kResult) << "finished before cancel";
    if (u.kind == ClientUpdate::Kind::kEvent && u.event.state == JobState::kRunning)
      running_seen = true;
  }
  ASSERT_TRUE(client.cancel(2));
  ASSERT_TRUE(client.wait_result(2, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kCancelled);
  EXPECT_GT(server->stats().cancelled, 1u);
}

TEST(ServeTest, DeadlinesExpireQueuedAndRunningJobs) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  // Queued expiry: the pool is paused, so the deadline fires in the queue.
  SubmitRequest req = named_job(1, "katsura(4)");
  req.deadline_ms = 100;
  ASSERT_TRUE(client.submit(req));
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(1, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kTimedOut);
  EXPECT_NE(res.error.find("queue"), std::string::npos);

  // Running expiry: a job far larger than its deadline.
  server->resume();
  SubmitRequest heavy = named_job(2, "cyclic(7)");
  heavy.deadline_ms = 200;
  ASSERT_TRUE(client.submit(heavy));
  ASSERT_TRUE(client.wait_result(2, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kTimedOut);
  EXPECT_EQ(server->stats().timed_out, 2u);
}

TEST(ServeTest, ChaosDrillWorkerDeathRequeuesAndCompletes) {
  std::string flight = "/tmp/gbd_serve_chaos_flight.json";
  std::remove(flight.c_str());

  ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_attempts = 3;
  cfg.flight_path = flight;
  // Kill the first execution attempt of token 42's job, as if the worker's
  // rank died mid-computation; later attempts survive.
  cfg.fault_hook = [](const Job& job) {
    if (job.req.token == 42 && job.attempt == 1)
      throw NetError("rank 1 timed out mid-reduction (injected)");
  };
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  SubmitRequest req = named_job(42, "katsura(4)");
  req.subscribe = true;
  req.want_cert = true;
  ASSERT_TRUE(client.submit(req));

  bool requeued_seen = false;
  int results = 0;
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(42, &res, kWaitMs, [&](const JobEventMsg& e) {
    if (e.state == JobState::kRequeued) requeued_seen = true;
  }));
  ++results;
  // The job survived the worker death: completed, verified, on attempt 2.
  EXPECT_EQ(res.status, JobState::kDone) << res.error;
  EXPECT_EQ(res.cert, 1);
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_TRUE(requeued_seen);
  EXPECT_EQ(server->stats().requeues, 1u);

  // Zero lost, zero duplicated: no further result arrives for this token.
  ClientUpdate u;
  EXPECT_EQ(client.poll(&u, 300), 0);
  EXPECT_EQ(results, 1);

  // The flight recorder captured the death and names the dead rank.
  std::ifstream in(flight);
  ASSERT_TRUE(in.good()) << "no flight record at " << flight;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("rank 1"), std::string::npos) << ss.str();
  FlightRecorder::instance().disarm();
  std::remove(flight.c_str());
}

TEST(ServeTest, AttemptsExhaustedFailsCleanly) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_attempts = 2;
  cfg.fault_hook = [](const Job& job) {
    if (job.req.token == 13) throw NetError("rank 2 lost (injected, every attempt)");
  };
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  ASSERT_TRUE(client.submit(named_job(13, "katsura(3)")));
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(13, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kFailed);
  EXPECT_NE(res.error.find("attempts exhausted"), std::string::npos);
  EXPECT_EQ(res.attempts, 2u);

  // The daemon survives and serves the next job.
  ASSERT_TRUE(client.submit(named_job(14, "katsura(3)")));
  ASSERT_TRUE(client.wait_result(14, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kDone);
}

TEST(ServeTest, ProgressEventsStreamMonotonically) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.backend = ServeBackend::kSim;  // deterministic telemetry-backed progress
  cfg.backend_procs = 4;
  cfg.progress_interval_ms = 5;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  // katsura(4) on the sim machine runs ~130ms: long enough for several
  // telemetry ticks at a 5ms interval, short enough that server teardown
  // (which must join the uncancellable sim job) stays fast.
  SubmitRequest req = named_job(6, "katsura(4)");
  req.subscribe = true;
  ASSERT_TRUE(client.submit(req));
  std::uint32_t last = 0;
  int events = 0;
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(6, &res, kWaitMs, [&](const JobEventMsg& e) {
    ++events;
    EXPECT_GE(e.progress_permille, last) << "progress must never regress";
    last = std::max(last, e.progress_permille);
    EXPECT_LE(e.progress_permille, 1000u);
  }));
  EXPECT_EQ(res.status, JobState::kDone) << res.error;
  EXPECT_GE(events, 2) << "expected at least queued+running events";
}

TEST(ServeTest, ZpJobsComputeOverTheRequestedField) {
  ServerConfig cfg;
  cfg.workers = 1;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  SubmitRequest req = named_job(1, "katsura(4)");
  req.zp_prime = 32003;
  req.want_cert = true;
  ASSERT_TRUE(client.submit(req));
  JobResultMsg res;
  ASSERT_TRUE(client.wait_result(1, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kDone) << res.error;
  EXPECT_EQ(res.cert, 1);

  // Same ideal over a different field: a different cache entry.
  SubmitRequest exact = named_job(2, "katsura(4)");
  exact.want_cert = true;
  ASSERT_TRUE(client.submit(exact));
  ASSERT_TRUE(client.wait_result(2, &res, kWaitMs));
  EXPECT_EQ(res.status, JobState::kDone);
  EXPECT_FALSE(res.cache_hit) << "Zp and exact results must not alias";
}

TEST(ServeTest, StatsOverTheWire) {
  ServerConfig cfg;
  cfg.workers = 2;
  auto server = start_server(std::move(cfg));
  ServeClient client = connect_to(*server);

  for (std::uint64_t t = 1; t <= 3; ++t) {
    ASSERT_TRUE(client.submit(named_job(t, "katsura(3)")));
    JobResultMsg res;
    ASSERT_TRUE(client.wait_result(t, &res, kWaitMs));
    EXPECT_EQ(res.status, JobState::kDone);
  }
  ServerStatsMsg s;
  ASSERT_TRUE(client.stats(&s, kWaitMs));
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.done, 3u);
  EXPECT_EQ(s.workers, 2u);
  EXPECT_GE(s.cache_hits, 2u);  // identical submissions hit after the first
  EXPECT_EQ(s.backend, ServeBackend::kSequential);
}

}  // namespace
}  // namespace gbd
