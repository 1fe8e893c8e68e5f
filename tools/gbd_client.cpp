// gbd_client — command-line client for the gbd_serve daemon.
//
//   gbd_client --port P [--host H] stats
//   gbd_client --port P [--host H] submit (--problem NAME | --file F | --text T)
//              [--count N] [--priority K] [--deadline-ms T] [--zp PRIME]
//              [--cert] [--watch] [--print-basis] [--timeout-s T]
//
// `submit` sends N copies of the problem (distinct tokens), waits for every
// result, prints one line per job and a summary. --watch subscribes to the
// job's kJobEvent stream (state changes plus a periodic running heartbeat
// with the queue depth) and prints each event as it arrives. Exit 0 iff
// every job came back done.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"

using namespace gbd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gbd_client --port P [--host H] stats\n"
               "       gbd_client --port P [--host H] submit\n"
               "                  (--problem NAME | --file F | --text T)\n"
               "                  [--count N] [--priority K] [--deadline-ms T] [--zp PRIME]\n"
               "                  [--cert] [--watch] [--print-basis] [--timeout-s T]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string command, problem, file, text;
  int count = 1;
  std::uint32_t priority = 0;
  std::uint64_t deadline_ms = 0, zp = 0;
  bool cert = false, watch = false, print_basis = false;
  int timeout_s = 120;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--host" && (v = next())) host = v;
    else if (a == "--port" && (v = next())) port = static_cast<std::uint16_t>(std::atoi(v));
    else if (a == "--problem" && (v = next())) problem = v;
    else if (a == "--file" && (v = next())) file = v;
    else if (a == "--text" && (v = next())) text = v;
    else if (a == "--count" && (v = next())) count = std::atoi(v);
    else if (a == "--priority" && (v = next())) priority = static_cast<std::uint32_t>(std::atoi(v));
    else if (a == "--deadline-ms" && (v = next())) deadline_ms = static_cast<std::uint64_t>(std::atoll(v));
    else if (a == "--zp" && (v = next())) zp = static_cast<std::uint64_t>(std::atoll(v));
    else if (a == "--cert") cert = true;
    else if (a == "--watch") watch = true;
    else if (a == "--print-basis") print_basis = true;
    else if (a == "--timeout-s" && (v = next())) timeout_s = std::atoi(v);
    else if (command.empty() && a[0] != '-') command = a;
    else return usage();
  }
  if (port == 0 || command.empty()) return usage();

  ServeClient client;
  std::string err;
  if (!client.connect(host, port, &err)) {
    std::fprintf(stderr, "gbd_client: %s\n", err.c_str());
    return 1;
  }

  if (command == "stats") {
    ServerStatsMsg s;
    if (!client.stats(&s, timeout_s * 1000)) {
      std::fprintf(stderr, "gbd_client: stats request failed\n");
      return 1;
    }
    std::printf("workers=%u paused=%d\n", s.workers, s.paused ? 1 : 0);
    std::printf("submitted=%llu rejected=%llu done=%llu failed=%llu cancelled=%llu "
                "timed_out=%llu\n",
                (unsigned long long)s.submitted, (unsigned long long)s.rejected,
                (unsigned long long)s.done, (unsigned long long)s.failed,
                (unsigned long long)s.cancelled, (unsigned long long)s.timed_out);
    std::printf("queue_depth=%llu running=%llu\n", (unsigned long long)s.queue_depth,
                (unsigned long long)s.running);
    std::printf("cache: hits=%llu misses=%llu entries=%llu evictions=%llu\n",
                (unsigned long long)s.cache_hits, (unsigned long long)s.cache_misses,
                (unsigned long long)s.cache_entries, (unsigned long long)s.cache_evictions);
    std::printf("latency_ms: wait_p50=%llu wait_p99=%llu exec_p50=%llu exec_p99=%llu\n",
                (unsigned long long)s.wait_p50_ms, (unsigned long long)s.wait_p99_ms,
                (unsigned long long)s.exec_p50_ms, (unsigned long long)s.exec_p99_ms);
    return 0;
  }

  if (command != "submit") return usage();
  SubmitRequest req;
  if (!problem.empty()) {
    req.source = 1;
    req.problem = problem;
  } else if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "gbd_client: cannot read %s\n", file.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    req.source = 0;
    req.problem = ss.str();
  } else if (!text.empty()) {
    req.source = 0;
    req.problem = text;
  } else {
    return usage();
  }
  req.priority = priority;
  req.deadline_ms = deadline_ms;
  req.zp_prime = zp;
  req.want_cert = cert;
  req.subscribe = watch;

  for (int i = 0; i < count; ++i) {
    req.token = static_cast<std::uint64_t>(i) + 1;
    if (!client.submit(req)) {
      std::fprintf(stderr, "gbd_client: submit failed (connection lost)\n");
      return 1;
    }
  }

  int ok = 0, bad = 0;
  auto on_event = [&](const JobEventMsg& e) {
    if (watch)
      std::printf("job %llu token %llu: %s depth=%u %s\n", (unsigned long long)e.job_id,
                  (unsigned long long)e.token, job_state_name(e.state), e.queue_depth,
                  e.note.c_str());
  };
  std::vector<bool> seen(static_cast<std::size_t>(count) + 1, false);
  std::uint64_t deadline = static_cast<std::uint64_t>(timeout_s) * 1000;
  for (int got = 0; got < count; ++got) {
    ClientUpdate u;
    for (;;) {
      int pr = client.poll(&u, static_cast<int>(deadline));
      if (pr <= 0) {
        std::fprintf(stderr, "gbd_client: timed out / disconnected with %d results pending\n",
                     count - got);
        return 1;
      }
      if (u.kind == ClientUpdate::Kind::kEvent) {
        on_event(u.event);
        continue;
      }
      if (u.kind == ClientUpdate::Kind::kResult) break;
    }
    const JobResultMsg& r = u.result;
    if (r.token == 0 || r.token > static_cast<std::uint64_t>(count) ||
        seen[static_cast<std::size_t>(r.token)]) {
      std::fprintf(stderr, "gbd_client: duplicate or unknown result token %llu\n",
                   (unsigned long long)r.token);
      return 1;
    }
    seen[static_cast<std::size_t>(r.token)] = true;
    std::printf("token %llu: %s%s cert=%u wait=%llums exec=%llums "
                "spolys=%llu basis=%zu%s%s\n",
                (unsigned long long)r.token, job_state_name(r.status),
                r.cache_hit ? " (cache hit)" : "", r.cert,
                (unsigned long long)r.queue_wait_ms, (unsigned long long)r.exec_ms,
                (unsigned long long)r.spolys, r.basis.size(), r.error.empty() ? "" : " error=",
                r.error.c_str());
    if (print_basis)
      for (const std::string& p : r.basis) std::printf("  %s\n", p.c_str());
    if (r.status == JobState::kDone) ++ok;
    else ++bad;
  }
  std::printf("done: %d ok, %d not-ok of %d\n", ok, bad, count);
  return bad == 0 ? 0 : 1;
}
