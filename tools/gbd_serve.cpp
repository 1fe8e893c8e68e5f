// gbd_serve — the persistent GB-as-a-service daemon.
//
//   gbd_serve [--host H] [--port P] [--workers N]
//             [--queue-capacity N] [--cache-capacity N]
//             [--deadline-ms T] [--flight PATH]
//
// Binds H:P (port 0 picks an ephemeral port), prints one line
//   gbd_serve listening on H:P
// to stdout, then serves until SIGINT/SIGTERM. Each of the N workers runs
// one job at a time on the sequential engine. Clients speak the GBDF job
// protocol (see src/serve/); drive it with gbd_client.
//
// Numeric options are decimal integers checked against their range: P in
// [0, 65535], N in [1, 1024]. Anything else is a usage error.
//
// Exit codes: 0 clean shutdown, 2 usage, 3 bind failure.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "serve/server.hpp"

using namespace gbd;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: gbd_serve [--host H] [--port P] [--workers N]\n"
               "                 [--queue-capacity N] [--cache-capacity N]\n"
               "                 [--deadline-ms T] [--flight PATH]\n"
               "  P in [0, 65535] (0 = ephemeral), workers in [1, 1024]\n");
  return 2;
}

/// Parse all of `s` as a decimal integer in [lo, hi] into *out.
template <typename T>
bool parse_uint(const char* s, std::uint64_t lo, std::uint64_t hi, T* out) {
  if (*s < '0' || *s > '9') return false;  // no sign, no space, not empty
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();
  ServerConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--host" && (v = next())) {
      cfg.host = v;
    } else if (a == "--port" && (v = next())) {
      if (!parse_uint(v, 0, 65535, &cfg.port)) return usage();
    } else if (a == "--workers" && (v = next())) {
      if (!parse_uint(v, 1, 1024, &cfg.workers)) return usage();
    } else if (a == "--queue-capacity" && (v = next())) {
      if (!parse_uint(v, 0, kMaxSize, &cfg.queue_capacity)) return usage();
    } else if (a == "--cache-capacity" && (v = next())) {
      if (!parse_uint(v, 0, kMaxSize, &cfg.cache_capacity)) return usage();
    } else if (a == "--deadline-ms" && (v = next())) {
      if (!parse_uint(v, 0, kMax, &cfg.default_deadline_ms)) return usage();
    } else if (a == "--flight" && (v = next())) {
      cfg.flight_path = v;
    } else {
      return usage();
    }
  }

  JobServer server(cfg);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "gbd_serve: %s\n", err.c_str());
    return 3;
  }
  std::printf("gbd_serve listening on %s:%u\n", cfg.host.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop) std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ServerStatsMsg s = server.stats();
  server.stop();
  std::fprintf(stderr,
               "gbd_serve: shutting down (submitted=%llu done=%llu failed=%llu "
               "cache_hits=%llu)\n",
               static_cast<unsigned long long>(s.submitted),
               static_cast<unsigned long long>(s.done),
               static_cast<unsigned long long>(s.failed),
               static_cast<unsigned long long>(s.cache_hits));
  return 0;
}
