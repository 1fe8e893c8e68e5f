// The gbd_serve daemon: a persistent, multi-tenant Gröbner job server.
//
// One JobServer keeps a pool of resident worker threads alive across an
// arbitrary stream of problems — the antithesis of the one-shot launchers:
// startup cost (thread spawn, machine setup) is paid once, then thousands of
// queued jobs flow through the same pool. Clients connect over TCP and speak
// GBDF frames (net/frame.hpp) carrying the serve/wire.hpp job protocol.
//
// Threading model:
//   - One I/O thread owns every socket: it accepts connections, decodes
//     frames, performs admission (parse, validate, canonicalize, enqueue)
//     and is the only writer to any connection. It doubles as the reaper
//     (deadline expiry) and the running-job heartbeat.
//   - `workers` worker threads block on JobManager::pop and run each job on
//     groebner_sequential with the job's coefficient field and stop flag,
//     so cancel, deadline and stop() reach every running job.
//     Workers never touch sockets: results and events go through a locked
//     outgoing queue and a self-pipe wakes the I/O thread to flush them.
//
// Failure semantics:
//   - A job whose engine throws fails with the exception's message; it is
//     never retried. The daemon itself never dies with a job.
//   - Exactly one kJobResult is sent per admitted token. A disconnected
//     client's jobs are cancelled (queued) or stopped (running) and their
//     results discarded.
//   - Hostile bytes (bad frame, bad payload, oversized submit) drop that
//     connection with a diagnostic; they never crash the daemon.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "serve/cache.hpp"
#include "serve/job_manager.hpp"
#include "serve/wire.hpp"

namespace gbd {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; JobServer::port() after start
  std::uint32_t workers = 2;  ///< must be >= 1; start() refuses 0
  std::size_t queue_capacity = 1024;  ///< admission bound; beyond it: kRejected
  std::size_t cache_capacity = 256;   ///< result-cache entries (0 disables)
  std::uint64_t default_deadline_ms = 0;  ///< applied when a submit says 0; 0 = none
  std::uint32_t max_payload = 1u << 20;   ///< per-frame bound on client bytes
  std::size_t max_generators = 256;   ///< admission bound on system size
  std::size_t max_vars = 64;
  /// Start with the worker pool paused: jobs queue but none run until
  /// resume() — lets a bench enqueue its whole corpus first.
  bool start_paused = false;
  /// Arm the crash flight recorder at this path (empty = leave unarmed).
  std::string flight_path;
};

class JobServer {
 public:
  explicit JobServer(ServerConfig cfg);
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Bind + listen, spawn the I/O thread and the worker pool.
  /// Returns false with *err when cfg.workers is 0 or the bind fails.
  bool start(std::string* err = nullptr);

  /// Stop accepting, cancel queued jobs, stop running jobs, join threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// The bound port (after start); useful with cfg.port == 0.
  std::uint16_t port() const;

  /// Release a start_paused worker pool.
  void resume();

  /// In-process statistics snapshot (same data the wire kServerStats carries).
  ServerStatsMsg stats() const;
  CacheStats cache_stats() const;
  std::size_t queue_depth() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gbd
