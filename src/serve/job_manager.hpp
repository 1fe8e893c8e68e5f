// Job admission, queueing and lifecycle for the serve daemon.
//
// The JobManager owns the bounded priority queue between the connection I/O
// thread (producer: submit / cancel / expire) and the resident worker pool
// (consumer: pop / finish). Admission control is a hard capacity bound — a
// submit against a full queue is rejected immediately rather than buffered,
// so a flood of jobs degrades into fast rejections instead of unbounded
// memory growth. Scheduling is strict priority with FIFO within a priority
// level.
//
// Deadlines and cancellation are cooperative: a queued job is simply removed;
// a running job has its stop flag raised and the engine (GbConfig::stop)
// abandons the computation at the next S-pair boundary. expire() is the
// reaper's single entry point for both halves.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/telemetry.hpp"
#include "serve/canonical.hpp"
#include "serve/wire.hpp"

namespace gbd {

/// One submitted job, shared between the I/O thread and its worker.
/// Plain fields are written by one side at a time (I/O thread before the job
/// is queued, the owning worker while running, I/O thread after finish);
/// the atomics are the only concurrently-touched state.
struct Job {
  std::uint64_t id = 0;       ///< server-assigned, dense
  std::uint64_t conn_id = 0;  ///< owning connection
  SubmitRequest req;          ///< as submitted (token, priority, flags, ...)
  PolySystem sys;             ///< parsed system, original variable names
  CanonicalSystem canon;      ///< cache-key form; engines run on canon.sys
  std::string cache_key;      ///< ResultCache composite key

  std::uint64_t submit_ms = 0;    ///< steady-clock ms at admission
  std::uint64_t deadline_ms = 0;  ///< absolute steady-clock ms; 0 = none
  std::uint64_t start_ms = 0;     ///< when a worker picked it up; 0 = never

  std::atomic<bool> stop{false};  ///< cancel/deadline signal to the engine
  /// Why stop was raised: 0 = not raised, 1 = client cancel, 2 = deadline.
  /// First writer wins (CAS from 0), so a cancel racing a deadline yields
  /// one coherent terminal state.
  std::atomic<std::uint8_t> stop_reason{0};

  /// Raise the stop flag with a reason; returns true if this call won.
  bool raise_stop(std::uint8_t reason) {
    std::uint8_t expected = 0;
    bool won = stop_reason.compare_exchange_strong(expected, reason);
    stop.store(true, std::memory_order_release);
    return won;
  }

  JobResultMsg result;  ///< filled by the worker / finish path
};

using JobPtr = std::shared_ptr<Job>;

class JobManager {
 public:
  JobManager(std::size_t capacity, bool start_paused)
      : capacity_(capacity), paused_(start_paused) {}

  /// Admit a job. Returns false (and counts a rejection) when the queue is
  /// at capacity or the manager is shut down.
  bool submit(JobPtr job);

  /// Block until a job is runnable (queue nonempty and not paused), then
  /// dequeue the highest-priority oldest job. Returns nullptr on shutdown.
  JobPtr pop();

  /// Record a terminal transition: drop from the running set, bump the
  /// counter for `final_state`, record wait/exec latencies.
  void finish(const JobPtr& job, JobState final_state, std::uint64_t now_ms);

  /// Remove a *queued* job for cancellation; nullptr if it is not queued
  /// (running jobs are cancelled by raising their stop flag instead).
  JobPtr take_queued(std::uint64_t conn_id, std::uint64_t token);

  /// Find a running job owned by (conn, token); nullptr if none.
  JobPtr find_running(std::uint64_t conn_id, std::uint64_t token) const;

  /// Snapshot of the running set (the heartbeat's iteration source).
  std::vector<JobPtr> running_jobs() const;

  /// Reaper: remove and return queued jobs whose deadline has passed, and
  /// raise the stop flag on expired running jobs.
  std::vector<JobPtr> expire(std::uint64_t now_ms);

  /// While paused, pop() blocks even with work queued (lets a bench enqueue
  /// its whole corpus before the first job starts).
  void resume();

  /// Wake every popper with nullptr; subsequent submits are rejected.
  void shutdown();

  std::size_t depth() const;
  /// The job-lifecycle fields of the server's stats message — counters,
  /// queue depth, running count and wait/exec quantiles — read under the
  /// lock. The server fills in the cache, pool and early-reject fields.
  ServerStatsMsg stats() const;

 private:
  JobPtr pop_locked();

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool shutdown_ = false;
  /// Highest priority first; FIFO deque per level.
  std::map<std::uint32_t, std::deque<JobPtr>, std::greater<std::uint32_t>> queue_;
  std::size_t queued_ = 0;
  std::unordered_map<std::uint64_t, JobPtr> running_;  ///< by job id
  /// The job counters live in their wire message (submitted .. timed_out).
  ServerStatsMsg counts_;
  LogHistogram queue_wait_ms_;  ///< admission -> execution start
  LogHistogram exec_ms_;        ///< execution start -> terminal
};

}  // namespace gbd
