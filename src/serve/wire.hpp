// The GB-as-a-service job protocol — message schemas over GBDF frames.
//
// A gbd_client connection to the gbd_serve daemon is one TCP stream of GBDF
// frames (net/frame.hpp): the client sends kJobSubmit / kJobCancel /
// kServerStats requests, the server streams back kJobEvent state
// transitions and running heartbeats, exactly one kJobResult per submitted
// token, and kServerStats replies. There is no reliability layer on this
// channel — a single ordered TCP stream is the delivery guarantee, and a
// broken stream simply orphans the connection's jobs.
//
// Every payload here decodes through SafeReader: the daemon treats client
// bytes as hostile, so a truncated or corrupt payload is a diagnosed decode
// failure (the connection is dropped), never a crash — Reader's aborting
// bounds check is for trusted rank-to-rank traffic only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/serialize.hpp"

namespace gbd {

/// Job lifecycle states. Wire values; append only. Value 2 is retired: no
/// state uses it, and every decoder rejects it.
enum class JobState : std::uint8_t {
  kQueued = 0,    ///< admitted, waiting in the priority queue
  kRunning = 1,   ///< a worker is executing it
  kDone = 3,      ///< terminal: basis computed (and verified when requested)
  kFailed = 4,    ///< terminal: the engine threw, or the certificate failed
  kCancelled = 5, ///< terminal: client cancel honored
  kTimedOut = 6,  ///< terminal: deadline elapsed (queued or running)
  kRejected = 7,  ///< terminal: admission control refused it (queue full, bad spec)
};

const char* job_state_name(JobState s);
bool job_state_terminal(JobState s);

/// Bounds-checked payload reader that reports failure instead of aborting.
/// Mirrors Reader's call sequence API; after any failed read, ok() is false
/// and every later read returns a zero value.
class SafeReader {
 public:
  SafeReader(const std::uint8_t* data, std::size_t n) : buf_(data), size_(n) {}
  explicit SafeReader(const std::vector<std::uint8_t>& v) : buf_(v.data()), size_(v.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str(std::size_t max_len = 1u << 26);

  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == size_; }

 private:
  bool need(std::size_t n);

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// kJobSubmit payload (client -> server).
struct SubmitRequest {
  std::uint64_t token = 0;       ///< client-chosen; unique per connection
  std::uint32_t priority = 0;    ///< higher runs earlier (FIFO within a priority)
  std::uint64_t deadline_ms = 0; ///< relative to submission; 0 = server default
  bool subscribe = false;        ///< stream kJobEvent state changes and heartbeats
  bool want_cert = false;        ///< server verifies the Gröbner certificate
  std::uint8_t source = 0;       ///< 0 = inline system text, 1 = built-in problem name
  std::string problem;           ///< text (source 0) or name (source 1)
  std::uint64_t zp_prime = 0;    ///< 0 = exact coefficients, else compute mod p

  void encode(Writer& w) const;
  static bool decode(SafeReader& r, SubmitRequest* out);
};

/// kJobEvent payload (server -> client).
struct JobEventMsg {
  std::uint64_t token = 0;
  std::uint64_t job_id = 0;
  JobState state = JobState::kQueued;
  std::uint32_t queue_depth = 0;  ///< server queue depth when the event fired
  std::string note;

  void encode(Writer& w) const;
  static bool decode(SafeReader& r, JobEventMsg* out);
};

/// kJobResult payload (server -> client); exactly one per admitted token.
struct JobResultMsg {
  std::uint64_t token = 0;
  std::uint64_t job_id = 0;
  JobState status = JobState::kDone;  ///< terminal state
  bool cache_hit = false;
  std::uint8_t cert = 0;  ///< 0 = not requested, 1 = verified, 2 = verification failed
  std::uint64_t queue_wait_ms = 0;
  std::uint64_t exec_ms = 0;
  std::uint64_t spolys = 0;
  std::uint64_t basis_added = 0;
  std::string error;               ///< nonempty on kFailed / kRejected
  std::vector<std::string> basis;  ///< rendered in the submitted system's variables

  void encode(Writer& w) const;
  static bool decode(SafeReader& r, JobResultMsg* out);
};

/// kServerStats reply payload (the request payload is empty).
struct ServerStatsMsg {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t running = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t wait_p50_ms = 0;
  std::uint64_t wait_p99_ms = 0;
  std::uint64_t exec_p50_ms = 0;
  std::uint64_t exec_p99_ms = 0;
  std::uint32_t workers = 0;
  bool paused = false;

  void encode(Writer& w) const;
  static bool decode(SafeReader& r, ServerStatsMsg* out);
};

}  // namespace gbd
