#include "serve/wire.hpp"

namespace gbd {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timed-out";
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

bool job_state_terminal(JobState s) {
  switch (s) {
    case JobState::kQueued:
    case JobState::kRunning:
      return false;
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
    case JobState::kTimedOut:
    case JobState::kRejected:
      return true;
  }
  return true;
}

namespace {

/// Decode a JobState wire byte; false for the retired value 2 and for
/// anything past the last state.
bool decode_state(std::uint8_t s, JobState* out) {
  if (s == 2 || s > static_cast<std::uint8_t>(JobState::kRejected)) return false;
  *out = static_cast<JobState>(s);
  return true;
}

}  // namespace

bool SafeReader::need(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t SafeReader::u8() {
  if (!need(1)) return 0;
  return buf_[pos_++];
}

std::uint32_t SafeReader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | buf_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t SafeReader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

std::string SafeReader::str(std::size_t max_len) {
  std::uint64_t n = u64();
  if (!ok_ || n > max_len || !need(static_cast<std::size_t>(n))) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(buf_ + pos_), static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void SubmitRequest::encode(Writer& w) const {
  w.u64(token);
  w.u32(priority);
  w.u64(deadline_ms);
  w.u8(static_cast<std::uint8_t>((subscribe ? 1 : 0) | (want_cert ? 2 : 0)));
  w.u8(source);
  w.str(problem);
  w.u64(zp_prime);
}

bool SubmitRequest::decode(SafeReader& r, SubmitRequest* out) {
  out->token = r.u64();
  out->priority = r.u32();
  out->deadline_ms = r.u64();
  std::uint8_t flags = r.u8();
  out->subscribe = (flags & 1) != 0;
  out->want_cert = (flags & 2) != 0;
  out->source = r.u8();
  out->problem = r.str();
  out->zp_prime = r.u64();
  return r.done() && out->source <= 1;
}

void JobEventMsg::encode(Writer& w) const {
  w.u64(token);
  w.u64(job_id);
  w.u8(static_cast<std::uint8_t>(state));
  w.u32(queue_depth);
  w.str(note);
}

bool JobEventMsg::decode(SafeReader& r, JobEventMsg* out) {
  out->token = r.u64();
  out->job_id = r.u64();
  if (!decode_state(r.u8(), &out->state)) return false;
  out->queue_depth = r.u32();
  out->note = r.str();
  return r.done();
}

void JobResultMsg::encode(Writer& w) const {
  w.u64(token);
  w.u64(job_id);
  w.u8(static_cast<std::uint8_t>(status));
  w.u8(static_cast<std::uint8_t>((cache_hit ? 1 : 0) | (cert << 1)));
  w.u64(queue_wait_ms);
  w.u64(exec_ms);
  w.u64(spolys);
  w.u64(basis_added);
  w.str(error);
  w.u32(static_cast<std::uint32_t>(basis.size()));
  for (const std::string& p : basis) w.str(p);
}

bool JobResultMsg::decode(SafeReader& r, JobResultMsg* out) {
  out->token = r.u64();
  out->job_id = r.u64();
  if (!decode_state(r.u8(), &out->status)) return false;
  std::uint8_t flags = r.u8();
  out->cache_hit = (flags & 1) != 0;
  out->cert = static_cast<std::uint8_t>(flags >> 1);
  out->queue_wait_ms = r.u64();
  out->exec_ms = r.u64();
  out->spolys = r.u64();
  out->basis_added = r.u64();
  out->error = r.str();
  std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 20)) return false;
  out->basis.clear();
  out->basis.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out->basis.push_back(r.str());
  return r.done() && job_state_terminal(out->status) && out->cert <= 2;
}

void ServerStatsMsg::encode(Writer& w) const {
  w.u64(submitted);
  w.u64(rejected);
  w.u64(done);
  w.u64(failed);
  w.u64(cancelled);
  w.u64(timed_out);
  w.u64(queue_depth);
  w.u64(running);
  w.u64(cache_hits);
  w.u64(cache_misses);
  w.u64(cache_entries);
  w.u64(cache_evictions);
  w.u64(wait_p50_ms);
  w.u64(wait_p99_ms);
  w.u64(exec_p50_ms);
  w.u64(exec_p99_ms);
  w.u32(workers);
  w.u8(paused ? 1 : 0);
}

bool ServerStatsMsg::decode(SafeReader& r, ServerStatsMsg* out) {
  out->submitted = r.u64();
  out->rejected = r.u64();
  out->done = r.u64();
  out->failed = r.u64();
  out->cancelled = r.u64();
  out->timed_out = r.u64();
  out->queue_depth = r.u64();
  out->running = r.u64();
  out->cache_hits = r.u64();
  out->cache_misses = r.u64();
  out->cache_entries = r.u64();
  out->cache_evictions = r.u64();
  out->wait_p50_ms = r.u64();
  out->wait_p99_ms = r.u64();
  out->exec_p50_ms = r.u64();
  out->exec_p99_ms = r.u64();
  out->workers = r.u32();
  out->paused = r.u8() != 0;
  return r.done();
}

}  // namespace gbd
