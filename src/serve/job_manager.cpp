#include "serve/job_manager.hpp"

namespace gbd {

bool JobManager::submit(JobPtr job) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || queued_ >= capacity_) {
    ++counts_.rejected;
    return false;
  }
  ++counts_.submitted;
  queue_[job->req.priority].push_back(std::move(job));
  ++queued_;
  cv_.notify_one();
  return true;
}

JobPtr JobManager::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return shutdown_ || (!paused_ && queued_ > 0); });
  if (shutdown_) return nullptr;
  return pop_locked();
}

JobPtr JobManager::pop_locked() {
  auto it = queue_.begin();
  JobPtr job = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queue_.erase(it);
  --queued_;
  running_.emplace(job->id, job);
  return job;
}

void JobManager::finish(const JobPtr& job, JobState final_state, std::uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  running_.erase(job->id);
  switch (final_state) {
    case JobState::kDone: ++counts_.done; break;
    case JobState::kFailed: ++counts_.failed; break;
    case JobState::kCancelled: ++counts_.cancelled; break;
    case JobState::kTimedOut: ++counts_.timed_out; break;
    default: break;
  }
  std::uint64_t started = job->start_ms != 0 ? job->start_ms : now_ms;
  queue_wait_ms_.record(started - job->submit_ms);
  exec_ms_.record(now_ms >= started ? now_ms - started : 0);
}

JobPtr JobManager::take_queued(std::uint64_t conn_id, std::uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    auto& dq = it->second;
    for (auto jt = dq.begin(); jt != dq.end(); ++jt) {
      if ((*jt)->conn_id == conn_id && (*jt)->req.token == token) {
        JobPtr job = std::move(*jt);
        dq.erase(jt);
        if (dq.empty()) queue_.erase(it);
        --queued_;
        return job;
      }
    }
  }
  return nullptr;
}

JobPtr JobManager::find_running(std::uint64_t conn_id, std::uint64_t token) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, job] : running_) {
    if (job->conn_id == conn_id && job->req.token == token) return job;
  }
  return nullptr;
}

std::vector<JobPtr> JobManager::expire(std::uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobPtr> dead;
  for (auto it = queue_.begin(); it != queue_.end();) {
    auto& dq = it->second;
    for (auto jt = dq.begin(); jt != dq.end();) {
      if ((*jt)->deadline_ms != 0 && now_ms >= (*jt)->deadline_ms) {
        dead.push_back(std::move(*jt));
        jt = dq.erase(jt);
        --queued_;
      } else {
        ++jt;
      }
    }
    it = dq.empty() ? queue_.erase(it) : std::next(it);
  }
  for (const auto& [id, job] : running_) {
    if (job->deadline_ms != 0 && now_ms >= job->deadline_ms) job->raise_stop(2);
  }
  return dead;
}

std::vector<JobPtr> JobManager::running_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobPtr> jobs;
  jobs.reserve(running_.size());
  for (const auto& [id, job] : running_) jobs.push_back(job);
  return jobs;
}

void JobManager::resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  cv_.notify_all();
}

void JobManager::shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  cv_.notify_all();
}

std::size_t JobManager::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

ServerStatsMsg JobManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStatsMsg m = counts_;
  m.queue_depth = queued_;
  m.running = running_.size();
  m.wait_p50_ms = queue_wait_ms_.quantile(0.5);
  m.wait_p99_ms = queue_wait_ms_.quantile(0.99);
  m.exec_p50_ms = exec_ms_.quantile(0.5);
  m.exec_p99_ms = exec_ms_.quantile(0.99);
  return m;
}

}  // namespace gbd
