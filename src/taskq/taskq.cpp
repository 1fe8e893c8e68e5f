#include "taskq/taskq.hpp"

#include "obs/span.hpp"
#include "support/check.hpp"

namespace gbd {

bool DistTaskQueue::ItemBefore::operator()(const Item& a, const Item& b) const {
  switch (q->cfg_.selection) {
    case Selection::kSugar:  // GL-P rejects it: pair sugar is not sent over the wire
    case Selection::kNormal: {
      int c = q->ctx_->cmp(a.priority, b.priority);
      if (c != 0) return c < 0;  // smaller lcm first (better heuristic merit)
      break;
    }
    case Selection::kDegree:
      if (a.priority.degree() != b.priority.degree()) {
        return a.priority.degree() < b.priority.degree();
      }
      break;
    case Selection::kFifo:
      break;
  }
  return a.seq < b.seq;
}

DistTaskQueue::DistTaskQueue(Proc& self, const PolyContext* ctx, std::function<bool()> idle,
                             TaskQueueConfig cfg)
    : self_(self),
      ctx_(ctx),
      idle_(std::move(idle)),
      cfg_(cfg),
      local_(ItemBefore{this}),
      // Disambiguate seq across processors so migrated tasks cannot collide.
      next_seq_(static_cast<std::uint64_t>(self.id()) << 40),
      next_victim_((self.id() + 1) % self.nprocs()) {
  GBD_CHECK(cfg_.coordinator >= 0 && cfg_.coordinator < self.nprocs());
  self_.on(kTqSteal, [this](Proc&, int src, Reader&) { on_steal(src); });
  self_.on(kTqGrant, [this](Proc&, int src, Reader& r) { on_grant(src, r); });
  self_.on(kTqPush, [this](Proc&, int src, Reader& r) { on_push(src, r); });
  self_.on(kTqProbe, [this](Proc&, int src, Reader&) { on_probe(src); });
  self_.on(kTqReport, [this](Proc&, int src, Reader& r) { on_report(src, r); });
  self_.on(kTqAnnounce, [this](Proc&, int, Reader&) { on_announce(); });
  self_.on(kTqToken, [this](Proc&, int, Reader& r) { on_token(r); });
  if (self.id() == cfg_.coordinator) {
    wave_data_.resize(static_cast<std::size_t>(self.nprocs()));
    prev_wave_.resize(static_cast<std::size_t>(self.nprocs()));
  }
}

void DistTaskQueue::insert_local(Item item) { local_.insert(std::move(item)); }

DistTaskQueue::Item DistTaskQueue::pop_best() {
  GBD_DCHECK(!local_.empty());
  auto it = local_.begin();
  Item item = *it;
  local_.erase(it);
  return item;
}

void DistTaskQueue::enqueue(std::vector<std::uint8_t> payload, Monomial priority) {
  GBD_CHECK_MSG(!terminated_, "enqueue after termination");
  stats_.enqueued += 1;
  note_activity();
  // A task's uid is its seq at the *origin* (unique machine-wide thanks to
  // the id<<40 disambiguation) and never changes, however often it migrates.
  std::uint64_t seq = next_seq_++;
  insert_local(Item{std::move(priority), seq, seq, std::move(payload)});
  consecutive_empty_grants_ = 0;  // fresh work: stealing may pay again
  if (cfg_.push_threshold > 0 && local_.size() > cfg_.push_threshold && self_.nprocs() > 1) {
    send_tasks((self_.id() + 1) % self_.nprocs(), kTqPush, cfg_.steal_batch);
  }
}

/// Surrender up to `count` tasks (never more than half the queue, always from
/// the worst-priority end so local heuristic quality is preserved) to dst.
void DistTaskQueue::send_tasks(int dst, HandlerId handler, std::size_t count) {
  // Surrender at most half the queue, rounded up so a lone task can still
  // migrate to an idle thief. See TaskQueueConfig::steal_from_best for the
  // choice of end.
  std::size_t give = std::min(count, (local_.size() + 1) / 2);
  Writer w;
  w.u64(give);
  for (std::size_t k = 0; k < give; ++k) {
    auto it = cfg_.steal_from_best ? local_.begin() : std::prev(local_.end());
    w.str(std::string(it->payload.begin(), it->payload.end()));
    it->priority.write(w);
    w.u64(it->uid);
    local_.erase(it);
    stats_.tasks_migrated += 1;
    note_activity();
  }
  if (give > 0) proc_black_ = true;  // token-ring: we may have reactivated dst
  if (give > 0 || handler == kTqGrant) {
    self_.send(dst, handler, w.take());
  }
}

DistTaskQueue::Dequeue DistTaskQueue::try_dequeue(std::vector<std::uint8_t>* payload) {
  if (terminated_) return Dequeue::kTerminated;
  if (!local_.empty()) {
    Item item = pop_best();
    stats_.dequeued += 1;
    note_activity();
    if (cfg_.on_dequeue) cfg_.on_dequeue(item.uid);
    *payload = std::move(item.payload);
    return Dequeue::kGot;
  }
  // Empty: launch at most one steal. An idle processor keeps polling the
  // ring indefinitely — remote queues can fill at any time — but after a
  // full circuit of empty grants it pays a backoff delay first, modeling a
  // polling interval so idle processors do not flood busy ones.
  if (self_.nprocs() > 1 && !steal_outstanding_) {
    if (consecutive_empty_grants_ >= self_.nprocs() - 1) {
      consecutive_empty_grants_ = 0;
      // backoff == charge on the simulator (identical schedules); on real
      // threads it is a timed sleep that new traffic cuts short.
      TraceSpan span(self_, Ev::kBackoff, cfg_.steal_backoff);
      self_.backoff(cfg_.steal_backoff);
    }
    steal_outstanding_ = true;
    stats_.steals_sent += 1;
    if (ProcTracer* t = self_.tracer()) {
      t->instant(Ev::kSteal, self_.now(), static_cast<std::uint64_t>(next_victim_));
    }
    self_.send(next_victim_, kTqSteal, {});
    next_victim_ = (next_victim_ + 1) % self_.nprocs();
    if (next_victim_ == self_.id()) next_victim_ = (next_victim_ + 1) % self_.nprocs();
  }
  if (cfg_.termination == Termination::kCoordinatorWave) {
    if (self_.id() == cfg_.coordinator) maybe_start_wave();
  } else {
    maybe_forward_token();
  }
  return Dequeue::kEmpty;
}

void DistTaskQueue::on_steal(int src) {
  // Grant up to steal_batch tasks; an empty grant is the NACK.
  send_tasks(src, kTqGrant, cfg_.steal_batch);
}

void DistTaskQueue::on_grant(int, Reader& r) {
  steal_outstanding_ = false;
  std::uint64_t n = r.u64();
  if (ProcTracer* t = self_.tracer()) t->instant(Ev::kStealGrant, self_.now(), n);
  if (n == 0) {
    consecutive_empty_grants_ += 1;
    return;
  }
  consecutive_empty_grants_ = 0;
  stats_.steals_won += 1;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::string payload = r.str();
    Monomial prio = Monomial::read(r);
    std::uint64_t uid = r.u64();
    note_activity();
    stats_.tasks_migrated_in += 1;
    insert_local(Item{std::move(prio), next_seq_++, uid,
                      std::vector<std::uint8_t>(payload.begin(), payload.end())});
  }
}

void DistTaskQueue::on_push(int, Reader& r) {
  std::uint64_t n = r.u64();
  for (std::uint64_t k = 0; k < n; ++k) {
    std::string payload = r.str();
    Monomial prio = Monomial::read(r);
    std::uint64_t uid = r.u64();
    note_activity();
    stats_.tasks_migrated_in += 1;
    insert_local(Item{std::move(prio), next_seq_++, uid,
                      std::vector<std::uint8_t>(payload.begin(), payload.end())});
  }
}

// --- termination wave --------------------------------------------------------

void DistTaskQueue::maybe_start_wave() {
  if (cfg_.termination != Termination::kCoordinatorWave) {
    maybe_forward_token();
    return;
  }
  if (wave_in_progress_ || terminated_) return;
  if (!local_.empty() || !idle_()) return;
  wave_in_progress_ = true;
  wave_replies_ = 0;
  stats_.waves_started += 1;
  for (int p = 0; p < self_.nprocs(); ++p) {
    if (p == self_.id()) {
      wave_data_[static_cast<std::size_t>(p)] =
          WaveReply{stats_.enqueued, stats_.dequeued, activity_, local_.empty() && idle_()};
      wave_replies_ += 1;
    } else {
      self_.send(p, kTqProbe, {});
    }
  }
  // A 1-processor "wave" completes synchronously.
  if (wave_replies_ == self_.nprocs()) finish_wave();
}

void DistTaskQueue::on_probe(int src) {
  Writer w;
  w.u64(stats_.enqueued);
  w.u64(stats_.dequeued);
  w.u64(activity_);
  w.u8(local_.empty() && idle_() ? 1 : 0);
  self_.send(src, kTqReport, w.take());
}

void DistTaskQueue::on_report(int src, Reader& r) {
  GBD_CHECK(self_.id() == cfg_.coordinator && wave_in_progress_);
  WaveReply& wr = wave_data_[static_cast<std::size_t>(src)];
  wr.enq = r.u64();
  wr.deq = r.u64();
  wr.activity = r.u64();
  wr.idle = r.u8() != 0;
  wave_replies_ += 1;
  if (wave_replies_ == self_.nprocs()) finish_wave();
}

void DistTaskQueue::finish_wave() {
  wave_in_progress_ = false;
  std::uint64_t enq = 0, deq = 0;
  bool all_idle = true;
  for (const auto& wr : wave_data_) {
    enq += wr.enq;
    deq += wr.deq;
    all_idle = all_idle && wr.idle;
  }
  bool stable = have_prev_wave_;
  if (stable) {
    for (std::size_t p = 0; p < wave_data_.size(); ++p) {
      stable = stable && wave_data_[p].activity == prev_wave_[p].activity;
    }
  }
  prev_wave_ = wave_data_;
  have_prev_wave_ = true;
  if (all_idle && enq == deq && stable) {
    stats_.terminated_by_wave = true;
    for (int p = 0; p < self_.nprocs(); ++p) {
      if (p != self_.id()) self_.send(p, kTqAnnounce, {});
    }
    on_announce();
  }
}

void DistTaskQueue::on_announce() {
  // Idempotent: chaos may duplicate the announcement.
  bool first = !terminated_;
  terminated_ = true;
  if (first && cfg_.on_announce) cfg_.on_announce();
}

// --- Dijkstra–Feijen–van Gasteren ring token ---------------------------------

void DistTaskQueue::on_token(Reader& r) {
  GBD_CHECK_MSG(!holding_token_, "second token arrived while one is held");
  holding_token_ = true;
  token_black_ = r.u8() != 0;
  maybe_forward_token();
}

void DistTaskQueue::maybe_forward_token() {
  if (terminated_) return;
  if (self_.nprocs() == 1) {
    // Degenerate ring: local idleness is global termination.
    if (local_.empty() && idle_() && stats_.enqueued == stats_.dequeued) {
      stats_.terminated_by_wave = true;
      on_announce();
    }
    return;
  }
  // Proc 0 launches the first token once it has ever gone idle.
  if (self_.id() == 0 && !token_started_ && local_.empty() && idle_()) {
    token_started_ = true;
    holding_token_ = true;
    token_black_ = false;
    proc_black_ = false;
    stats_.token_rounds += 1;
    Writer w;
    w.u8(0);
    holding_token_ = false;
    self_.send(self_.nprocs() - 1, kTqToken, w.take());
    return;
  }
  if (!holding_token_) return;
  // A token is only forwarded by an idle processor with an empty queue; a
  // busy holder keeps it until its next idle try_dequeue.
  if (!local_.empty() || !idle_()) return;

  if (self_.id() == 0) {
    // Round complete: a white token through a white proc 0 proves that no
    // processor shipped work during an all-idle circuit — termination.
    if (!token_black_ && !proc_black_) {
      stats_.terminated_by_wave = true;
      for (int p = 1; p < self_.nprocs(); ++p) self_.send(p, kTqAnnounce, {});
      on_announce();
      holding_token_ = false;
      return;
    }
    // Failed round: whiten and go again.
    proc_black_ = false;
    token_black_ = false;
    stats_.token_rounds += 1;
    Writer w;
    w.u8(0);
    holding_token_ = false;
    self_.send(self_.nprocs() - 1, kTqToken, w.take());
    return;
  }
  // Interior node: pass the token toward 0, stained by our color.
  Writer w;
  w.u8(token_black_ || proc_black_ ? 1 : 0);
  proc_black_ = false;
  holding_token_ = false;
  self_.send(self_.id() - 1, kTqToken, w.take());
}

}  // namespace gbd
