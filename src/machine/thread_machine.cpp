#include "machine/thread_machine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "machine/invariants.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "support/check.hpp"

namespace gbd {

namespace {

struct Envelope {
  int src;
  HandlerId handler;
  std::vector<std::uint8_t> payload;
};

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One processor's inbox. Padded to its own cache line so two processors'
/// mailbox mutexes never false-share; the envelope vector is a pooled slab
/// (poll swaps it with a drained scratch vector, so its capacity — and the
/// scratch's — is reused for the whole run).
struct alignas(64) ThreadMachine::Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Envelope> in;  // guarded by mu
  bool waiting = false;      // owner asleep in wait(), guarded by mu
  MailboxStats stats;        // sender fields guarded by mu; owner fields owner-only
};

class ThreadMachine::ThreadProc final : public Proc {
 public:
  ThreadProc(ThreadMachine* m, int id) : machine_(m), id_(id) {}

  int id() const override { return id_; }
  int nprocs() const override { return machine_->nprocs_; }

  void on(HandlerId h, Handler fn) override {
    GBD_CHECK_MSG(!started_, "on() after this processor started communicating");
    if (handlers_.size() <= h) handlers_.resize(h + 1);
    GBD_CHECK_MSG(!handlers_[h], "handler registered twice");
    handlers_[h] = std::move(fn);
  }

  void send(int dst, HandlerId h, std::vector<std::uint8_t> payload) override {
    ensure_started();
    GBD_CHECK(dst >= 0 && dst < machine_->nprocs_);
    GBD_CHECK_MSG(!machine_->shutdown_.load(std::memory_order_relaxed),
                  "send after machine quiescence — protocol bug");
    comm_.messages_sent += 1;
    comm_.bytes_sent += payload.size();
    // Count the envelope as in flight *before* it becomes visible in the
    // destination mailbox: quiescence tests in_flight_ == 0, and this order
    // guarantees an undelivered message is always counted.
    machine_->in_flight_.fetch_add(1);
    Mailbox& mb = *machine_->procs_[static_cast<std::size_t>(dst)]->mailbox_;
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mb.mu, std::try_to_lock);
      if (!lock.owns_lock()) {
        lock.lock();
        mb.stats.lock_contended += 1;
      }
      mb.in.push_back(Envelope{id_, h, std::move(payload)});
      mb.stats.enqueues += 1;
      wake = mb.waiting;
      if (wake) mb.stats.notifies += 1;
    }
    if (wake) mb.cv.notify_one();
  }

  std::size_t poll() override {
    ensure_started();
    maybe_tick();
    return drain();
  }

  bool wait() override {
    ensure_started();
    for (;;) {
      maybe_tick();
      if (drain() > 0) return true;
      Mailbox& mb = *mailbox_;
      std::unique_lock<std::mutex> lock(mb.mu);
      if (!mb.in.empty()) continue;  // raced with a send
      if (machine_->shutdown_.load()) return false;
      mb.waiting = true;
      mb.stats.cv_waits += 1;
      int idle = machine_->idle_.fetch_add(1) + 1;
      if (idle == machine_->nprocs_ && machine_->in_flight_.load() == 0) {
        // We are the last processor to go idle and nothing is undelivered:
        // the machine is quiescent. (No other processor can break this —
        // blocked and finished processors never send.)
        mb.waiting = false;
        machine_->idle_.fetch_sub(1);
        lock.unlock();
        machine_->declare_shutdown();
        return false;
      }
      std::uint64_t t0 = wall_ns();
      mb.cv.wait(lock, [&] {
        return !mb.in.empty() || machine_->shutdown_.load(std::memory_order_relaxed);
      });
      comm_.idle_units += wall_ns() - t0;
      mb.waiting = false;
      machine_->idle_.fetch_sub(1);
      if (!mb.in.empty()) {
        mb.stats.wakeups += 1;
        continue;  // drain on the next iteration
      }
      if (machine_->shutdown_.load()) return false;
    }
  }

  void charge(std::uint64_t) override {}

  void backoff(std::uint64_t units) override {
    // Real-time analog of the simulator's charged delay: without it, an
    // idle processor's steal/NACK circuits run at wire speed and saturate
    // the machine with protocol traffic (and, oversubscribed, starve the
    // busy processors of cpu). ~50ns per abstract work unit, capped; a
    // sender's notify ends the pause early, so throttling never delays
    // actual work by more than the scheduler already does.
    ensure_started();
    constexpr std::uint64_t kNsPerUnit = 50;
    constexpr std::uint64_t kMaxNs = 2'000'000;  // 2 ms
    // Escalate while nothing arrives (drain resets the streak): a long-idle
    // processor polls ever more lazily instead of at a fixed cadence.
    std::uint64_t ns = std::min((units * kNsPerUnit) << std::min(backoff_streak_, 5u), kMaxNs);
    backoff_streak_ += 1;
    Mailbox& mb = *mailbox_;
    std::unique_lock<std::mutex> lock(mb.mu);
    if (!mb.in.empty() || machine_->shutdown_.load()) return;
    mb.waiting = true;  // senders notify; idle_ untouched — still busy for quiescence
    mb.stats.cv_waits += 1;
    std::uint64_t t0 = wall_ns();
    mb.cv.wait_for(lock, std::chrono::nanoseconds(ns), [&] {
      return !mb.in.empty() || machine_->shutdown_.load(std::memory_order_relaxed);
    });
    comm_.idle_units += wall_ns() - t0;
    mb.waiting = false;
  }

  std::uint64_t now() override { return wall_ns() - machine_->epoch_ns_; }

  void yield() override { std::this_thread::yield(); }

 private:
  /// Swap the mailbox slab out under its lock and dispatch outside it.
  std::size_t drain() {
    Mailbox& mb = *mailbox_;
    scratch_.clear();
    {
      std::lock_guard<std::mutex> lock(mb.mu);
      scratch_.swap(mb.in);
    }
    if (scratch_.empty()) return 0;
    backoff_streak_ = 0;  // traffic arrived: poll eagerly again
    machine_->in_flight_.fetch_sub(scratch_.size());
    mb.stats.drains += 1;
    mb.stats.drained_messages += scratch_.size();
    mb.stats.max_drain_batch = std::max<std::uint64_t>(mb.stats.max_drain_batch, scratch_.size());
    for (Envelope& env : scratch_) dispatch(env);
    return scratch_.size();
  }

  /// Steady-clock telemetry tick; frames land in the in-process aggregator.
  void maybe_tick() {
    if (telemetry_ == nullptr) return;
    std::uint64_t t = now();
    if (!telemetry_->due(t)) return;
    std::vector<std::uint8_t> frame = telemetry_->sample(
        id_, t, comm_, tracer() != nullptr ? tracer()->dropped() : 0);
    machine_->telemetry_->ingest_bytes(frame.data(), frame.size());
  }

  /// First communication call: this processor's registration is complete.
  /// Block until every processor's is (see the contract on Proc::on).
  void ensure_started() {
    if (started_) return;
    started_ = true;
    machine_->start_latch_->arrive_and_wait();
  }

  void dispatch(Envelope& env) {
    GBD_CHECK_MSG(env.handler < handlers_.size() && handlers_[env.handler],
                  "message for unregistered handler");
    comm_.messages_received += 1;
    Reader r(env.payload.data(), env.payload.size());
    std::uint64_t t0 = tracer() != nullptr ? now() : 0;
    handlers_[env.handler](*this, env.src, r);
    if (tracer() != nullptr) {
      tracer()->complete(Ev::kHandler, t0, now(), env.handler,
                         static_cast<std::uint64_t>(env.src));
    }
  }

  ThreadMachine* machine_;
  int id_;
  std::vector<Handler> handlers_;
  std::unique_ptr<Mailbox> mailbox_;
  std::vector<Envelope> scratch_;  ///< pooled drain buffer, owner-only
  bool started_ = false;           ///< passed the registration barrier
  unsigned backoff_streak_ = 0;    ///< consecutive backoffs with no traffic

  friend class ThreadMachine;
};

ThreadMachine::ThreadMachine(int nprocs) : nprocs_(nprocs) { GBD_CHECK(nprocs >= 1); }

ThreadMachine::~ThreadMachine() = default;

void ThreadMachine::declare_shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  // Wake every sleeper. Taking each mailbox mutex orders the store above
  // before any still-running wait(): a processor either sees shutdown_ when
  // it evaluates its predicate, or is already inside cv.wait and gets the
  // notification.
  for (auto& p : procs_) {
    Mailbox& mb = *p->mailbox_;
    {
      std::lock_guard<std::mutex> lock(mb.mu);
    }
    mb.cv.notify_all();
  }
}

void ThreadMachine::note_worker_finished(ThreadProc& proc) {
  // A worker that never communicated still owes its barrier arrival, or
  // every other processor would block at the latch forever.
  if (!proc.started_) {
    proc.started_ = true;
    start_latch_->count_down();
  }
  int idle = idle_.fetch_add(1) + 1;
  if (idle == nprocs_ && in_flight_.load() == 0) declare_shutdown();
}

MachineStats ThreadMachine::run(const std::function<void(Proc&)>& worker) {
  procs_.clear();
  in_flight_.store(0);
  idle_.store(0);
  shutdown_.store(false);
  start_latch_ = std::make_unique<std::latch>(nprocs_);
  for (int i = 0; i < nprocs_; ++i) {
    procs_.push_back(std::make_unique<ThreadProc>(this, i));
    procs_.back()->mailbox_ = std::make_unique<Mailbox>();
  }
  if (tracer_ != nullptr) {
    tracer_->start_run(nprocs_, ClockDomain::kSteadyNs);
    for (int i = 0; i < nprocs_; ++i) {
      procs_[static_cast<std::size_t>(i)]->tracer_ = &tracer_->at(i);
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->start_run(nprocs_, ClockDomain::kSteadyNs);
    for (int i = 0; i < nprocs_; ++i) {
      procs_[static_cast<std::size_t>(i)]->telemetry_ = &telemetry_->at(i);
    }
  }
  epoch_ns_ = wall_ns();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs_));
  for (int i = 0; i < nprocs_; ++i) {
    threads.emplace_back([this, i, &worker] {
      worker(*procs_[static_cast<std::size_t>(i)]);
      note_worker_finished(*procs_[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();

  // Under real concurrency a mid-run global read would race, so invariants
  // run only once all workers have joined (the final state is still the
  // one the protocols must leave coherent).
  if (monitor_ != nullptr) monitor_->run_all("quiescence");

  MachineStats stats;
  stats.makespan = wall_ns() - epoch_ns_;
  stats.has_mailbox_stats = true;
  for (auto& p : procs_) {
    stats.per_proc.push_back(p->comm_stats());
    stats.mailbox.push_back(p->mailbox_->stats);
  }
  if (tracer_ != nullptr) tracer_->finish_run(stats.makespan);
  return stats;
}

}  // namespace gbd
