#include "machine/sim_machine.hpp"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>

#include "machine/invariants.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"

namespace gbd {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

struct SimEnvelope {
  std::uint64_t arrival;
  std::uint64_t rank;  // tie-break; == seq normally, chaos-shuffled under reorder
  std::uint64_t seq;   // global send order; the final deterministic tie-break
  int src;
  HandlerId handler;
  std::vector<std::uint8_t> payload;
};

struct ArrivalLater {
  bool operator()(const SimEnvelope& a, const SimEnvelope& b) const {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.seq > b.seq;
  }
};

enum class St { kReady, kRunning, kWaiting, kDone };

}  // namespace

/// Scheduler state shared by all processors; everything here is guarded by
/// `mu` except where noted.
struct SimMachine::Core {
  std::mutex mu;
  std::vector<std::unique_ptr<SimProc>> procs;
  std::uint64_t next_seq = 0;
  std::uint64_t duplicated = 0;  ///< chaos-injected duplicate deliveries
  bool shutdown = false;

  /// Earliest time proc i could run: its clock if ready, the max of its
  /// clock and its earliest pending arrival if waiting, never if done or
  /// waiting on an empty inbox.
  std::uint64_t resume_key_locked(int i) const;

  /// Min-key processor among those able to run, excluding `except`; -1 none.
  int pick_next_locked(int except) const;

  /// Hand the token to `next` (or trigger shutdown if next == -1 and nothing
  /// can ever run again).
  void grant_locked(int next);
};

class SimMachine::SimProc final : public Proc {
 public:
  SimProc(SimMachine* m, int id) : machine_(m), id_(id) {}

  int id() const override { return id_; }
  int nprocs() const override { return machine_->nprocs_; }

  void on(HandlerId h, Handler fn) override {
    if (handlers_.size() <= h) handlers_.resize(h + 1);
    GBD_CHECK_MSG(!handlers_[h], "handler registered twice");
    handlers_[h] = std::move(fn);
  }

  void send(int dst, HandlerId h, std::vector<std::uint8_t> payload) override {
    GBD_CHECK(dst >= 0 && dst < machine_->nprocs_);
    drain_cost();
    clock_ += machine_->cost_.inject;
    comm_.messages_sent += 1;
    comm_.bytes_sent += payload.size();
    std::uint64_t wire = clock_ + machine_->cost_.wire_time(payload.size());
    {
      std::lock_guard<std::mutex> lock(machine_->core_->mu);
      GBD_CHECK_MSG(!machine_->core_->shutdown, "send after machine quiescence");
      auto& dst_proc = *machine_->core_->procs[static_cast<std::size_t>(dst)];
      std::uint64_t seq = machine_->core_->next_seq++;
      // Chaos: a dup-safe message may be delivered twice, each copy with its
      // own seeded delay — the duplicate takes its own sequence number so its
      // perturbation is independent of the original's.
      if (machine_->chaos_duplicates(h, seq)) {
        std::uint64_t dseq = machine_->core_->next_seq++;
        machine_->core_->duplicated += 1;
        dst_proc.mbox_.enqueues += 1;
        dst_proc.inbox_.push(SimEnvelope{wire + machine_->chaos_delay(dseq),
                                         machine_->chaos_rank(dseq), dseq, id_, h, payload});
      }
      dst_proc.mbox_.enqueues += 1;
      dst_proc.inbox_.push(SimEnvelope{wire + machine_->chaos_delay(seq),
                                       machine_->chaos_rank(seq), seq, id_, h,
                                       std::move(payload)});
      // If dst is blocked in wait(), its resume key just changed; it will be
      // considered at the sender's next scheduling point. No wake needed —
      // the token protocol only moves at scheduling points.
    }
    checkpoint();
  }

  std::size_t poll() override {
    drain_cost();
    checkpoint();
    return deliver_due();
  }

  bool wait() override {
    drain_cost();
    maybe_tick();
    std::size_t n = deliver_due();
    if (n > 0) return true;

    std::unique_lock<std::mutex> lock(machine_->core_->mu);
    for (;;) {
      if (!inbox_.empty()) {
        // Advance to the earliest arrival; the gap is idle time.
        std::uint64_t arrival = inbox_.top().arrival;
        if (arrival > clock_) {
          comm_.idle_units += arrival - clock_;
          clock_ = arrival;
        }
        // Run only if we are (still) the minimum — otherwise hand off first.
        int next = machine_->core_->pick_next_locked(id_);
        if (next >= 0 && earlier_than_me(next)) {
          state_ = St::kReady;  // we have work (a due message) pending
          machine_->core_->grant_locked(next);
          block_until_active(lock);
          if (machine_->core_->shutdown && inbox_.empty()) return false;
          continue;  // re-evaluate; more messages may have arrived
        }
        state_ = St::kRunning;
        lock.unlock();
        return deliver_due() > 0 ? true : wait();  // re-enter if a race drained nothing
      }

      state_ = St::kWaiting;
      mbox_.cv_waits += 1;  // parked with an empty inbox — the sim's "condvar wait"
      int next = machine_->core_->pick_next_locked(id_);
      machine_->core_->grant_locked(next);  // next == -1 triggers shutdown check
      block_until_active(lock);
      if (machine_->core_->shutdown && inbox_.empty()) {
        state_ = St::kDone;  // no further participation in scheduling
        return false;
      }
      mbox_.wakeups += 1;  // resumed with traffic pending, not by shutdown
    }
  }

  void charge(std::uint64_t units) override {
    drain_cost();
    clock_ += units * scale_;
  }

  std::uint64_t now() override {
    drain_cost();
    return clock_;
  }

  void yield() override {
    drain_cost();
    checkpoint();
  }

  const ChaosConfig* chaos() const override {
    return machine_->chaos_.enabled() ? &machine_->chaos_ : nullptr;
  }

 private:
  friend class SimMachine;
  friend struct SimMachine::Core;

  /// Move accumulated kernel work into the virtual clock. A chaos-starved
  /// processor pays scale_ virtual units per unit of work, so the min-clock
  /// scheduler systematically favors everyone else.
  void drain_cost() { clock_ += CostCounter::drain() * scale_; }

  /// Scheduling point: hand the token to an earlier processor if one exists.
  void checkpoint() {
    std::unique_lock<std::mutex> lock(machine_->core_->mu);
    if (machine_->core_->shutdown) return;  // post-quiescence cleanup runs freely
    int next = machine_->core_->pick_next_locked(id_);
    if (next < 0 || !earlier_than_me(next)) return;
    state_ = St::kReady;
    machine_->core_->grant_locked(next);
    block_until_active(lock);
  }

  bool earlier_than_me(int other) const {
    std::uint64_t key = machine_->core_->resume_key_locked(other);
    if (key != clock_) return key < clock_;
    return other < id_;
  }

  void block_until_active(std::unique_lock<std::mutex>& lock) {
    cv_.wait(lock, [&] { return active_ || machine_->core_->shutdown; });
    if (active_) {
      active_ = false;
      state_ = St::kRunning;
    }
  }

  /// Deliver every message whose arrival is <= the current clock, in arrival
  /// order, advancing the clock by dispatch and handler work as it goes.
  std::size_t deliver_due() {
    std::size_t delivered = 0;
    for (;;) {
      SimEnvelope env;
      {
        std::lock_guard<std::mutex> lock(machine_->core_->mu);
        if (inbox_.empty() || inbox_.top().arrival > clock_) break;
        env = inbox_.top();
        inbox_.pop();
      }
      std::uint64_t t0 = clock_;
      clock_ += machine_->cost_.dispatch;
      comm_.messages_received += 1;
      GBD_CHECK_MSG(env.handler < handlers_.size() && handlers_[env.handler],
                    "message for unregistered handler");
      Reader r(env.payload.data(), env.payload.size());
      handlers_[env.handler](*this, env.src, r);
      drain_cost();  // handler work lands on this processor's clock
      if (tracer() != nullptr) {
        tracer()->complete(Ev::kHandler, t0, clock_, env.handler,
                           static_cast<std::uint64_t>(env.src));
      }
      ++delivered;
      // Safe point for global invariant checks: this processor is between
      // handlers, every other processor is parked at a scheduling point.
      if (machine_->monitor_ != nullptr) machine_->monitor_->maybe_check();
    }
    if (delivered > 0) {
      mbox_.drains += 1;
      mbox_.drained_messages += delivered;
      mbox_.max_drain_batch = std::max<std::uint64_t>(mbox_.max_drain_batch, delivered);
    }
    maybe_tick();
    return delivered;
  }

  /// Telemetry tick at a cost-drained boundary. Pure observation: charges
  /// nothing, sends nothing, touches no scheduler state — a run with
  /// telemetry attached is bit-identical (clocks, traces, bases) to one
  /// without. The frame goes straight to the in-process aggregator.
  void maybe_tick() {
    if (telemetry_ == nullptr || !telemetry_->due(clock_)) return;
    std::vector<std::uint8_t> frame = telemetry_->sample(
        id_, clock_, comm_, tracer() != nullptr ? tracer()->dropped() : 0);
    machine_->telemetry_->ingest_bytes(frame.data(), frame.size());
  }

  SimMachine* machine_;
  int id_;
  std::vector<Handler> handlers_;
  std::uint64_t clock_ = 0;
  std::uint64_t scale_ = 1;  ///< chaos starvation multiplier (set at run start)
  /// Delivery counters, mirroring ThreadMachine's mailbox stats. enqueues is
  /// sender-written under core->mu; the owner-side fields are touched only
  /// by this processor's thread.
  MailboxStats mbox_;

  // Guarded by core->mu:
  std::priority_queue<SimEnvelope, std::vector<SimEnvelope>, ArrivalLater> inbox_;
  St state_ = St::kReady;
  bool active_ = false;
  std::condition_variable cv_;
};

std::uint64_t SimMachine::Core::resume_key_locked(int i) const {
  const SimProc& p = *procs[static_cast<std::size_t>(i)];
  switch (p.state_) {
    case St::kReady:
      return p.clock_;
    case St::kWaiting:
      if (p.inbox_.empty()) return kNever;
      return std::max(p.clock_, p.inbox_.top().arrival);
    case St::kRunning:
    case St::kDone:
      return kNever;
  }
  return kNever;
}

int SimMachine::Core::pick_next_locked(int except) const {
  int best = -1;
  std::uint64_t best_key = kNever;
  for (int i = 0; i < static_cast<int>(procs.size()); ++i) {
    if (i == except) continue;
    std::uint64_t key = resume_key_locked(i);
    if (key == kNever) continue;
    if (best < 0 || key < best_key) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

void SimMachine::Core::grant_locked(int next) {
  if (next >= 0) {
    SimProc& p = *procs[static_cast<std::size_t>(next)];
    p.active_ = true;
    p.cv_.notify_one();
    return;
  }
  // Nothing can run besides the caller (who is releasing): if every other
  // processor is done or waiting on an empty inbox, the machine is quiescent.
  if (!shutdown) {
    shutdown = true;
    for (auto& p : procs) p->cv_.notify_all();
  }
}

SimMachine::SimMachine(int nprocs, CostModel cost, ChaosConfig chaos)
    : nprocs_(nprocs), cost_(cost), chaos_(std::move(chaos)), core_(std::make_unique<Core>()) {
  GBD_CHECK(nprocs >= 1);
}

SimMachine::~SimMachine() = default;

std::uint64_t SimMachine::chaos_delay(std::uint64_t seq) const {
  std::uint64_t d = 0;
  if (chaos_.jitter != 0) {
    d += chaos_mix2(chaos_.seed, seq * 4 + 1) % (chaos_.jitter + 1);
  }
  if (chaos_.reorder_permille != 0 && chaos_.reorder_window != 0 &&
      chaos_mix2(chaos_.seed, seq * 4 + 2) % 1000 < chaos_.reorder_permille) {
    d += chaos_mix2(chaos_.seed, seq * 4 + 3) % (chaos_.reorder_window + 1);
  }
  return d;
}

std::uint64_t SimMachine::chaos_rank(std::uint64_t seq) const {
  if (chaos_.reorder_permille == 0) return seq;
  return chaos_mix2(chaos_.seed ^ 0x52414e4bULL, seq);
}

bool SimMachine::chaos_duplicates(HandlerId h, std::uint64_t seq) const {
  if (chaos_.dup_permille == 0 || !chaos_.dup_allowed(h)) return false;
  return chaos_mix2(chaos_.seed ^ 0x445550ULL, seq) % 1000 < chaos_.dup_permille;
}

MachineStats SimMachine::run(const std::function<void(Proc&)>& worker) {
  return run_sim(worker);
}

SimStats SimMachine::run_sim(const std::function<void(Proc&)>& worker) {
  core_ = std::make_unique<Core>();
  for (int i = 0; i < nprocs_; ++i) {
    core_->procs.push_back(std::make_unique<SimProc>(this, i));
    core_->procs.back()->scale_ = chaos_.starve_scale(i);
  }
  if (tracer_ != nullptr) {
    tracer_->start_run(nprocs_, ClockDomain::kVirtual);
    for (int i = 0; i < nprocs_; ++i) {
      core_->procs[static_cast<std::size_t>(i)]->tracer_ = &tracer_->at(i);
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->start_run(nprocs_, ClockDomain::kVirtual);
    for (int i = 0; i < nprocs_; ++i) {
      core_->procs[static_cast<std::size_t>(i)]->telemetry_ = &telemetry_->at(i);
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs_));
  for (int i = 0; i < nprocs_; ++i) {
    threads.emplace_back([this, i, &worker] {
      SimProc& self = *core_->procs[static_cast<std::size_t>(i)];
      {
        // Wait for the initial token: proc 0 starts (all clocks are 0).
        std::unique_lock<std::mutex> lock(core_->mu);
        if (i != 0) {
          self.state_ = St::kReady;
          self.block_until_active(lock);
        } else {
          self.state_ = St::kRunning;
        }
      }
      CostCounter::drain();  // start from a clean per-thread counter
      worker(self);
      self.drain_cost();
      {
        std::unique_lock<std::mutex> lock(core_->mu);
        self.state_ = St::kDone;
        if (!core_->shutdown) {
          int next = core_->pick_next_locked(i);
          core_->grant_locked(next);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Global quiescence: one last full invariant sweep over the final state.
  if (monitor_ != nullptr) monitor_->run_all("quiescence");

  SimStats stats;
  stats.duplicated_messages = core_->duplicated;
  stats.has_mailbox_stats = true;
  for (auto& p : core_->procs) {
    stats.per_proc.push_back(p->comm_stats());
    stats.mailbox.push_back(p->mbox_);
    stats.proc_clocks.push_back(p->clock_);
    stats.makespan = std::max(stats.makespan, p->clock_);
  }
  if (tracer_ != nullptr) tracer_->finish_run(stats.makespan);
  return stats;
}

}  // namespace gbd
