#include "net/socket_machine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "machine/invariants.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "support/check.hpp"

namespace gbd {

namespace {

constexpr int kPumpMs = 200;  ///< cap on one blocking pump (timers fire sooner anyway)

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t realtime_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

class SocketMachine::SocketProc final : public Proc {
 public:
  explicit SocketProc(SocketMachine* m) : machine_(m), id_(m->rank()) {}

  int id() const override { return id_; }
  int nprocs() const override { return machine_->nprocs(); }

  void on(HandlerId h, Handler fn) override {
    GBD_CHECK_MSG(!started_, "on() after this processor started communicating");
    if (handlers_.size() <= h) handlers_.resize(h + 1);
    GBD_CHECK_MSG(!handlers_[h], "handler registered twice");
    handlers_[h] = std::move(fn);
  }

  void send(int dst, HandlerId h, std::vector<std::uint8_t> payload) override {
    ensure_started();
    GBD_CHECK(dst >= 0 && dst < nprocs());
    GBD_CHECK_MSG(!machine_->quiescent_, "send after machine quiescence — protocol bug");
    comm_.messages_sent += 1;
    comm_.bytes_sent += payload.size();
    machine_->sent_total_ += 1;
    if (dst == id_) {
      selfq_.push_back(Envelope{h, std::move(payload)});
    } else {
      std::uint64_t seq = machine_->transport_->send_app(dst, h, std::move(payload));
      // Causal flow stamp: the send instant binds to whatever span is open
      // here; the matching kMsgRecv at the destination closes the edge.
      if (tracer() != nullptr) {
        tracer()->instant(Ev::kMsgSend, now(), flow_id(id_, dst, seq), h);
      }
    }
  }

  std::size_t poll() override {
    ensure_started();
    maybe_tick();
    if (nprocs() > 1) machine_->transport_->pump(0);
    return deliver_all();
  }

  bool wait() override {
    ensure_started();
    for (;;) {
      maybe_tick();
      if (nprocs() > 1) machine_->transport_->pump(0);
      if (deliver_all() > 0) return true;
      if (machine_->quiescent_) return false;
      if (nprocs() == 1) {
        // Alone, an empty inbox IS machine quiescence.
        machine_->quiescent_ = true;
        return false;
      }
      machine_->report_idle();
      if (machine_->quiescent_) return false;  // rank 0 may declare inline
      mb_stats_.cv_waits += 1;
      std::uint64_t t0 = now();
      machine_->transport_->pump(kPumpMs);
      comm_.idle_units += now() - t0;
      if (machine_->transport_->inbox_size() != 0 || !selfq_.empty()) {
        mb_stats_.wakeups += 1;
      }
    }
  }

  void charge(std::uint64_t) override {}

  void backoff(std::uint64_t units) override {
    // Same throttle as ThreadMachine: ~50ns per work unit with escalation,
    // cut short by arriving traffic (pump returns when an fd is ready). A
    // processor in backoff stays busy for quiescence: no idle report here.
    ensure_started();
    constexpr std::uint64_t kNsPerUnit = 50;
    constexpr std::uint64_t kMaxNs = 2'000'000;  // 2 ms
    std::uint64_t ns = std::min((units * kNsPerUnit) << std::min(backoff_streak_, 5u), kMaxNs);
    backoff_streak_ += 1;
    if (nprocs() == 1) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
      return;
    }
    if (machine_->transport_->inbox_size() != 0 || !selfq_.empty()) return;
    mb_stats_.cv_waits += 1;
    std::uint64_t t0 = now();
    machine_->transport_->pump(static_cast<int>(std::max<std::uint64_t>(1, ns / 1'000'000)));
    comm_.idle_units += now() - t0;
  }

  std::uint64_t now() override { return steady_ns() - machine_->epoch_ns_; }

  void yield() override { std::this_thread::yield(); }

  const ChaosConfig* chaos() const override {
    const ChaosConfig& c = machine_->cfg_.net.chaos;
    return c.enabled() ? &c : nullptr;
  }

 private:
  friend class SocketMachine;

  struct Envelope {
    HandlerId handler;
    std::vector<std::uint8_t> payload;
  };

  /// First communication call: registration is complete — run the barrier.
  void ensure_started() {
    if (started_) return;
    started_ = true;
    machine_->registration_barrier();
  }

  /// Dispatch everything deliverable now (self-sends first, then the wire).
  std::size_t deliver_all() {
    std::size_t n = 0;
    while (!selfq_.empty()) {
      Envelope env = std::move(selfq_.front());
      selfq_.pop_front();
      dispatch(id_, env.handler, env.payload);
      n += 1;
    }
    AppMessage msg;
    while (machine_->transport_->next_app(&msg)) {
      dispatch(msg.src, msg.handler, msg.payload, msg.seq);
      n += 1;
    }
    if (n > 0) {
      backoff_streak_ = 0;
      machine_->note_busy();
      mb_stats_.drains += 1;
      mb_stats_.drained_messages += n;
      mb_stats_.max_drain_batch = std::max<std::uint64_t>(mb_stats_.max_drain_batch, n);
    }
    return n;
  }

  void dispatch(int src, HandlerId h, std::vector<std::uint8_t>& payload,
                std::uint64_t seq = 0) {
    GBD_CHECK_MSG(h < handlers_.size() && handlers_[h], "message for unregistered handler");
    comm_.messages_received += 1;
    machine_->delivered_total_ += 1;
    mb_stats_.enqueues += 1;
    Reader r(payload.data(), payload.size());
    std::uint64_t t0 = tracer() != nullptr ? now() : 0;
    // Close the causal edge: the receive instant lands inside the handler
    // slice that follows (self-sends have no wire seq and carry no edge).
    if (tracer() != nullptr && seq != 0) {
      tracer()->instant(Ev::kMsgRecv, t0, flow_id(src, id_, seq), h);
    }
    handlers_[h](*this, src, r);
    if (tracer() != nullptr) {
      tracer()->complete(Ev::kHandler, t0, now(), h, static_cast<std::uint64_t>(src));
    }
  }

  /// Post-worker: keep the machine alive until global quiescence, discarding
  /// (but counting) any envelope that still arrives — ThreadMachine likewise
  /// never dispatches into a finished worker.
  void run_to_quiescence() {
    ensure_started();
    finished_ = true;
    if (nprocs() == 1) {
      machine_->quiescent_ = true;
      return;
    }
    while (!machine_->quiescent_) {
      discard_all();
      maybe_tick();
      machine_->report_idle();
      if (machine_->quiescent_) break;
      machine_->transport_->pump(kPumpMs);
      discard_all();
    }
    discard_all();
  }

  /// Steady-clock telemetry tick. Rank 0 feeds its own aggregator directly;
  /// every other rank ships the frame best-effort (unacked, chaos-droppable)
  /// to rank 0. Neither path touches sent_total_/delivered_total_, so
  /// telemetry can never perturb Mattern quiescence.
  void maybe_tick() {
    if (telemetry_ == nullptr) return;
    std::uint64_t t = now();
    if (!telemetry_->due(t)) return;
    std::vector<std::uint8_t> frame = telemetry_->sample(
        id_, t, comm_, tracer() != nullptr ? tracer()->dropped() : 0);
    if (id_ == 0) {
      machine_->telemetry_->ingest_bytes(frame.data(), frame.size());
    } else {
      machine_->transport_->send_telemetry(0, std::move(frame));
    }
  }

  void discard_all() {
    while (!selfq_.empty()) {
      selfq_.pop_front();
      comm_.messages_received += 1;
      machine_->delivered_total_ += 1;
    }
    AppMessage msg;
    while (machine_->transport_->next_app(&msg)) {
      comm_.messages_received += 1;
      machine_->delivered_total_ += 1;
    }
  }

  bool idle_now() const {
    return (machine_->local_idle_ || finished_) && selfq_.empty() &&
           machine_->transport_->inbox_size() == 0;
  }

  SocketMachine* machine_;
  int id_;
  std::vector<Handler> handlers_;
  std::deque<Envelope> selfq_;
  MailboxStats mb_stats_;
  bool started_ = false;
  bool finished_ = false;
  unsigned backoff_streak_ = 0;
};

SocketMachine::SocketMachine(SocketMachineConfig cfg) : cfg_(std::move(cfg)) {
  GBD_CHECK(cfg_.net.nprocs >= 1);
  GBD_CHECK(cfg_.net.rank >= 0 && cfg_.net.rank < cfg_.net.nprocs);
  idle_.assign(static_cast<std::size_t>(nprocs()), false);
  r_sent_.assign(static_cast<std::size_t>(nprocs()), 0);
  r_delivered_.assign(static_cast<std::size_t>(nprocs()), 0);
}

SocketMachine::~SocketMachine() = default;

const TransportStats& SocketMachine::transport_stats() const {
  static const TransportStats kEmpty{};
  return transport_ != nullptr ? transport_->stats() : kEmpty;
}

void SocketMachine::registration_barrier() {
  if (nprocs() == 1) {
    go_received_ = true;
    return;
  }
  if (rank() == 0) {
    ready_count_ += 1;  // self
    while (ready_count_ < nprocs()) transport_->pump(kPumpMs);
    transport_->send_control(-1, FrameType::kGo);
    go_received_ = true;
  } else {
    transport_->send_control(0, FrameType::kReady);
    while (!go_received_) transport_->pump(kPumpMs);
  }
}

void SocketMachine::on_control(int src, FrameType type, Reader& r) {
  switch (type) {
    case FrameType::kReady:
      GBD_CHECK_MSG(rank() == 0, "kReady at a non-coordinator rank");
      ready_count_ += 1;
      return;
    case FrameType::kGo:
      go_received_ = true;
      return;
    case FrameType::kIdle: {
      GBD_CHECK_MSG(rank() == 0, "kIdle at a non-coordinator rank");
      std::uint64_t s = r.u64(), d = r.u64();
      idle_[static_cast<std::size_t>(src)] = true;
      r_sent_[static_cast<std::size_t>(src)] = s;
      r_delivered_[static_cast<std::size_t>(src)] = d;
      maybe_start_wave();
      return;
    }
    case FrameType::kProbe: {
      std::uint64_t wave = r.u64();
      bool idle = proc_ != nullptr && proc_->idle_now();
      // A busy answer invalidates our standing kIdle report — rank 0 marks
      // us busy, so we must re-report once idle again even if the counters
      // never move (otherwise the coordinator would wait forever).
      if (!idle) idle_reported_ = false;
      Writer w;
      w.u64(wave);
      w.u8(idle ? 1 : 0);
      w.u64(sent_total_);
      w.u64(delivered_total_);
      transport_->send_control(src, FrameType::kProbeAck, w.take());
      return;
    }
    case FrameType::kProbeAck: {
      GBD_CHECK_MSG(rank() == 0, "kProbeAck at a non-coordinator rank");
      std::uint64_t wave = r.u64();
      bool idle = r.u8() != 0;
      std::uint64_t s = r.u64(), d = r.u64();
      if (!wave_active_ || wave != wave_id_) return;
      std::size_t i = static_cast<std::size_t>(src);
      wave_all_idle_ = wave_all_idle_ && idle;
      wave_consistent_ = wave_consistent_ && s == snap_sent_[i] && d == snap_delivered_[i];
      idle_[i] = idle;
      r_sent_[i] = s;
      r_delivered_[i] = d;
      wave_replies_ += 1;
      if (wave_replies_ == nprocs()) {
        wave_active_ = false;
        if (wave_all_idle_ && wave_consistent_) {
          declare_quiescent();
        } else {
          maybe_start_wave();  // tables changed; conditions may already hold again
        }
      }
      return;
    }
    case FrameType::kQuiescent:
      quiescent_ = true;
      return;
    case FrameType::kExitStats: {
      GBD_CHECK_MSG(rank() == 0, "kExitStats at a non-coordinator rank");
      std::size_t i = static_cast<std::size_t>(src);
      ProcCommStats& c = all_comm_[i];
      c.messages_sent = r.u64();
      c.bytes_sent = r.u64();
      c.messages_received = r.u64();
      c.idle_units = r.u64();
      MailboxStats& m = all_mailbox_[i];
      m.enqueues = r.u64();
      m.notifies = r.u64();
      m.lock_contended = r.u64();
      m.cv_waits = r.u64();
      m.wakeups = r.u64();
      m.drains = r.u64();
      m.drained_messages = r.u64();
      m.max_drain_batch = r.u64();
      all_finish_[i] = r.u64();
      exit_stats_received_ += 1;
      return;
    }
    case FrameType::kExitAck:
      exit_ack_ = true;
      return;
    case FrameType::kGather: {
      GBD_CHECK_MSG(rank() == 0, "kGather at a non-coordinator rank");
      std::vector<std::uint8_t> blob(r.remaining());
      for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = r.u8();
      gather_blobs_[static_cast<std::size_t>(src)] = std::move(blob);
      gather_received_ += 1;
      return;
    }
    case FrameType::kGatherAck:
      gather_ack_ = true;
      return;
    case FrameType::kTelemetry: {
      // Best-effort metric snapshot from a peer rank. Deliberately lenient:
      // a frame arriving with no aggregator attached (or at a non-zero rank
      // after a topology mix-up) is dropped, never fatal — loss is already
      // part of this channel's contract.
      if (rank() == 0 && telemetry_ != nullptr) {
        std::vector<std::uint8_t> blob(r.remaining());
        for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = r.u8();
        telemetry_->ingest_bytes(blob.data(), blob.size());
      }
      return;
    }
    default:
      GBD_CHECK_MSG(false, "unexpected control frame");
  }
}

void SocketMachine::note_busy() {
  local_idle_ = false;
  idle_reported_ = false;
  if (rank() == 0) idle_[0] = false;
}

void SocketMachine::report_idle() {
  local_idle_ = true;
  if (rank() == 0) {
    idle_[0] = true;
    r_sent_[0] = sent_total_;
    r_delivered_[0] = delivered_total_;
    maybe_start_wave();
    return;
  }
  if (idle_reported_ && reported_sent_ == sent_total_ && reported_delivered_ == delivered_total_) {
    return;
  }
  Writer w;
  w.u64(sent_total_);
  w.u64(delivered_total_);
  transport_->send_control(0, FrameType::kIdle, w.take());
  idle_reported_ = true;
  reported_sent_ = sent_total_;
  reported_delivered_ = delivered_total_;
}

void SocketMachine::maybe_start_wave() {
  if (quiescent_ || wave_active_) return;
  if (idle_[0]) {
    r_sent_[0] = sent_total_;
    r_delivered_[0] = delivered_total_;
  }
  std::uint64_t sum_s = 0, sum_d = 0;
  for (int i = 0; i < nprocs(); ++i) {
    if (!idle_[static_cast<std::size_t>(i)]) return;
    sum_s += r_sent_[static_cast<std::size_t>(i)];
    sum_d += r_delivered_[static_cast<std::size_t>(i)];
  }
  if (sum_s != sum_d) return;
  wave_active_ = true;
  wave_id_ += 1;
  wave_replies_ = 1;  // own ack, with the snapshot values by construction
  wave_all_idle_ = true;
  wave_consistent_ = true;
  snap_sent_ = r_sent_;
  snap_delivered_ = r_delivered_;
  Writer w;
  w.u64(wave_id_);
  transport_->send_control(-1, FrameType::kProbe, w.take());
}

void SocketMachine::declare_quiescent() {
  quiescent_ = true;
  transport_->send_control(-1, FrameType::kQuiescent);
}

void SocketMachine::pump_until_flushed(const char* what) {
  std::uint64_t deadline = Transport::now_ms() + static_cast<std::uint64_t>(cfg_.net.peer_timeout_ms);
  while (!transport_->outbox_empty()) {
    if (Transport::now_ms() > deadline) {
      throw NetError("rank " + std::to_string(rank()) + ": timed out flushing " + what);
    }
    transport_->pump(20);
  }
}

void SocketMachine::exit_phase() {
  if (nprocs() == 1) return;
  std::uint64_t deadline = Transport::now_ms() + static_cast<std::uint64_t>(cfg_.net.peer_timeout_ms);
  auto check_deadline = [&](const char* what) {
    if (Transport::now_ms() > deadline) {
      throw NetError("rank " + std::to_string(rank()) + ": timed out in exit handshake (" +
                     what + ")");
    }
  };
  if (rank() == 0) {
    while (exit_stats_received_ < nprocs() - 1) {
      check_deadline("collecting stats");
      transport_->pump(kPumpMs);
    }
    transport_->send_control(-1, FrameType::kExitAck);
    // A rank may exit the moment its ack lands, closing its sockets while
    // we still flush acks to the rest — from here on, peer EOF is normal
    // teardown. (A caller that proceeds to gather() gets deadline errors
    // instead of fast-fail for a genuinely dead peer; gather guards itself.)
    transport_->set_lenient(true);
    pump_until_flushed("exit acks");
  } else {
    const ProcCommStats& c = proc_->comm_stats();
    const MailboxStats& m = proc_->mb_stats_;
    Writer w;
    w.u64(c.messages_sent);
    w.u64(c.bytes_sent);
    w.u64(c.messages_received);
    w.u64(c.idle_units);
    w.u64(m.enqueues);
    w.u64(m.notifies);
    w.u64(m.lock_contended);
    w.u64(m.cv_waits);
    w.u64(m.wakeups);
    w.u64(m.drains);
    w.u64(m.drained_messages);
    w.u64(m.max_drain_batch);
    w.u64(finish_ns_);
    transport_->send_control(0, FrameType::kExitStats, w.take());
    // Peers that receive their ack first are free to exit while we still
    // wait for ours, so their EOFs stop being failures now. If the
    // coordinator itself died, the ack never comes and the deadline above
    // turns that into a clean NetError instead of a fast-fail.
    transport_->set_lenient(true);
    while (!exit_ack_) {
      check_deadline("waiting for coordinator ack");
      transport_->pump(kPumpMs);
    }
  }
}

MachineStats SocketMachine::run(const std::function<void(Proc&)>& worker) {
  GBD_CHECK_MSG(!ran_, "SocketMachine::run is one-shot");
  ran_ = true;
  all_comm_.assign(static_cast<std::size_t>(nprocs()), ProcCommStats{});
  all_mailbox_.assign(static_cast<std::size_t>(nprocs()), MailboxStats{});
  all_finish_.assign(static_cast<std::size_t>(nprocs()), 0);
  gather_blobs_.resize(static_cast<std::size_t>(nprocs()));

  transport_ = std::make_unique<Transport>(
      cfg_.net, [this](int src, FrameType t, Reader& r) { on_control(src, t, r); });
  transport_->connect_all();
  proc_ = std::make_unique<SocketProc>(this);
  if (tracer_ != nullptr) {
    tracer_->start_run(nprocs(), ClockDomain::kSteadyNs);
    tracer_->set_wall_epoch_ns(realtime_ns());
    proc_->tracer_ = &tracer_->at(rank());
  }
  if (telemetry_ != nullptr) {
    telemetry_->start_run(nprocs(), ClockDomain::kSteadyNs);
    proc_->telemetry_ = &telemetry_->at(rank());
    transport_->set_rtt_observer([this](std::uint64_t rtt_ms) {
      telemetry_->at(rank()).hist(TeleHist::kAckRtt).record(rtt_ms);
    });
  }
  epoch_ns_ = steady_ns();

  worker(*proc_);
  finish_ns_ = proc_->now();
  proc_->run_to_quiescence();
  exit_phase();

  MachineStats stats;
  stats.has_mailbox_stats = true;
  stats.per_proc.assign(static_cast<std::size_t>(nprocs()), ProcCommStats{});
  stats.mailbox.assign(static_cast<std::size_t>(nprocs()), MailboxStats{});
  std::size_t self = static_cast<std::size_t>(rank());
  stats.per_proc[self] = proc_->comm_stats();
  stats.mailbox[self] = proc_->mb_stats_;
  stats.makespan = finish_ns_;
  if (rank() == 0) {
    for (int i = 1; i < nprocs(); ++i) {
      std::size_t j = static_cast<std::size_t>(i);
      stats.per_proc[j] = all_comm_[j];
      stats.mailbox[j] = all_mailbox_[j];
      stats.makespan = std::max(stats.makespan, all_finish_[j]);
    }
  }

  // Under real concurrency across processes a mid-run global sweep would
  // race; the final state is still checkable locally (only this rank's
  // worker exists here — checks that need every rank skip themselves).
  if (monitor_ != nullptr) monitor_->run_all("quiescence");
  if (tracer_ != nullptr) tracer_->finish_run(stats.makespan);
  return stats;
}

std::vector<std::vector<std::uint8_t>> SocketMachine::gather(std::vector<std::uint8_t> blob) {
  GBD_CHECK_MSG(ran_ && quiescent_, "gather() is a post-run collective");
  std::vector<std::vector<std::uint8_t>> out(static_cast<std::size_t>(nprocs()));
  if (nprocs() == 1) {
    out[0] = std::move(blob);
    return out;
  }
  std::uint64_t deadline = Transport::now_ms() + static_cast<std::uint64_t>(cfg_.net.peer_timeout_ms);
  auto check_deadline = [&] {
    if (Transport::now_ms() > deadline) {
      throw NetError("rank " + std::to_string(rank()) + ": timed out in gather");
    }
  };
  if (rank() == 0) {
    gather_blobs_[0] = std::move(blob);
    gather_received_ += 1;
    while (gather_received_ < nprocs()) {
      check_deadline();
      transport_->pump(kPumpMs);
    }
    transport_->send_control(-1, FrameType::kGatherAck);
    // A rank that has its ack may exit (EOF) while we still flush to the
    // rest — that is normal teardown now, not a failure. A genuinely stuck
    // flush still surfaces via the pump_until_flushed deadline.
    transport_->set_lenient(true);
    pump_until_flushed("gather acks");
    out = std::move(gather_blobs_);
  } else {
    transport_->send_control(0, FrameType::kGather, std::move(blob));
    // Peers that received their ack first will start exiting while we wait
    // for ours; their EOFs are benign. If rank 0 itself died, the ack never
    // comes and the deadline above turns that into a clean NetError.
    transport_->set_lenient(true);
    while (!gather_ack_) {
      check_deadline();
      transport_->pump(kPumpMs);
    }
  }
  return out;
}

}  // namespace gbd
