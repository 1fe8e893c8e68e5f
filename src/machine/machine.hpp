// The virtual distributed-memory machine.
//
// This is our substitute for the CM-5 + active-message layer the paper ran
// on. A Machine owns P logical processors with *private* address spaces;
// the only way data crosses processors is an active message: a typed,
// byte-payload message whose registered handler runs on the destination
// processor when that processor polls its network. This mirrors CMAM
// semantics (handlers run at poll time on the compute processor; no DMA,
// no preemption), which is exactly the model §5 of the paper programs to.
//
// Two implementations share this interface:
//  - ThreadMachine (thread_machine.hpp): one OS thread per logical
//    processor, real concurrency, wall-clock time. Used to demonstrate the
//    algorithms under true asynchrony.
//  - SimMachine (sim_machine.hpp): deterministic discrete-event simulation.
//    Each processor has a virtual clock advanced by the work it performs
//    (term-operation units charged by the polynomial kernels) and by a
//    latency/bandwidth model for every message. All performance experiments
//    run here; see DESIGN.md for why this substitution preserves the
//    paper's claims.
//
// Worker protocol: Machine::run(worker) invokes worker(Proc&) once per
// processor. A worker first registers its handlers via Proc::on, then
// alternates computing with poll()/wait(). Handlers run only inside the
// destination's poll()/wait() and must not call poll(), wait() or run
// blocking loops themselves; sending from a handler is allowed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "support/serialize.hpp"

namespace gbd {

/// Application-chosen message type tag (dense small integers).
using HandlerId = std::uint32_t;

struct ChaosConfig;      // machine/chaos.hpp
class InvariantMonitor;  // machine/invariants.hpp
class ProcTracer;        // obs/tracer.hpp
class Tracer;            // obs/tracer.hpp
class ProcTelemetry;     // obs/telemetry.hpp
class Telemetry;         // obs/telemetry.hpp

class Proc;

/// Handler invoked on the destination processor: (self, source, payload).
using Handler = std::function<void(Proc&, int, Reader&)>;

/// Per-processor communication statistics.
struct ProcCommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t idle_units = 0;  ///< virtual time spent blocked in wait()
};

/// Per-processor mailbox/delivery behavior. On ThreadMachine the sender-side
/// fields are maintained under the destination mailbox's mutex and the
/// owner-side fields only by the owning thread — both are safe to read once
/// run() has joined every worker. SimMachine populates the equivalent
/// counters from its envelope queues (notifies/lock_contended/cv_waits stay
/// zero there: the simulator has no condvars and no lock contention), so
/// both backends report the same stats shape.
struct MailboxStats {
  // Sender side (indexed by *destination* mailbox).
  std::uint64_t enqueues = 0;        ///< messages pushed into this mailbox
  std::uint64_t notifies = 0;        ///< pushes that found the owner asleep and woke it
  std::uint64_t lock_contended = 0;  ///< mailbox-mutex acquisitions that had to block
  // Owner side.
  std::uint64_t cv_waits = 0;          ///< times the owner blocked on the condvar
  std::uint64_t wakeups = 0;           ///< waits that ended with work delivered (not shutdown)
  std::uint64_t drains = 0;            ///< poll() rounds that delivered >= 1 message
  std::uint64_t drained_messages = 0;  ///< total messages taken across drains
  std::uint64_t max_drain_batch = 0;   ///< largest single drain
};

/// One logical processor's view of the machine. Only ever touched by its own
/// worker thread (and by handlers running inside its poll/wait).
class Proc {
 public:
  virtual ~Proc() = default;

  virtual int id() const = 0;
  virtual int nprocs() const = 0;

  /// Register the handler for a message type. All registration must happen
  /// before this processor's first send()/poll()/wait(); unknown incoming
  /// handler ids abort. ThreadMachine additionally enforces a machine-wide
  /// registration barrier: the first send/poll/wait on any processor blocks
  /// until every processor has finished registering (i.e. performed its own
  /// first communication call, or returned from its worker), so a fast
  /// processor's message can never race a slow processor's on().
  virtual void on(HandlerId h, Handler fn) = 0;

  /// Asynchronous send; never blocks. Self-sends are allowed (delivered on a
  /// later poll). Ordering is FIFO per (src, dst) pair.
  virtual void send(int dst, HandlerId h, std::vector<std::uint8_t> payload) = 0;

  /// Deliver every message available now; returns how many were delivered.
  virtual std::size_t poll() = 0;

  /// Block until at least one message has been delivered (true), or the
  /// whole machine is quiescent — every processor blocked or finished and no
  /// message in flight — in which case every waiter returns false. Workers
  /// use `false` as the shutdown signal.
  virtual bool wait() = 0;

  /// Add explicit work to this processor's clock (most work is charged
  /// implicitly through CostCounter by the algebra kernels).
  virtual void charge(std::uint64_t units) = 0;

  /// Pause for roughly `units` work-units' worth of time, or until traffic
  /// arrives — the idle-throttling primitive (steal backoff). On the
  /// simulator this is exactly charge(); on real threads it is a timed
  /// sleep that a sender's notify cuts short. Unlike wait(), a processor in
  /// backoff still counts as busy for quiescence detection (it will resume
  /// and may send), so backoff can never cause a premature shutdown.
  virtual void backoff(std::uint64_t units) { charge(units); }

  /// How many worker threads this processor may spin up for an elimination
  /// kernel (poly/echelon.hpp nthreads) on top of its own thread. 1 = run
  /// the kernel inline. The simulator grants freely — its cost convention
  /// (charge the slowest lane's total, the parallel makespan) keeps virtual
  /// time deterministic for any grant; real backends grant what the host
  /// has spare so P procs × L lanes never oversubscribe. Engines clamp
  /// their configured matrix_threads by this.
  virtual std::size_t kernel_lanes() const { return 1; }

  /// Current time: virtual units (SimMachine) or wall nanoseconds
  /// (ThreadMachine).
  virtual std::uint64_t now() = 0;

  /// Cooperative scheduling point with no message delivery.
  virtual void yield() = 0;

  /// Chaos / fault-injection knobs active on this machine, or nullptr when
  /// none. Protocol layers consult this for seeded application-level fault
  /// injection (the machine itself applies the schedule-level knobs).
  virtual const ChaosConfig* chaos() const { return nullptr; }

  const ProcCommStats& comm_stats() const { return comm_; }

  /// This processor's event sink, or nullptr when tracing is off. Engine
  /// layers emit spans through this (obs/span.hpp); the machine attaches it
  /// from the Tracer set on the Machine before running the worker.
#ifdef GBD_DISABLE_TRACING
  ProcTracer* tracer() const { return nullptr; }
#else
  ProcTracer* tracer() const { return tracer_; }
#endif

  /// This processor's telemetry producer, or nullptr when live telemetry is
  /// off. The engine registers its sampler and records latency histograms
  /// through this; the machine backend owns the tick cadence and ships the
  /// encoded frames (obs/telemetry.hpp).
  ProcTelemetry* telemetry() const { return telemetry_; }

 protected:
  ProcCommStats comm_;
  ProcTracer* tracer_ = nullptr;
  ProcTelemetry* telemetry_ = nullptr;
};

/// Machine-wide run statistics.
struct MachineStats {
  std::uint64_t makespan = 0;  ///< max processor finish time (virtual or wall ns)
  std::vector<ProcCommStats> per_proc;
  /// Per-processor mailbox counters; both backends populate these and set
  /// has_mailbox_stats, so downstream consumers see one shape.
  std::vector<MailboxStats> mailbox;
  bool has_mailbox_stats = false;

  /// One per-processor counter summed over processors, e.g.
  /// total(&ProcCommStats::messages_sent).
  std::uint64_t total(std::uint64_t ProcCommStats::*counter) const {
    std::uint64_t sum = 0;
    for (const ProcCommStats& pc : per_proc) sum += pc.*counter;
    return sum;
  }
};

/// A P-processor machine executing one worker function per processor.
class Machine {
 public:
  virtual ~Machine() = default;
  virtual int nprocs() const = 0;
  /// Run worker(proc) on every processor to completion and return stats.
  virtual MachineStats run(const std::function<void(Proc&)>& worker) = 0;

  /// Attach a registry of global invariant checks. The machine runs them at
  /// implementation-defined safe points (see invariants.hpp); the monitor
  /// must outlive run(). Pass nullptr to detach.
  void set_monitor(InvariantMonitor* m) { monitor_ = m; }
  InvariantMonitor* monitor() const { return monitor_; }

  /// Attach an event tracer (obs/tracer.hpp). run() resets it for nprocs(),
  /// hands each processor its ProcTracer, and stamps the makespan at the
  /// end; the tracer must outlive run(). Pass nullptr to detach. With no
  /// tracer attached every emission site is a single null test (and with
  /// GBD_DISABLE_TRACING they compile out entirely).
  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }

  /// Attach a live telemetry pipeline (obs/telemetry.hpp). run() resets it
  /// for nprocs(), hands each processor its ProcTelemetry, and ticks each
  /// processor's sampler on the backend's clock (virtual-time intervals on
  /// the simulator — with zero cost charged, so attaching telemetry never
  /// perturbs a deterministic run — steady-clock intervals elsewhere).
  /// Must outlive run(). Pass nullptr to detach.
  void set_telemetry(Telemetry* t) { telemetry_ = t; }
  Telemetry* telemetry() const { return telemetry_; }

 protected:
  InvariantMonitor* monitor_ = nullptr;
  Tracer* tracer_ = nullptr;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace gbd
