// ThreadMachine — the Machine interface on real OS threads.
//
// One std::thread per logical processor. Unlike the original single-mutex
// design, every processor owns a private, cacheline-padded mailbox (its own
// mutex + condition variable + envelope slab), so a send touches only the
// destination's mailbox and two processors exchanging messages never
// serialize against the rest of the machine. Wakeups are targeted: a sender
// calls notify_one only when it observed the destination asleep. Envelope
// slabs are pooled — poll() swaps the mailbox's vector with a drained
// scratch vector, so steady-state delivery performs no per-message node
// allocation.
//
// Quiescence (every processor blocked or finished, no undelivered message)
// is detected with two atomics instead of a global lock: in_flight_ is
// incremented before an envelope is enqueued and decremented after it is
// drained, and idle_ counts blocked + finished processors. The last
// processor to go idle observes idle_ == P and in_flight_ == 0, declares
// shutdown, and wakes every mailbox; wait() then returns false everywhere
// (see DESIGN.md §11 for the interleaving argument).
//
// A registration barrier closes the historical handler race: the first
// send()/poll()/wait() on any processor blocks until every processor has
// completed registration (performed its own first communication call or
// returned from its worker), so no message can ever be dispatched to a
// handler table still under construction. charge() is a no-op (real time
// just passes); now() is wall nanoseconds since run start.
#pragma once

#include <atomic>
#include <condition_variable>
#include <latch>
#include <memory>
#include <mutex>

#include "machine/machine.hpp"

namespace gbd {

class ThreadMachine final : public Machine {
 public:
  explicit ThreadMachine(int nprocs);
  ~ThreadMachine() override;

  int nprocs() const override { return nprocs_; }
  MachineStats run(const std::function<void(Proc&)>& worker) override;

 private:
  class ThreadProc;
  struct Mailbox;

  /// Declare shutdown and wake every mailbox. Called by the processor that
  /// observed idle_ == nprocs with nothing in flight, and (defensively) by
  /// the last finishing worker.
  void declare_shutdown();
  /// Finished workers count as permanently idle; the last one may be the
  /// one to complete quiescence.
  void note_worker_finished(ThreadProc& proc);

  int nprocs_;
  std::vector<std::unique_ptr<ThreadProc>> procs_;
  std::uint64_t epoch_ns_ = 0;

  std::atomic<std::uint64_t> in_flight_{0};  ///< enqueued, not yet drained
  std::atomic<int> idle_{0};                 ///< blocked in wait() + finished
  std::atomic<bool> shutdown_{false};
  std::unique_ptr<std::latch> start_latch_;  ///< registration barrier, per run
};

}  // namespace gbd
