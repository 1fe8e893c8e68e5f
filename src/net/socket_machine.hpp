// SocketMachine — the third Machine backend: one OS *process* per logical
// processor, communicating over TCP (loopback by default, real hosts via
// NetConfig endpoints). The GL-P engine runs on it unmodified: this class
// implements the same Proc contract as SimMachine and ThreadMachine, so a
// worker written against machine/machine.hpp cannot tell the difference —
// except that each process hosts exactly ONE processor (its rank) and
// Machine::run executes the worker for that rank only.
//
// The pieces, and how they mirror ThreadMachine's semantics:
//
//   Registration barrier. ThreadMachine blocks the first send/poll/wait on a
//   std::latch until every processor has registered its handlers. Here the
//   same contract runs over the wire: the first communication call sends
//   kReady to rank 0, which broadcasts kGo once all P ranks (its own
//   included) have arrived. Application frames arriving before kGo simply
//   sit undispatched in the transport inbox — delivery happens only inside
//   poll()/wait(), which cannot run before the barrier.
//
//   Quiescence (wait() returning false). ThreadMachine's last-idler test
//   (idle_ == P && in_flight_ == 0) needs shared memory; across processes we
//   run Mattern's four-counter double wave. Every rank counts envelopes sent
//   and delivered (self-sends included; envelopes discarded after the worker
//   finished count as delivered, matching ThreadMachine's drop-on-finish).
//   An idle rank reports (sent, delivered) to rank 0 (kIdle). When all ranks
//   are idle and Σsent == Σdelivered, rank 0 snapshots the table and probes
//   (kProbe); each rank answers (kProbeAck) with its *current* counters and
//   idleness. If every rank was still idle with counters unchanged, every
//   rank was continuously idle over an interval covering the probe instant,
//   making the snapshot a consistent cut with no envelope in flight — rank 0
//   broadcasts kQuiescent and every wait() returns false. Frames buffered in
//   the transport's reorder layer are sent-but-not-delivered, so chaos
//   faults can delay quiescence but never fake it.
//
//   Exit. After quiescence each rank ships its ProcCommStats + synthesized
//   MailboxStats + finish time to rank 0 (kExitStats/kExitAck), so rank 0's
//   MachineStats covers all ranks (makespan = max finish) exactly like the
//   shared-memory backends; other ranks fill only their own slot.
//
//   gather(). A post-run collective for application-level result merging:
//   every rank contributes a blob, rank 0 receives all P (indexed by rank).
//   net_engine.hpp uses it to assemble the full ParallelResult.
//
// Failure semantics: any peer death (socket EOF/reset) or silence beyond
// NetConfig::peer_timeout_ms surfaces as NetError thrown from the machine
// call the worker is inside — a clean diagnostic naming the rank, never a
// hang. After the exit handshake the transport turns lenient: peers closing
// their sockets on the way out is expected.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "machine/machine.hpp"
#include "net/transport.hpp"

namespace gbd {

struct SocketMachineConfig {
  NetConfig net;
};

class SocketMachine final : public Machine {
 public:
  explicit SocketMachine(SocketMachineConfig cfg);
  ~SocketMachine() override;

  int nprocs() const override { return cfg_.net.nprocs; }
  int rank() const { return cfg_.net.rank; }

  /// Runs `worker` for THIS process's rank only (the other ranks run it in
  /// their own processes). Returns once the whole machine is quiescent and
  /// per-rank stats are exchanged. One-shot: a machine cannot be rerun.
  MachineStats run(const std::function<void(Proc&)>& worker) override;

  /// Post-run collective: every rank calls this with its contribution; rank 0
  /// returns all blobs indexed by rank, other ranks return an empty vector
  /// per slot except their own. Must be called by every rank or none.
  std::vector<std::vector<std::uint8_t>> gather(std::vector<std::uint8_t> blob);

  /// Wire-level counters for this rank (frames/bytes/retransmits/chaos).
  const TransportStats& transport_stats() const;

  const NetConfig& net_config() const { return cfg_.net; }

 private:
  class SocketProc;
  friend class SocketProc;

  void on_control(int src, FrameType type, Reader& r);
  /// kReady -> rank 0 -> kGo: the cross-process analog of ThreadMachine's
  /// start latch, run by the first communication call on this rank.
  void registration_barrier();
  /// Mark this rank idle: refresh rank 0's table (rank 0) or send kIdle when
  /// the counters changed or the last report was invalidated.
  void report_idle();
  void note_busy();
  void maybe_start_wave();
  void declare_quiescent();
  void exit_phase();
  void pump_until_flushed(const char* what);

  SocketMachineConfig cfg_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<SocketProc> proc_;
  bool ran_ = false;
  std::uint64_t epoch_ns_ = 0;  ///< steady-clock origin of Proc::now()

  // Registration barrier.
  int ready_count_ = 0;   ///< rank 0: kReady arrivals (incl. self)
  bool go_received_ = false;

  // Quiescence (all ranks).
  std::uint64_t sent_total_ = 0;       ///< envelopes sent (self-sends included)
  std::uint64_t delivered_total_ = 0;  ///< envelopes dispatched or discarded
  bool local_idle_ = false;            ///< blocked in wait() / finished, queues empty
  bool idle_reported_ = false;         ///< rank 0 holds our current counters
  std::uint64_t reported_sent_ = 0;
  std::uint64_t reported_delivered_ = 0;
  bool quiescent_ = false;

  // Quiescence coordinator (rank 0 only).
  std::vector<bool> idle_;
  std::vector<std::uint64_t> r_sent_, r_delivered_;
  bool wave_active_ = false;
  std::uint64_t wave_id_ = 0;
  int wave_replies_ = 0;
  bool wave_all_idle_ = false;
  bool wave_consistent_ = false;
  std::vector<std::uint64_t> snap_sent_, snap_delivered_;

  // Exit handshake.
  int exit_stats_received_ = 0;  ///< rank 0: kExitStats arrivals
  bool exit_ack_ = false;
  std::uint64_t finish_ns_ = 0;  ///< this rank's worker-return time
  std::vector<ProcCommStats> all_comm_;    ///< rank 0: per-rank comm stats
  std::vector<MailboxStats> all_mailbox_;  ///< rank 0: per-rank mailbox stats
  std::vector<std::uint64_t> all_finish_;  ///< rank 0: per-rank finish times

  // gather().
  std::vector<std::vector<std::uint8_t>> gather_blobs_;
  int gather_received_ = 0;
  bool gather_ack_ = false;
};

}  // namespace gbd
