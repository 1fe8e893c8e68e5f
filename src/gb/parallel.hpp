// GL-P — the distributed-memory parallel Buchberger engine (Figures 3/4 of
// the paper), programmed against the virtual machine exactly as §5-§6
// describe the CM-5 implementation:
//
//  - tasks are pairs of 8-byte polynomial ids in the distributed task queue;
//    polynomial bodies never travel with tasks;
//  - each processor reduces against its own, possibly stale, replica of the
//    basis (axiom REDUCE over ForAll; staleness is safe — no reduction goes
//    to waste);
//  - a pair whose polynomials are not locally resident is suspended ("on
//    hold") while its bodies are fetched up the owner-rooted tree, and other
//    work proceeds — the paper's application-level threading;
//  - a nonzero normal form triggers the augment protocol: request the
//    central invalidation lock (suspending the augment if not granted
//    immediately), then VALIDATE the replica (split-phase bulk fetch),
//    re-reduce against the now-complete basis, and either discard (zero) or
//    admit it to an AddToSet round (split-phase invalidation broadcast with
//    acks), release, and create the new pairs. One code path serves every
//    store: the store says how many reducts a round admits (one per hold in
//    the per-id protocol, several under wire batching);
//  - Idle? (§4.2) counts every reduct the processor still holds — pending
//    the lock or admitted to a round whose pairs are not created yet — so
//    the termination detector never announces over an add in flight;
//  - processor `coordinator` additionally hosts the lock manager and the
//    termination-detection coordinator (§6); optionally it is reserved and
//    takes no compute tasks, as on the paper's CM-5.
//
// On a SimMachine the run is deterministic for a fixed config; `seed`
// perturbs the initial pair placement, standing in for the timing races that
// made CM-5 runs vary ("best of 5 runs").
#pragma once

#include <map>

#include "basis/basis_store.hpp"
#include "gb/engine_common.hpp"
#include "gb/trace.hpp"
#include "io/parse.hpp"
#include "machine/chaos.hpp"
#include "machine/cost_model.hpp"
#include "machine/sim_machine.hpp"
#include "taskq/taskq.hpp"

namespace gbd {

class Tracer;           // obs/tracer.hpp
class MetricsRegistry;  // obs/metrics.hpp
class Telemetry;        // obs/telemetry.hpp

/// Basis storage policy (see basis/basis_store.hpp).
enum class BasisMode : std::uint8_t {
  kReplicated,  ///< the paper's main design: every processor holds every body
  kHybrid,      ///< §7's space-time continuum: bounded homes + evicting cache
};

struct ParallelConfig {
  GbConfig gb;
  int nprocs = 4;
  std::uint64_t seed = 1;
  CostModel cost;
  BasisMode basis_mode = BasisMode::kReplicated;
  /// Hybrid mode: permanent copies per element / non-home cache slots.
  int hybrid_homes = 2;
  std::size_t hybrid_cache_capacity = 16;
  /// Reserve the coordinator processor for lock/termination duty only
  /// (the paper's CM-5 setup). Requires nprocs >= 2.
  bool reserve_coordinator = false;
  /// Wire-level protocol batching, handed to the replicated store: admit up
  /// to kBatchRoundAdds reducts per lock hold and announce them in one
  /// envelope per destination, and coalesce validation fetch/body traffic
  /// into multi-id envelopes. Off by default (one message per id, one add
  /// per hold). The hybrid store ignores it.
  BasisWireConfig wire;
  /// Task-queue tuning (coordinator field is overridden to 0).
  TaskQueueConfig taskq;
  /// Record per-task traces for the Fig. 8(b) replay baseline.
  bool record_trace = false;
  /// Adversarial schedule perturbation (SimMachine only; see machine/chaos.hpp).
  /// If chaos duplication is on and dup_safe is empty, groebner_parallel
  /// fills in the engine's idempotent handler set.
  ChaosConfig chaos;
  /// Register the protocol invariant checkers (replicated-basis coherence,
  /// task conservation, termination safety) on the machine. Violations are
  /// recorded in ParallelResult::violations, not aborted on.
  bool check_invariants = false;
  /// Deliveries between periodic invariant sweeps (see InvariantMonitor).
  std::uint64_t invariant_period = 128;
  /// Observability (obs/): when non-null, `tracer` is attached to the machine
  /// and records per-processor event timelines (task/reduce/wait/hold spans,
  /// protocol rounds); `metrics` receives every run-end counter — machine,
  /// queue, basis, engine and kernel — as named per-processor series. Both
  /// must outlive the call. Null ⇒ zero instrumentation beyond a pointer
  /// test per site.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Live telemetry pipeline (obs/telemetry.hpp): when non-null, each
  /// processor periodically snapshots progress counters (queue depth, degree,
  /// S-pairs retired/zeroed, ...) and latency histograms into best-effort
  /// frames aggregated at processor 0. Must outlive the call.
  Telemetry* telemetry = nullptr;
};

struct ParallelResult : GbResult {
  /// Final basis with identities (inputs + added), sorted by id.
  std::vector<std::pair<PolyId, Polynomial>> basis_ids;
  /// Virtual makespan and per-processor machine counters (the owner of
  /// messages and bytes: machine.total(&ProcCommStats::messages_sent)).
  SimStats machine;
  /// Per-processor algebra counters; `stats` is their GbStats::merge.
  std::vector<GbStats> per_proc;
  /// Basis-protocol traffic merged over processors (BasisStats::merge):
  /// logical ids and batched envelopes summed, max_resident the run's peak.
  BasisStats wire;
  RunTrace trace;
  /// Invariant violations observed by the monitor (empty when
  /// check_invariants was off or every check held on every sweep).
  std::vector<std::string> violations;
  /// Number of full invariant sweeps that ran (for asserting coverage).
  std::uint64_t invariant_sweeps = 0;

  /// id -> body map for replay_trace.
  std::map<PolyId, Polynomial> bodies() const;
};

/// Run GL-P on a fresh SimMachine with cfg.nprocs processors.
ParallelResult groebner_parallel(const PolySystem& sys, const ParallelConfig& cfg);

/// Run the same worker on real threads (functional demonstration; timing
/// fields of the result are wall-clock and not comparable to virtual units).
ParallelResult groebner_parallel_threads(const PolySystem& sys, const ParallelConfig& cfg);

class Machine;  // machine/machine.hpp

/// Run GL-P on a caller-supplied real-time Machine backend (ThreadMachine,
/// SocketMachine, ...). cfg.nprocs must equal machine.nprocs(). On a
/// machine that hosts only a subset of the logical processors in this
/// process (SocketMachine hosts exactly one), the result is *partial*: only
/// the locally hosted ranks contribute per_proc/basis entries — use
/// net/net_engine.hpp to merge a full result across processes.
ParallelResult groebner_parallel_machine(Machine& machine, const PolySystem& sys,
                                         const ParallelConfig& cfg);

}  // namespace gbd
