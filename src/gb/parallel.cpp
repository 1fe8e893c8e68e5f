#include "gb/parallel.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>

#include "basis/hybrid_basis.hpp"
#include "basis/replicated_basis.hpp"
#include "gb/pairs.hpp"
#include "machine/invariants.hpp"
#include "machine/thread_machine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "poly/echelon.hpp"
#include "poly/reduce.hpp"
#include "poly/spoly.hpp"
#include "support/check.hpp"
#include "support/cost.hpp"
#include "support/rng.hpp"

namespace gbd {

namespace {

/// Machine-wide record of executed task uids, for the no-double-execution
/// invariant. Mutex-guarded so ThreadMachine workers may share it too.
struct TaskLedger {
  std::mutex mu;
  std::set<std::uint64_t> executed;

  /// Returns true iff uid was already recorded (i.e. this is a double run).
  bool record(std::uint64_t uid) {
    std::lock_guard<std::mutex> g(mu);
    return !executed.insert(uid).second;
  }
};

/// A pair task: the two polynomial ids plus their head monomials, carried so
/// the receiving processor can evaluate the elimination criteria and the
/// priority without the bodies.
struct PairTask {
  PolyId a = 0;
  PolyId b = 0;
  Monomial ha, hb;

  std::vector<std::uint8_t> encode() const {
    Writer w;
    w.u64(a);
    w.u64(b);
    ha.write(w);
    hb.write(w);
    return w.take();
  }

  /// An empty trace record for this pair.
  TaskTrace trace() const {
    TaskTrace t;
    t.a = a;
    t.b = b;
    return t;
  }

  static PairTask decode(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    PairTask t;
    t.a = r.u64();
    t.b = r.u64();
    t.ha = Monomial::read(r);
    t.hb = Monomial::read(r);
    return t;
  }
};

/// Exact set of treated id-pairs (chain-criterion knowledge is local to each
/// processor; citing only pairs we completed ourselves keeps the criterion
/// sound — see DESIGN.md §6).
class DoneIdPairs {
 public:
  void mark(PolyId a, PolyId b) { done_.insert(key(a, b)); }
  bool contains(PolyId a, PolyId b) const { return done_.count(key(a, b)) > 0; }

 private:
  static std::pair<PolyId, PolyId> key(PolyId a, PolyId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  std::set<std::pair<PolyId, PolyId>> done_;
};

/// Per-processor results handed back to the driver after the machine stops.
struct ProcOutput {
  std::vector<std::pair<PolyId, Polynomial>> added;
  GbStats stats;
  BasisStats basis;
  ProcTrace trace;
};

/// The augment protocol's split-phase state (§5: the suspended "thread").
enum class AugState { kIdle, kWaitLock, kValidating, kAdding };

/// Async-round id for a pair's hold/stall episode (matches begin to end).
std::uint64_t hold_id(PolyId a, PolyId b) { return (a * 0x9e3779b97f4a7c15ULL) ^ b; }

/// One processor's GL-P worker.
class GlpWorker {
 public:
  GlpWorker(Proc& self, const PolySystem& sys, const ParallelConfig& cfg,
            const std::vector<std::pair<PolyId, Polynomial>>& inputs, ProcOutput* out,
            InvariantMonitor* monitor = nullptr, TaskLedger* ledger = nullptr)
      : self_(self),
        sys_(sys),
        cfg_(cfg),
        out_(out),
        monitor_(monitor),
        ledger_(ledger),
        zp_(cfg.gb.coeff.is_zp() ? std::make_optional<ZpField>(cfg.gb.coeff.prime)
                                 : std::nullopt),
        basis_owned_(make_store(self, cfg)),
        basis_(*basis_owned_),
        lock_mgr_(self.id() == 0 ? std::make_optional<LockManager>(self) : std::nullopt),
        lock_(self, /*coordinator=*/0),
        queue_(self, &sys.ctx, [this] { return !holds_work(); }, taskq_config(cfg)) {
    for (const auto& [id, poly] : inputs) basis_.preload(id, poly);
  }

  // --- invariant-checker views (read-only; see run_on_machine) ---------------

  /// The basis as a ReplicatedBasis, or null under the hybrid store.
  const ReplicatedBasis* replicated_basis() const {
    return dynamic_cast<const ReplicatedBasis*>(basis_owned_.get());
  }
  const DistTaskQueue& taskq() const { return queue_; }

  /// The negation of Idle? (§4.2), and the one test of "has work" used by
  /// the termination detector, the termination-safety checks and the
  /// finishing check. The detector trusts each processor's answer, so
  /// everything that can still create tasks counts: in particular an add
  /// round's members, whose pairs are created only after the last ack.
  bool holds_work() const { return executing_ || work_items() != 0; }

  void run() {
    if (ProcTelemetry* te = self_.telemetry()) {
      // Live-telemetry sampler: called from this processor's own tick sites
      // (inside its poll/wait), so plain reads of worker state are safe.
      te->set_sampler([this](TeleSample& s) {
        tele_at(s, TeleKey::kQueueDepth) = work_items();
        tele_at(s, TeleKey::kDegree) = cur_degree_;
        tele_at(s, TeleKey::kBasisSize) = basis_.known_heads().size();
        tele_at(s, TeleKey::kSpairsRetired) = out_->stats.spolys_computed;
        tele_at(s, TeleKey::kSpairsZeroed) = out_->stats.reductions_to_zero;
        tele_at(s, TeleKey::kWorkUnits) = out_->stats.work_units;
      });
    }
    {
      // Spanned so a trace's timeline starts at the first real activity
      // (initial pair creation is engine work, not idle time).
      TraceSpan span(self_, Ev::kAugment);
      seed_initial_pairs();
    }
    std::vector<std::uint8_t> payload;
    for (;;) {
      self_.poll();
      // The VALIDATE axiom of Figure 3 is independently schedulable: fire it
      // whenever the shadow set is nonempty. The fetches stream in while we
      // keep computing, so the replica stays near-fresh and reductions
      // rarely run against a badly stale basis (begin_validate dedups
      // in-flight requests, so re-firing is cheap).
      if (!basis_.valid()) basis_.begin_validate();
      pump_augment();
      if (try_resume_suspended()) continue;
      if (is_reserved_coordinator()) {
        queue_.pump_termination();
        if (queue_.terminated()) break;
        if (!traced_wait()) break;
        continue;
      }
      if (aug_state_ != AugState::kIdle && aug_state_ != AugState::kWaitLock) {
        // Validation/adding hold the lock: just serve the network until the
        // split-phase transfers complete. (While merely *waiting* for the
        // lock we fall through and overlap other pair work — the paper's
        // thread suspension.)
        if (!traced_wait()) {
          finishing_ = true;  // machine quiescence mid-protocol: checked below
        } else {
          continue;
        }
      }
      if (!finishing_) switch (queue_.try_dequeue(&payload)) {
        case DistTaskQueue::Dequeue::kGot:
          if (cfg_.gb.matrix_reduce) {
            process_task_batch(&payload);
          } else {
            process_task(PairTask::decode(payload));
          }
          break;
        case DistTaskQueue::Dequeue::kTerminated:
          finishing_ = true;
          break;
        case DistTaskQueue::Dequeue::kEmpty:
          if (!traced_wait()) finishing_ = true;
          break;
      }
      if (finishing_) {
        if (holds_work()) {
          // Under a monitor this is recorded as a violation (the fuzz driver
          // wants the replay string, not an abort); otherwise it is fatal.
          if (monitor_ != nullptr) {
            monitor_->note("termination-unfinished-work",
                           "proc " + std::to_string(self_.id()) +
                               " terminated with unfinished local work (local=" +
                               std::to_string(queue_.local_size()) + " suspended=" +
                               std::to_string(suspended_.size()) + " stalled=" +
                               std::to_string(stalled_.size()) + " pending=" +
                               std::to_string(pending_.size()) + " round=" +
                               std::to_string(round_.size()) + ")");
            break;
          }
          GBD_CHECK_MSG(false, "terminated with unfinished local work — protocol bug");
        }
        break;
      }
    }
    out_->basis = basis_.stats();
    if (cfg_.metrics != nullptr) push_metrics(*cfg_.metrics);
  }

 private:
  TaskQueueConfig taskq_config(const ParallelConfig& cfg) {
    TaskQueueConfig tq = cfg.taskq;
    tq.coordinator = 0;
    tq.selection = cfg.gb.selection;
    if (monitor_ != nullptr) {
      // Conservation hook: every task uid must be executed exactly once,
      // machine-wide, across any pattern of steals and pushes.
      tq.on_dequeue = [this](std::uint64_t uid) {
        if (ledger_ != nullptr && ledger_->record(uid)) {
          monitor_->note("task-double-execution",
                         "task uid " + std::to_string(uid) + " dequeued twice (second time on proc " +
                             std::to_string(self_.id()) + ")");
        }
      };
      // Termination-safety hook: when the announcement reaches this
      // processor, the double-wave (or white token circuit) has already
      // proved global idleness and enq == deq, both stable — so finding any
      // local task, or any suspended/stalled/pending/round work, here means
      // the coordinator announced while work was still in flight.
      tq.on_announce = [this] {
        if (holds_work()) {
          monitor_->note("premature-announce",
                         "proc " + std::to_string(self_.id()) +
                             " learned of termination while still holding work (local=" +
                             std::to_string(queue_.local_size()) + ")");
        }
      };
    }
    return tq;
  }

  /// Tasks and reducts this processor holds: queued, suspended, stalled,
  /// waiting for the lock, or admitted to an add round whose pairs do not
  /// exist yet.
  std::size_t work_items() const {
    return queue_.local_size() + suspended_.size() + stalled_.size() + pending_.size() +
           round_.size();
  }

  bool is_reserved_coordinator() const {
    return cfg_.reserve_coordinator && self_.id() == 0;
  }

  /// Telemetry degree gauge: lcm degree of the dequeued pair, computed
  /// without Monomial::lcm so no CostCounter work is charged — telemetry
  /// must observe the run, never perturb its virtual time.
  void note_task_degree(const PairTask& task) {
    if (self_.telemetry() == nullptr) return;
    std::uint64_t deg = 0;
    for (std::size_t i = 0; i < task.ha.nvars(); ++i) {
      deg += std::max(task.ha.exp(i), task.hb.exp(i));
    }
    cur_degree_ = deg;
  }

  /// Why we are about to block: classifies the wait for the breakdown
  /// analyzer (hold = bodies en route, protocol = augment round in flight,
  /// idle = genuinely nothing to do).
  WaitReason wait_reason() const {
    if (!suspended_.empty() || !stalled_.empty()) return WaitReason::kHold;
    if (aug_state_ != AugState::kIdle || !pending_.empty()) return WaitReason::kProtocol;
    return WaitReason::kIdle;
  }

  /// wait() wrapped in a kWait span tagged with the reason. Handler spans
  /// emitted by deliveries during the wait nest inside it, so the analyzer's
  /// self-time pass charges dispatch work to comm, not to the wait bucket.
  bool traced_wait() {
    if (self_.tracer() == nullptr) return self_.wait();
    TraceSpan span(self_, Ev::kWait, static_cast<std::uint64_t>(wait_reason()));
    return self_.wait();
  }

  /// Run-end metrics: every per-processor counter this worker owns, as named
  /// series (the machine-level comm/mailbox series are pushed by the driver).
  void push_metrics(MetricsRegistry& reg) {
    int p = self_.id();
    const GbStats& g = out_->stats;
    reg.add("gb.pairs_created", p, g.pairs_created);
    reg.add("gb.pairs_pruned_coprime", p, g.pairs_pruned_coprime);
    reg.add("gb.pairs_pruned_chain", p, g.pairs_pruned_chain);
    reg.add("gb.spolys_computed", p, g.spolys_computed);
    reg.add("gb.reductions_to_zero", p, g.reductions_to_zero);
    reg.add("gb.basis_added", p, g.basis_added);
    reg.add("gb.reduction_steps", p, g.reduction_steps);
    reg.add("gb.work_units", p, g.work_units);
    reg.add("gb.lock_wait_units", p, lock_.wait_units());
    const BasisStats& b = basis_.stats();
    reg.add("basis.invalidations_sent", p, b.invalidations_sent);
    reg.add("basis.fetches_sent", p, b.fetches_sent);
    reg.add("basis.bodies_received", p, b.bodies_received);
    reg.add("basis.bodies_served", p, b.bodies_served);
    reg.add("basis.bodies_forwarded", p, b.bodies_forwarded);
    reg.add("basis.evictions", p, b.evictions);
    reg.add("basis.max_resident", p, b.max_resident);
    reg.add("basis.invalidation_batches", p, b.invalidation_batches);
    reg.add("basis.fetch_batches", p, b.fetch_batches);
    reg.add("basis.body_batches", p, b.body_batches);
    const TaskQueueStats& q = queue_.stats();
    reg.add("taskq.enqueued", p, q.enqueued);
    reg.add("taskq.dequeued", p, q.dequeued);
    reg.add("taskq.steals_sent", p, q.steals_sent);
    reg.add("taskq.steals_won", p, q.steals_won);
    reg.add("taskq.tasks_migrated", p, q.tasks_migrated);
    reg.add("taskq.tasks_migrated_in", p, q.tasks_migrated_in);
    reg.add("taskq.waves_started", p, q.waves_started);
    reg.add("taskq.token_rounds", p, q.token_rounds);
    reg.add("tracer.dropped_events", p,
            self_.tracer() != nullptr ? self_.tracer()->dropped() : 0);
    // Kernel thread-locals: this worker's thread hosts exactly this logical
    // processor on both backends, so the delta since construction is ours.
    collect_kernel_delta(reg, p, kernel_base_);
  }

  int first_worker() const { return cfg_.reserve_coordinator ? 1 : 0; }
  int nworkers() const { return self_.nprocs() - first_worker(); }

  /// Distribute the initial pairs round-robin over the compute processors,
  /// rotated by the seed (the run-to-run perturbation knob).
  void seed_initial_pairs() {
    if (is_reserved_coordinator()) return;
    const auto& heads = basis_.known_heads();
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      for (std::size_t j = i + 1; j < heads.size(); ++j, ++k) {
        int assignee = first_worker() +
                       static_cast<int>((k + cfg_.seed) % static_cast<std::uint64_t>(nworkers()));
        if (assignee != self_.id()) continue;
        create_pair(heads[i].first, heads[j].first, heads[i].second, heads[j].second);
      }
    }
  }

  /// Create (and locally enqueue) one pair, applying the coprime criterion
  /// at creation as the sequential engine does.
  void create_pair(PolyId a, PolyId b, const Monomial& ha, const Monomial& hb) {
    out_->stats.pairs_created += 1;
    if (cfg_.gb.coprime_criterion && Monomial::coprime(ha, hb)) {
      out_->stats.pairs_pruned_coprime += 1;
      done_.mark(a, b);
      return;
    }
    PairTask t{a, b, ha, hb};
    queue_.enqueue(t.encode(), Monomial::lcm(ha, hb));
  }

  /// Enqueue without any criterion (the caller already filtered).
  void enqueue_pair(PolyId a, PolyId b, const Monomial& ha, const Monomial& hb) {
    PairTask t{a, b, ha, hb};
    queue_.enqueue(t.encode(), Monomial::lcm(ha, hb));
  }

  /// Chain criterion against local knowledge: heads come from the replica
  /// and the shadow set (shadow entries carry their head monomial).
  bool chain_prunable(const PairTask& t) const {
    if (!cfg_.gb.chain_criterion) return false;
    Monomial l = Monomial::lcm(t.ha, t.hb);
    for (const auto& [k, head] : basis_.known_heads()) {
      if (k == t.a || k == t.b) continue;
      if (head.divides(l) && done_.contains(t.a, k) && done_.contains(t.b, k)) {
        return true;
      }
    }
    return false;
  }

  /// Screen a dequeued pair: prune it by a criterion, put it on hold while
  /// its bodies are fetched (§5 "Local Threads": other pairs proceed
  /// meanwhile), or form its s-polynomial. Empty unless formed; a held
  /// pair moves into suspended_.
  std::optional<Polynomial> start_pair(PairTask& task) {
    note_task_degree(task);
    if (cfg_.gb.coprime_criterion && Monomial::coprime(task.ha, task.hb)) {
      out_->stats.pairs_pruned_coprime += 1;
      done_.mark(task.a, task.b);
      return std::nullopt;
    }
    if (chain_prunable(task)) {
      // Not marked done: only self-grounded treatments are citable, the
      // rule PairBook states for the index engines (gb/pairs.hpp).
      out_->stats.pairs_pruned_chain += 1;
      return std::nullopt;
    }
    const Polynomial* pa = basis_.find(task.a);
    const Polynomial* pb = basis_.find(task.b);
    if (pa == nullptr || pb == nullptr) {
      if (pa == nullptr) basis_.prefetch(task.a);
      if (pb == nullptr) basis_.prefetch(task.b);
      if (ProcTracer* t = self_.tracer()) {
        t->async_begin(Ev::kHold, self_.now(), hold_id(task.a, task.b), task.a);
      }
      suspended_.push_back(std::move(task));
      return std::nullopt;
    }
    Polynomial h;
    {
      // Span strictly encloses the CostScope (see obs/span.hpp): its end
      // drains the s-poly work into the clock after elapsed() was read.
      TraceSpan sp(self_, Ev::kSpoly, task.a, task.b);
      CostScope cost;
      h = spoly(sys_.ctx, *pa, *pb, cfg_.gb.coeff);
      out_->stats.work_units += cost.elapsed();
    }
    out_->stats.spolys_computed += 1;
    GBD_CHECK_MSG(out_->stats.spolys_computed <= cfg_.gb.max_spolys,
                  "GL-P processor exceeded max_spolys");
    return h;
  }

  void process_task(PairTask task) {
    executing_ = true;
    TraceSpan span(self_, Ev::kTask, task.a, task.b);
    if (std::optional<Polynomial> h = start_pair(task)) {
      TaskTrace trace = task.trace();
      continue_reduction(std::move(task), std::move(*h), std::move(trace));
    }
    executing_ = false;
  }

  /// Batched (F4-style) variant of process_task, used when
  /// cfg.gb.matrix_reduce is set. Starting from one dequeued task, drains up
  /// to matrix_batch_max further *locally available* tasks (no degree filter:
  /// unlike the sequential engine there is no global queue to group by
  /// degree, and whatever is local IS this processor's share of the front),
  /// screens each with start_pair, and reduces the survivors' s-polynomials
  /// as one Macaulay matrix against the replica. Each surviving row enters
  /// the augment pipeline as its own Pending attributed to its originating
  /// pair, so done-marking, freshening and pair creation reuse the per-pair
  /// machinery unchanged. The network is NOT served between symbolic preprocessing and
  /// the elimination: the frame holds pointers into replica storage, which
  /// stays stable only while we do not poll.
  void process_task_batch(std::vector<std::uint8_t>* payload) {
    executing_ = true;
    struct Ready {
      PairTask task;
      Polynomial spoly;
    };
    std::vector<Ready> ready;
    {
      TraceSpan span(self_, Ev::kTask);
      for (;;) {
        PairTask task = PairTask::decode(*payload);
        if (std::optional<Polynomial> h = start_pair(task)) {
          if (h->is_zero()) {
            // An empty matrix row would be neither zeroed nor kept by the
            // elimination (one element can be a monomial multiple of
            // another): retire it here, as continue_reduction would.
            retire_zero(task.a, task.b, task.trace());
          } else {
            ready.push_back(Ready{std::move(task), std::move(*h)});
          }
        }
        if (ready.size() >= cfg_.gb.matrix_batch_max) break;
        if (queue_.try_dequeue(payload) != DistTaskQueue::Dequeue::kGot) break;
      }
      span.result(ready.size());
    }
    if (ready.empty()) {
      executing_ = false;
      return;
    }

    std::vector<Polynomial> rows;
    rows.reserve(ready.size());
    for (Ready& r : ready) rows.push_back(std::move(r.spoly));

    SymbolicFrame frame;
    {
      TraceSpan sp(self_, Ev::kMatSymbolic, rows.size());
      CostScope cost;
      frame = symbolic_preprocess(sys_.ctx, rows, basis_.reducer_set());
      out_->stats.work_units += cost.elapsed();
      sp.result(frame.ncols());
    }
    MacaulayMatrix mat;
    {
      TraceSpan sp(self_, Ev::kMatBuild, rows.size(), frame.ncols());
      CostScope cost;
      mat = build_matrix(sys_.ctx, frame, rows, cfg_.gb.coeff,
                         matrix_wants_simd_lanes(cfg_.gb.coeff));
      out_->stats.work_units += cost.elapsed();
    }
    EchelonOptions eopts;
    eopts.coeff = cfg_.gb.coeff;
    EchelonOutput eo;
    {
      TraceSpan sp(self_, Ev::kMatEliminate, rows.size());
      CostScope cost;
      const std::uint64_t axpys_before = matrix_kernel_stats().axpys;
      const std::uint64_t simd_before = matrix_kernel_stats().simd_rows;
      const std::uint64_t scalar_before = matrix_kernel_stats().scalar_rows;
      eo = echelon_reduce(sys_.ctx, frame, mat, eopts);
      const MatrixKernelStats& ks = matrix_kernel_stats();
      out_->stats.reduction_steps += ks.axpys - axpys_before;
      std::uint64_t c = cost.elapsed();
      out_->stats.work_units += c;
      out_->stats.max_step_cost = std::max(out_->stats.max_step_cost, c);
      sp.result(eo.rows.size());
      if (ProcTracer* t = self_.tracer()) {
        t->instant(Ev::kMatSweep, self_.now(), ks.simd_rows - simd_before,
                   ks.scalar_rows - scalar_before);
      }
    }

    TraceSpan sp(self_, Ev::kMatConvert, eo.rows.size());
    std::size_t next = 0;
    for (std::size_t s = 0; s < ready.size(); ++s) {
      PairTask& task = ready[s].task;
      TaskTrace trace = task.trace();
      if (eo.src_zeroed[s]) {
        // Zero in-matrix: the row's standard representation uses replica
        // elements plus (possibly) other batch rows, each of which itself
        // either joins the basis or dies against real basis elements — so
        // the treatment is grounded and citable, as in the sequential batch.
        retire_zero(task.a, task.b, std::move(trace));
        continue;
      }
      GBD_CHECK(next < eo.rows.size() && eo.rows[next].src == s);
      Polynomial h = std::move(eo.rows[next].poly);
      ++next;
      if (PolyId blocked = basis_.pending_reducer(h.hmono()); blocked != 0) {
        basis_.prefetch(blocked);
        if (ProcTracer* t = self_.tracer()) {
          t->async_begin(Ev::kStall, self_.now(), hold_id(task.a, task.b), blocked);
        }
        stalled_.push_back(Stalled{std::move(task), std::move(h), std::move(trace)});
        continue;
      }
      pending_.push_back(Pending{std::move(h), std::move(trace), task.a, task.b});
      if (!lock_.requested()) {
        lock_.request();
        aug_state_ = AugState::kWaitLock;
      }
    }
    executing_ = false;
  }

  /// Drive a reduct toward augment: reduce against the local replica, and
  /// then either retire it (zero), stall it (a shadowed element's head can
  /// still reduce it — the killing body is already en route, so waiting
  /// locally is far cheaper than discovering the same thing under the
  /// lock), or push it into the augment pipeline.
  void continue_reduction(PairTask task, Polynomial h, TaskTrace trace) {
    executing_ = true;
    reduce_by_replica(&h, &trace);

    if (h.is_zero()) {
      retire_zero(task.a, task.b, std::move(trace));
      executing_ = false;
      return;
    }
    if (PolyId blocked = basis_.pending_reducer(h.hmono()); blocked != 0) {
      basis_.prefetch(blocked);
      if (ProcTracer* t = self_.tracer()) {
        t->async_begin(Ev::kStall, self_.now(), hold_id(task.a, task.b), blocked);
      }
      stalled_.push_back(Stalled{std::move(task), std::move(h), std::move(trace)});
      executing_ = false;
      return;
    }
    // Nonzero normal form w.r.t. the (possibly stale) replica: suspend into
    // the augment pipeline and request the lock if it is not already wanted.
    pending_.push_back(Pending{std::move(h), std::move(trace), task.a, task.b});
    if (!lock_.requested()) {
      lock_.request();
      aug_state_ = AugState::kWaitLock;
    }
    executing_ = false;
  }

  /// Head-reduce *h against the local replica, one step at a time, polling
  /// the network between steps (the paper's minimum grain is a single
  /// reduction step). Appends reducer ids to the trace.
  void reduce_by_replica(Polynomial* h, TaskTrace* trace) {
    TraceSpan span(self_, Ev::kReduce);
    ProcTelemetry* te = self_.telemetry();
    std::uint64_t t0 = te != nullptr ? self_.now() : 0;
    std::uint64_t steps = 0;
    if (!zp_) h->make_primitive();
    while (!h->is_zero()) {
      std::uint64_t rid = 0;
      const Polynomial* r = basis_.reducer_set().find_reducer(h->hmono(), &rid);
      if (r == nullptr) break;
      CostScope cost;
      if (zp_) {
        // Mod-p steps keep residues canonical by construction; the monic
        // normalization happens once at the end (reduce_step_mod is
        // scalar-equivariant, so deferring it changes nothing downstream).
        *h = reduce_step_mod(sys_.ctx, *h, *r, *zp_);
      } else {
        *h = reduce_step(sys_.ctx, *h, *r);
        h->make_primitive();
      }
      std::uint64_t c = cost.elapsed();
      steps += 1;
      out_->stats.reduction_steps += 1;
      out_->stats.max_step_cost = std::max(out_->stats.max_step_cost, c);
      out_->stats.work_units += c;
      trace->reducers.push_back(rid);
      self_.poll();  // serve fetches/invalidations/steals between steps
      // Also advance the augment protocol between steps: a lock grant or the
      // last invalidation ack must not wait for this (possibly long)
      // reduction to finish — that would stretch every lock hold by an
      // unrelated task's length. Guarded against re-entry because the
      // augment itself reduces.
      pump_augment();
    }
    if (zp_) h->make_monic(*zp_);
    if (te != nullptr) te->hist(TeleHist::kReduce).record(self_.now() - t0);
    span.result(steps);
  }

  /// Advance the augment state machine as far as the arrived messages allow.
  /// Re-entrant calls (from the augment's own reduction) are no-ops.
  void pump_augment() {
    if (in_pump_) return;
    in_pump_ = true;
    pump_augment_impl();
    in_pump_ = false;
  }

  void pump_augment_impl() {
    if (aug_state_ == AugState::kWaitLock && !lock_.granted() &&
        basis_.stats().bodies_received != replica_seen_) {
      // While queued for the lock, keep the pending reduct fresh against
      // every newly arrived basis element: work done here comes off the
      // critical section (and a reduct that dies here never needed the
      // lock's validation round at all).
      replica_seen_ = basis_.stats().bodies_received;
      freshen_pending();
    }
    if (aug_state_ == AugState::kWaitLock && lock_.granted()) {
      // Under the lock the basis is stable and all prior invalidations have
      // reached us (their acks gated the previous holder's release): one
      // validation round makes the replica the complete current G.
      aug_state_ = AugState::kValidating;
      basis_.begin_validate();
    }
    if (aug_state_ == AugState::kValidating && basis_.valid()) finish_augment_under_lock();
    if (aug_state_ == AugState::kAdding && basis_.add_done()) complete_add();
  }

  /// A reduct that reached zero: the pair is treated.
  void retire_zero(PolyId a, PolyId b, TaskTrace trace) {
    out_->stats.reductions_to_zero += 1;
    done_.mark(a, b);
    if (cfg_.record_trace) out_->trace.tasks.push_back(std::move(trace));
  }

  /// Re-reduce queued reducts against the current replica; retire any that
  /// reach zero. Runs outside the lock.
  void freshen_pending() {
    TraceSpan span(self_, Ev::kFreshen, pending_.size());
    for (std::size_t i = 0; i < pending_.size();) {
      Pending& p = pending_[i];
      reduce_by_replica(&p.poly, &p.trace);
      if (p.poly.is_zero()) {
        retire_zero(p.a, p.b, std::move(p.trace));
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  /// With the lock held and a valid replica: re-reduce pending reducts
  /// against the full basis (the NORMAL re-check of axiom AUGMENT) and
  /// admit the survivors into one add round of at most adds_per_round()
  /// members. add_push stores each member at once, so the next one
  /// re-reduces against it: a round adds exactly what that many consecutive
  /// one-add holds would have, minus the lock hand-offs. With rounds of one
  /// the hold examines exactly one reduct and gives the lock back if it
  /// died.
  void finish_augment_under_lock() {
    TraceSpan span(self_, Ev::kAugment);
    const std::size_t max_adds = basis_.adds_per_round();
    bool blocked = false;
    while (!pending_.empty() && round_.size() < max_adds) {
      Pending& p = pending_.front();
      reduce_by_replica(&p.poly, &p.trace);
      if (p.poly.is_zero()) {
        retire_zero(p.a, p.b, std::move(p.trace));
        pending_.pop_front();
        if (max_adds == 1) break;
        continue;
      }
      // The NORMAL re-check must see the body of any head that still
      // divides; under the hybrid store it may not be resident. Fetch it and
      // retry from pump_augment when it lands (progress is saved in p.poly;
      // the lock stays held — the price of bounded replication).
      if (PolyId r = basis_.pending_reducer(p.poly.hmono()); r != 0) {
        basis_.prefetch(r);
        blocked = true;
        break;
      }
      if (round_.empty()) basis_.add_open();
      PolyId id = basis_.add_push(std::move(p.poly));
      round_.push_back(RoundMember{id, p.a, p.b, std::move(p.trace)});
      pending_.pop_front();
    }
    if (round_.empty()) {
      // Nothing admitted: give the lock back, unless the front reduct waits
      // for a body.
      if (!blocked) release_and_continue();
      return;
    }
    basis_.add_close();
    aug_state_ = AugState::kAdding;
  }

  /// All acks for the round arrived: its members are globally visible, so
  /// the lock is released, and each member gets its pairs. The replica is
  /// complete and stable, so the Gebauer–Möller update applies exactly as
  /// in the sequential engine: member k pairs against everything known
  /// before it, earlier members included and later ones not. Members stay
  /// in round_ — and so count as work — until their pairs exist.
  void complete_add() {
    TraceSpan span(self_, Ev::kAugment, round_.size());
    release_and_continue();
    for (std::size_t k = 0; k < round_.size(); ++k) {
      RoundMember& m = round_[k];
      const Polynomial* body = basis_.find(m.id);
      GBD_CHECK(body != nullptr);
      Monomial new_head = body->hmono();
      auto admitted_from_k = [&](PolyId id) {
        for (std::size_t j = k; j < round_.size(); ++j) {
          if (round_[j].id == id) return true;
        }
        return false;
      };
      std::vector<PolyId> others;
      std::vector<Monomial> heads;
      for (const auto& [kid, head] : basis_.known_heads()) {
        if (admitted_from_k(kid)) continue;
        others.push_back(kid);
        heads.push_back(head);
      }
      if (cfg_.gb.gm_update) {
        GmSplit split = gm_split(sys_.ctx, heads, new_head, &out_->stats);
        for (std::size_t i : split.kept) enqueue_pair(others[i], m.id, heads[i], new_head);
        for (std::size_t i : split.grounded) done_.mark(others[i], m.id);
      } else {
        for (std::size_t i = 0; i < others.size(); ++i) {
          create_pair(others[i], m.id, heads[i], new_head);
        }
      }
      out_->stats.basis_added += 1;
      out_->added.emplace_back(m.id, *body);
      done_.mark(m.a, m.b);
      m.trace.added = true;
      m.trace.result = m.id;
      if (cfg_.record_trace) out_->trace.tasks.push_back(std::move(m.trace));
    }
    round_.clear();
  }

  void release_and_continue() {
    lock_.release();
    if (!pending_.empty()) {
      lock_.request();
      aug_state_ = AugState::kWaitLock;
    } else {
      aug_state_ = AugState::kIdle;
    }
  }

  bool try_resume_suspended() {
    for (auto it = suspended_.begin(); it != suspended_.end(); ++it) {
      bool have_a = basis_.find(it->a) != nullptr;
      bool have_b = basis_.find(it->b) != nullptr;
      if (have_a && have_b) {
        PairTask t = std::move(*it);
        suspended_.erase(it);
        if (ProcTracer* tr = self_.tracer()) {
          tr->async_end(Ev::kHold, self_.now(), hold_id(t.a, t.b));
        }
        TraceSpan span(self_, Ev::kResume, t.a, t.b);
        process_task(std::move(t));
        return true;
      }
      // Keep the fetches alive: under a bounded cache one body can arrive
      // and be evicted again before its partner lands.
      if (!have_a) basis_.prefetch(it->a);
      if (!have_b) basis_.prefetch(it->b);
    }
    for (auto it = stalled_.begin(); it != stalled_.end(); ++it) {
      // Resume as soon as the head can make progress locally (a resident
      // reducer arrived) or nothing further is pending. Requires a resident
      // check too: under the hybrid store a *different*, permanently
      // non-resident element's head may divide forever.
      PolyId pending = basis_.pending_reducer(it->partial.hmono());
      if (pending == 0 ||
          basis_.reducer_set().find_reducer(it->partial.hmono(), nullptr) != nullptr) {
        Stalled s = std::move(*it);
        stalled_.erase(it);
        if (ProcTracer* tr = self_.tracer()) {
          tr->async_end(Ev::kStall, self_.now(), hold_id(s.task.a, s.task.b));
        }
        TraceSpan span(self_, Ev::kResume, s.task.a, s.task.b);
        continue_reduction(std::move(s.task), std::move(s.partial), std::move(s.trace));
        return true;
      }
      // Still blocked: keep the fetch alive (the body may have been fetched
      // and evicted again under a bounded cache).
      basis_.prefetch(pending);
    }
    return false;
  }

  struct Pending {
    Polynomial poly;
    TaskTrace trace;
    PolyId a, b;
  };

  /// One member of the in-flight add round (its body already lives in the
  /// store under `id`), from pair (a, b).
  struct RoundMember {
    PolyId id;
    PolyId a, b;
    TaskTrace trace;
  };

  Proc& self_;
  const PolySystem& sys_;
  const ParallelConfig& cfg_;
  ProcOutput* out_;
  InvariantMonitor* monitor_ = nullptr;
  TaskLedger* ledger_ = nullptr;
  /// Engaged iff cfg.gb.coeff selects Zp — the Montgomery constants are
  /// computed once per worker, not once per reduction step.
  std::optional<ZpField> zp_;

  static std::unique_ptr<BasisStore> make_store(Proc& self, const ParallelConfig& cfg) {
    if (cfg.basis_mode == BasisMode::kHybrid) {
      HybridConfig hc;
      hc.homes = cfg.hybrid_homes;
      hc.cache_capacity = cfg.hybrid_cache_capacity;
      return std::make_unique<HybridBasis>(self, hc);
    }
    return std::make_unique<ReplicatedBasis>(self, cfg.wire);
  }

  std::unique_ptr<BasisStore> basis_owned_;
  BasisStore& basis_;
  std::optional<LockManager> lock_mgr_;
  LockClient lock_;
  DistTaskQueue queue_;

  struct Stalled {
    PairTask task;
    Polynomial partial;
    TaskTrace trace;
  };

  DoneIdPairs done_;
  std::deque<PairTask> suspended_;
  std::deque<Stalled> stalled_;
  std::deque<Pending> pending_;
  std::vector<RoundMember> round_;
  AugState aug_state_ = AugState::kIdle;
  /// Kernel thread-local counters at construction (on the hosting thread),
  /// windowing this run's deltas for the metrics registry.
  KernelBaseline kernel_base_ = kernel_baseline();
  std::size_t replica_seen_ = 0;
  std::uint64_t cur_degree_ = 0;  ///< lcm degree of the last dequeued pair (telemetry gauge)
  bool executing_ = false;
  bool in_pump_ = false;
  bool finishing_ = false;
};

/// Register the three protocol invariants over the (lazily filled) worker
/// vector. Every check skips cleanly while any processor has not constructed
/// its worker yet; the quiescence sweep always sees all of them.
void register_invariants(InvariantMonitor& monitor,
                         const std::vector<std::unique_ptr<GlpWorker>>& workers) {
  // Replicated-basis coherence: an AddToSet that completed (all acks in)
  // proves every processor processed the INVALIDATE — so the id must be
  // known machine-wide, and wherever the body is resident it must be
  // byte-identical to every other resident copy.
  monitor.add_check("basis-coherence", [&workers]() -> std::string {
    for (const auto& wp : workers) {
      if (wp == nullptr) return "";
    }
    for (std::size_t p = 0; p < workers.size(); ++p) {
      const ReplicatedBasis* rb = workers[p]->replicated_basis();
      if (rb == nullptr) continue;  // hybrid store: no replication invariant
      for (PolyId id : rb->completed_adds()) {
        const Polynomial* ref = rb->find(id);
        for (std::size_t q = 0; q < workers.size(); ++q) {
          const ReplicatedBasis* ob = workers[q]->replicated_basis();
          if (ob == nullptr) continue;
          if (!ob->known(id)) {
            return "add of id " + std::to_string(id) + " completed on proc " + std::to_string(p) +
                   " but proc " + std::to_string(q) + " never saw the invalidation";
          }
          const Polynomial* body = ob->find(id);
          if (ref != nullptr && body != nullptr && !ref->equals(*body)) {
            return "replicas of id " + std::to_string(id) + " diverge between proc " +
                   std::to_string(p) + " and proc " + std::to_string(q);
          }
        }
      }
    }
    return "";
  });
  // Task-queue conservation: no task lost or double-counted. At any
  // consistent snapshot every enqueued task is either dequeued, resting in
  // some local queue, or serialized inside an in-flight grant/push message
  // (counted by migrated-out minus migrated-in). Written add-only to dodge
  // unsigned underflow.
  monitor.add_check("task-conservation", [&workers]() -> std::string {
    std::uint64_t enq = 0, deq = 0, local = 0, mig_out = 0, mig_in = 0;
    for (const auto& wp : workers) {
      if (wp == nullptr) return "";
      const TaskQueueStats& st = wp->taskq().stats();
      enq += st.enqueued;
      deq += st.dequeued;
      local += wp->taskq().local_size();
      mig_out += st.tasks_migrated;
      mig_in += st.tasks_migrated_in;
    }
    if (enq + mig_in != deq + local + mig_out) {
      return "task conservation broken: enqueued=" + std::to_string(enq) + " dequeued=" +
             std::to_string(deq) + " resting=" + std::to_string(local) + " migrated_out=" +
             std::to_string(mig_out) + " migrated_in=" + std::to_string(mig_in);
    }
    return "";
  });
  // Termination safety: announcement is stable and final — once any endpoint
  // has heard it, no processor may hold a task (queued, suspended, stalled,
  // pending, in an add round or executing) ever again.
  monitor.add_check("termination-safety", [&workers]() -> std::string {
    bool announced = false;
    for (const auto& wp : workers) {
      if (wp == nullptr) return "";
      announced = announced || wp->taskq().terminated();
    }
    if (!announced) return "";
    for (std::size_t p = 0; p < workers.size(); ++p) {
      if (workers[p]->holds_work()) {
        return "termination announced but proc " + std::to_string(p) + " still holds work";
      }
    }
    return "";
  });
}

ParallelResult run_on_machine(Machine& machine, bool sim, const PolySystem& sys,
                              const ParallelConfig& cfg) {
  GBD_CHECK_MSG(!cfg.reserve_coordinator || cfg.nprocs >= 2,
                "reserve_coordinator needs at least two processors");
  // The hybrid store only speaks the per-id protocol (make_store).
  GBD_CHECK_MSG(cfg.basis_mode != BasisMode::kHybrid || !cfg.wire.any(),
                "wire batching is not supported by the hybrid basis store");
  // GbConfig fields GL-P has no path for: reject rather than ignore.
  GBD_CHECK_MSG(cfg.gb.selection != Selection::kSugar,
                "GL-P does not support sugar selection (pair sugar is not sent over the wire)");
  GBD_CHECK_MSG(!cfg.gb.tail_reduce, "GL-P does not support tail_reduce");
  GBD_CHECK_MSG(!cfg.gb.interreduce_input, "GL-P does not support interreduce_input");
  GBD_CHECK_MSG(cfg.gb.stop == nullptr, "GL-P runs to completion and does not support stop");
  GBD_CHECK_MSG(!cfg.gb.matrix_reduce || cfg.gb.matrix_batch_max >= 1,
                "matrix_batch_max must be at least 1");

  // Canonical inputs, preloaded identically everywhere with owner-0 ids.
  std::vector<std::pair<PolyId, Polynomial>> inputs;
  std::uint32_t seq = 0;
  for (const auto& p : sys.polys) {
    Polynomial q = p;
    coeff_normalize(sys.ctx, &q, cfg.gb.coeff);
    if (q.is_zero()) continue;
    inputs.emplace_back(make_poly_id(0, seq++), std::move(q));
  }

  std::vector<ProcOutput> outputs(static_cast<std::size_t>(cfg.nprocs));
  // Workers are heap-allocated and owned here (not on the proc threads'
  // stacks) so invariant sweeps — including the final one after quiescence —
  // can safely read every processor's application state.
  std::vector<std::unique_ptr<GlpWorker>> workers(static_cast<std::size_t>(cfg.nprocs));
  InvariantMonitor monitor(cfg.invariant_period);
  TaskLedger ledger;
  InvariantMonitor* mon = cfg.check_invariants ? &monitor : nullptr;
  if (mon != nullptr) {
    machine.set_monitor(mon);
    register_invariants(monitor, workers);
  }
  machine.set_tracer(cfg.tracer);
  machine.set_telemetry(cfg.telemetry);
  auto worker = [&](Proc& self) {
    auto& slot = workers[static_cast<std::size_t>(self.id())];
    slot = std::make_unique<GlpWorker>(self, sys, cfg, inputs,
                                       &outputs[static_cast<std::size_t>(self.id())], mon, &ledger);
    slot->run();
  };

  ParallelResult res;
  if (sim) {
    res.machine = static_cast<SimMachine&>(machine).run_sim(worker);
  } else {
    MachineStats ms = machine.run(worker);
    res.machine.makespan = ms.makespan;
    res.machine.per_proc = std::move(ms.per_proc);
    res.machine.mailbox = std::move(ms.mailbox);
    res.machine.has_mailbox_stats = ms.has_mailbox_stats;
  }
  if (cfg.metrics != nullptr) collect_machine_stats(*cfg.metrics, res.machine);
  if (cfg.metrics != nullptr && cfg.telemetry != nullptr) {
    cfg.metrics->add("telemetry.dropped_frames", 0, cfg.telemetry->dropped_frames());
    cfg.metrics->add("telemetry.frames_received", 0,
                     cfg.telemetry->aggregator().frames_received());
  }
  if (mon != nullptr) {
    res.violations = monitor.violations();
    res.invariant_sweeps = monitor.sweeps_run();
  }

  res.basis_ids = inputs;
  for (auto& out : outputs) {
    for (auto& [id, poly] : out.added) res.basis_ids.emplace_back(id, std::move(poly));
    res.per_proc.push_back(out.stats);
    res.stats.merge(out.stats);
    res.wire.merge(out.basis);
    res.trace.procs.push_back(std::move(out.trace));
  }
  std::sort(res.basis_ids.begin(), res.basis_ids.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [id, poly] : res.basis_ids) res.basis.push_back(poly);
  res.elapsed_units = res.machine.makespan;
  return res;
}

}  // namespace

std::map<PolyId, Polynomial> ParallelResult::bodies() const {
  std::map<PolyId, Polynomial> m;
  for (const auto& [id, poly] : basis_ids) m.emplace(id, poly);
  return m;
}

ParallelResult groebner_parallel(const PolySystem& sys, const ParallelConfig& cfg) {
  ChaosConfig chaos = cfg.chaos;
  if (chaos.dup_permille > 0 && chaos.dup_safe.empty()) {
    // The engine's idempotent handlers (the only ones chaos may duplicate):
    // the basis protocol is dup-safe end to end (acks carry ids and are
    // deduplicated per processor), steal requests just provoke another
    // possibly-empty grant, and the termination announcement is sticky.
    // Grants/pushes (task payloads!), wave probes/reports (reply counting),
    // the ring token and the lock protocol are NOT idempotent by design —
    // exactly-once is part of their contract.
    chaos.dup_safe = {kBaInvalidate, kBaInvAck,    kBaFetch,     kBaBody,
                      kBaInvBatch,   kBaFetchBatch, kBaBodyBatch,
                      kTqSteal,      kTqAnnounce};
  }
  SimMachine machine(cfg.nprocs, cfg.cost, chaos);
  return run_on_machine(machine, /*sim=*/true, sys, cfg);
}

ParallelResult groebner_parallel_threads(const PolySystem& sys, const ParallelConfig& cfg) {
  ThreadMachine machine(cfg.nprocs);
  return run_on_machine(machine, /*sim=*/false, sys, cfg);
}

ParallelResult groebner_parallel_machine(Machine& machine, const PolySystem& sys,
                                         const ParallelConfig& cfg) {
  GBD_CHECK_MSG(machine.nprocs() == cfg.nprocs, "cfg.nprocs must match the machine");
  return run_on_machine(machine, /*sim=*/false, sys, cfg);
}

}  // namespace gbd
