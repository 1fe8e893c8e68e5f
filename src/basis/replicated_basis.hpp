// The replicated basis with software-controlled weak consistency (§4.1).
//
// Every processor holds a local replica G_i of the basis plus a shadow set
// G'_i of 8-byte polynomial IDs that have been added elsewhere but whose
// bodies have not been fetched yet. The §4.1.2 interface:
//
//   AddToSet   — split-phase, in rounds (add_round.hpp): the adder stores
//                each member's body locally and broadcasts INVALIDATE to
//                every other processor (star pattern) — one message per id,
//                or one multi-id envelope per destination when batching;
//                each victim adds the ids to its shadow set and
//                acknowledges. add_done() turns true when all acks are in
//                ("acknowledgements are necessary for correctness").
//   Validate   — split-phase: request the body of every shadow id and absorb
//                the replies. Requests are routed up a tree embedded in the
//                processor ring and rooted at the id's owner (§6: "a tree is
//                embedded into the network with the processor adding it at
//                the root … it traverses up the tree along its ancestors
//                until it finds the polynomial"); intermediate processors
//                cache the body and serve later requests, balancing load.
//   Valid?     — the shadow set is empty (a shadow entry stays until its
//                body arrives, so in-flight fetches keep the replica
//                invalid).
//   ForAll     — iteration over the (possibly incomplete) local replica; the
//                ReducerSet facade makes it pluggable into reduce_full.
//
// The abstraction deliberately guarantees nothing about freshness: "the
// application must use the operations so as to implement the nature of
// consistency it needs" (§4.1.2). Correctness of reducing against a stale
// replica is an algebraic property of the Gröbner problem (DESIGN.md §6).
//
// A small coordinator-managed mutual-exclusion lock (LockClient) arbitrates
// AddToSet invalidation rounds, as in §5/§6 of the paper.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "basis/add_round.hpp"
#include "machine/machine.hpp"
#include "poly/divmask.hpp"

namespace gbd {

/// Adds per round under BasisWireConfig::batch_invalidations.
inline constexpr std::size_t kBatchRoundAdds = 8;

/// One processor's endpoint of the replicated basis. Construct inside the
/// worker on every processor before any polling.
class ReplicatedBasis final : public BasisStore {
 public:
  explicit ReplicatedBasis(Proc& self, BasisWireConfig wire = {});

  void preload(PolyId id, Polynomial poly) override;
  std::size_t adds_per_round() const override { return round_.max_adds(); }
  void add_open() override { round_.open(); }
  PolyId add_push(Polynomial poly) override;
  void add_close() override;
  bool add_done() const override { return round_.done(); }
  void begin_validate() override;
  bool valid() const override { return shadow_.empty(); }
  void prefetch(PolyId id) override {
    if (replica_.find(id) == replica_.end()) request_body(id);
  }
  const Polynomial* find(PolyId id) override {
    return static_cast<const ReplicatedBasis*>(this)->find(id);
  }
  const ReducerSet& reducer_set() const override { return reducer_view_; }
  const std::vector<std::pair<PolyId, Monomial>>& known_heads() const override {
    return known_heads_;
  }
  PolyId pending_reducer(const Monomial& m) const override {
    for (const auto& [id, head] : shadow_) {
      if (head.divides(m)) return id;
    }
    return 0;
  }
  const BasisStats& stats() const override { return stats_; }

  // --- extras beyond the BasisStore interface --------------------------------

  const Polynomial* find(PolyId id) const;

  /// The shadow set currently pending (ids invalidated but not yet fetched).
  std::size_t shadow_size() const { return shadow_.size(); }

  /// Number of polynomials in the local replica.
  std::size_t replica_size() const { return order_.size(); }

  /// True iff the id names a basis element this processor has heard of
  /// (resident or shadowed).
  bool known(PolyId id) const;

  /// True iff some shadowed element's head divides m (see pending_reducer).
  bool shadow_may_reduce(const Monomial& m) const { return pending_reducer(m) != 0; }

  /// Ids in local arrival order (the ForAll iteration order).
  const std::vector<PolyId>& local_ids() const { return order_; }

  /// Invoked whenever an INVALIDATE arrives (after the shadow insert), so
  /// the engine can notice that its replica went stale mid-task.
  void set_invalidate_hook(std::function<void(PolyId)> hook) { on_invalidate_ = std::move(hook); }

  /// Ids whose AddToSet completed *here* (all acks in) — the invariant the
  /// §4.1.2 acks exist to establish: each is known machine-wide.
  const std::vector<PolyId>& completed_adds() const { return round_.completed(); }

 private:
  class ReducerView final : public ReducerSet {
   public:
    explicit ReducerView(const ReplicatedBasis* b) : b_(b) {}
    const Polynomial* find_reducer(const Monomial& m, std::uint64_t* out_id) const override;

   private:
    const ReplicatedBasis* b_;
  };

  /// Parent of this processor in the fetch tree rooted at `owner`.
  int tree_parent(int owner) const;

  void announce(PolyId id, const Monomial& head);
  void store(PolyId id, Polynomial poly);
  void request_body(PolyId id);
  /// Issue upward fetches for `ids`, skipping those already in flight; one
  /// multi-id envelope per tree parent when wire_.batch_fetches, else one
  /// envelope per id.
  void request_bodies(const std::vector<PolyId>& ids);
  /// Absorb one fetched body and return the children waiting on it (the
  /// caller forwards — after every body of its batch has been stored).
  std::vector<int> absorb_body(PolyId id, Polynomial poly);

  void on_invalidate(int src, Reader& r);
  void on_inv_batch(int src, Reader& r);
  void on_fetch(int src, Reader& r);
  void on_fetch_batch(int src, Reader& r);
  void on_body(Reader& r);
  void on_body_batch(Reader& r);

  Proc& self_;
  BasisWireConfig wire_;
  BasisStats stats_;

  std::map<PolyId, Polynomial> replica_;
  std::vector<PolyId> order_;  ///< replica keys in arrival order (ForAll order)
  // Parallel to order_: divmask of each element's head and a pointer to its
  // body (std::map nodes are stable and the replica never erases), so the
  // reducer scan avoids both the map lookup and most exponent comparisons.
  DivMaskRuler ruler_;
  std::vector<std::uint64_t> order_masks_;
  std::vector<const Polynomial*> order_body_;
  std::map<PolyId, Monomial> shadow_;  ///< invalidated ids + their head monomials
  std::vector<std::pair<PolyId, Monomial>> known_heads_;  ///< every announced element
  std::map<PolyId, std::vector<int>> pending_requesters_;  ///< fetches to answer later
  std::map<PolyId, bool> fetch_in_flight_;  ///< upward requests already issued

  AddRound round_;
  bool validate_open_ = false;         ///< kValidate async round in progress
  std::uint64_t validate_rounds_ = 0;  ///< async id of the current/last round
  std::uint64_t fault_draws_ = 0;   ///< chaos fault-injection draw counter

  std::function<void(PolyId)> on_invalidate_;
  ReducerView reducer_view_;
};

/// Handler-id block 130..133: coordinator-arbitrated mutual exclusion for
/// invalidation rounds. The coordinator processor must construct LockManager;
/// every processor (including the coordinator) constructs LockClient.
enum LockHandlers : HandlerId {
  kLkRequest = 130,
  kLkGrant = 131,
  kLkRelease = 132,
};

class LockManager {
 public:
  explicit LockManager(Proc& self);

 private:
  Proc& self_;
  bool held_ = false;
  std::vector<int> queue_;
};

class LockClient {
 public:
  LockClient(Proc& self, int coordinator);

  /// Request the lock (split-phase; at most one outstanding request).
  void request();
  bool granted() const { return granted_; }
  bool requested() const { return requested_; }
  void release();

  /// Virtual time spent between request and grant, for the §6 overhead claim.
  std::uint64_t wait_units() const { return wait_units_; }

 private:
  Proc& self_;
  int coordinator_;
  bool requested_ = false;
  bool granted_ = false;
  std::uint64_t request_time_ = 0;
  std::uint64_t wait_units_ = 0;
  std::uint64_t rounds_ = 0;  ///< request count, doubles as the kLockWait async id
};

}  // namespace gbd
