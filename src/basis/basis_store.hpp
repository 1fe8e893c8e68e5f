// The basis-storage abstraction the GL-P engine programs against.
//
// §4.1.2's interface (AddToSet / Validate / Valid? / ForAll) plus the
// operations the engine's scheduling needs (prefetch for suspended pairs,
// pending-reducer detection for stalling). Two policies implement it:
//
//  - ReplicatedBasis (replicated_basis.hpp): the paper's main design —
//    every processor eventually holds every body.
//  - HybridBasis (hybrid_basis.hpp): the paper's §7 proposal — heads are
//    replicated everywhere (they are small), but each body permanently
//    lives only on a configurable number of "home" processors; everyone
//    else fetches on demand into a bounded, evicting cache. This trades
//    extra communication for bounded memory: the space-time continuum
//    between full replication and Siegl-style partitioning.
//
// Knowledge of *membership* (ids + head monomials) is always complete up to
// in-flight invalidations on both stores; what varies is body residency.
//
// AddToSet has one API on both stores: a round of up to adds_per_round()
// adds (add_open/add_push/add_close, then poll add_done). The store picks
// the round size and the wire format — the replicated store sends one
// message per id and rounds of one, or one multi-id envelope per
// destination and rounds of up to kBatchRoundAdds under
// BasisWireConfig::batch_invalidations; the hybrid store sends one message
// per id and rounds of one. Both share the adder's bookkeeping (fresh ids,
// the ack token, per-processor ack dedup, completed adds; add_round.hpp),
// so every ack carries its round's token and is idempotent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "poly/reduce.hpp"

namespace gbd {

/// Unique polynomial identity: owner processor in the top 32 bits, the
/// owner's local sequence number below — "eight byte unique identifiers".
using PolyId = std::uint64_t;

inline PolyId make_poly_id(int owner, std::uint32_t seq) {
  return (static_cast<PolyId>(static_cast<std::uint32_t>(owner)) << 32) | seq;
}
inline int poly_id_owner(PolyId id) { return static_cast<int>(id >> 32); }
inline std::uint32_t poly_id_seq(PolyId id) { return static_cast<std::uint32_t>(id); }

struct BasisStats {
  std::uint64_t invalidations_sent = 0;  ///< per-destination id announcements (logical)
  std::uint64_t fetches_sent = 0;        ///< logical body requests issued
  std::uint64_t bodies_received = 0;
  std::uint64_t bodies_served = 0;   ///< fetch requests answered locally
  std::uint64_t bodies_forwarded = 0;
  std::uint64_t evictions = 0;       ///< hybrid only
  std::size_t max_resident = 0;      ///< high-water mark of resident bodies
  // Wire-batching envelope counters (zero when batching is off): the
  // logical counters above keep their meaning, these count the coalesced
  // envelopes actually put on the wire.
  std::uint64_t invalidation_batches = 0;
  std::uint64_t fetch_batches = 0;
  std::uint64_t body_batches = 0;

  /// Sum the traffic counters; max_resident, a high-water mark, takes the max.
  void merge(const BasisStats& o) {
    invalidations_sent += o.invalidations_sent;
    fetches_sent += o.fetches_sent;
    bodies_received += o.bodies_received;
    bodies_served += o.bodies_served;
    bodies_forwarded += o.bodies_forwarded;
    evictions += o.evictions;
    max_resident = std::max(max_resident, o.max_resident);
    invalidation_batches += o.invalidation_batches;
    fetch_batches += o.fetch_batches;
    body_batches += o.body_batches;
  }
};

/// Wire-level batching knobs for the replicated store's protocol. Off by
/// default: one message per id.
struct BasisWireConfig {
  /// Admit several adds per round (kBatchRoundAdds) and announce the whole
  /// round in one multi-id envelope per destination.
  bool batch_invalidations = false;
  /// Coalesce validation fetches by tree parent and body replies by
  /// requester into multi-id envelopes.
  bool batch_fetches = false;

  bool any() const { return batch_invalidations || batch_fetches; }
};

class BasisStore {
 public:
  virtual ~BasisStore() = default;

  /// Install an input polynomial present on every processor from the start.
  virtual void preload(PolyId id, Polynomial poly) = 0;

  /// AddToSet, split-phase, in rounds. add_open() starts a round; each
  /// add_push() stores one body locally under a fresh id — immediately
  /// visible to find()/reducer_set(), so a later member reduces against
  /// earlier ones; add_close() announces the members to every other
  /// processor and starts one acknowledgement round; add_done() turns true
  /// when every ack is in. A round holds at most adds_per_round() members:
  /// the store picks that number together with its wire format, so one
  /// engine code path drives the per-id and the batched protocol alike.
  virtual std::size_t adds_per_round() const = 0;
  virtual void add_open() = 0;
  virtual PolyId add_push(Polynomial poly) = 0;
  virtual void add_close() = 0;
  virtual bool add_done() const = 0;

  /// Validate, split-phase: start whatever fetches this store's consistency
  /// policy wants; poll until valid().
  virtual void begin_validate() = 0;
  virtual bool valid() const = 0;

  /// Request one specific body (suspended pairs, stalled reducts). No-op if
  /// resident or already in flight.
  virtual void prefetch(PolyId id) = 0;

  /// Body lookup; nullptr when not resident here (fetch with prefetch).
  virtual const Polynomial* find(PolyId id) = 0;

  /// ForAll as a ReducerSet over the *resident* bodies; reducer ids are
  /// PolyIds.
  virtual const ReducerSet& reducer_set() const = 0;

  /// Every announced element (id, head monomial), in local announcement
  /// order — complete enough for criteria and pair creation under the lock.
  virtual const std::vector<std::pair<PolyId, Monomial>>& known_heads() const = 0;

  /// An announced element whose head divides m but whose body is not
  /// resident (0 if none): the reducer the engine should wait for instead
  /// of taking the lock with a doomed or improvable reduct. (0 is a safe
  /// sentinel: id 0 is the first preloaded input, resident everywhere.)
  virtual PolyId pending_reducer(const Monomial& m) const = 0;

  virtual const BasisStats& stats() const = 0;
};

}  // namespace gbd
