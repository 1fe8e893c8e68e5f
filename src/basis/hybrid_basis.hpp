// HybridBasis — the replicate/partition continuum of the paper's §7:
// "We are designing a more flexible abstraction that performs this
// space-time trade-off on a continuum using a hybrid of partitioning and
// replication."
//
// Heads (8-byte id + small monomial) are replicated on every processor, so
// membership, criteria and NORMAL checks never need communication. Bodies
// are only *permanently* resident on `homes` consecutive processors
// starting at the owner (homes = P reproduces full replication; homes = 1
// with cache 0 is a pure partition). Every other processor may cache up to
// `cache_capacity` bodies, evicting least-recently-used; a non-resident
// body is fetched on demand up the owner-rooted tree, exactly like the
// replicated store's validation fetches. The engine stalls work that needs
// an absent body (BasisStore::pending_reducer), so bounded memory costs
// extra fetch traffic and latency, never correctness.
//
// Reuses the replicated store's per-id wire protocol (handler ids 120..123)
// and its add-round bookkeeping (add_round.hpp: rounds of one, id-carrying
// idempotent acks), plus one extra message: the owner eagerly pushes each
// new body to its other home processors.
#pragma once

#include <list>
#include <map>

#include "basis/add_round.hpp"
#include "machine/machine.hpp"
#include "poly/divmask.hpp"

namespace gbd {

struct HybridConfig {
  /// Number of consecutive processors (starting at the owner) that hold
  /// each body permanently. Clamped to [1, P].
  int homes = 2;
  /// Maximum number of *non-home* bodies cached per processor; 0 disables
  /// caching entirely (every remote use is a fetch).
  std::size_t cache_capacity = 16;
};

class HybridBasis final : public BasisStore {
 public:
  HybridBasis(Proc& self, HybridConfig cfg);

  void preload(PolyId id, Polynomial poly) override;
  std::size_t adds_per_round() const override { return round_.max_adds(); }
  void add_open() override { round_.open(); }
  PolyId add_push(Polynomial poly) override;
  void add_close() override;
  bool add_done() const override { return round_.done(); }
  /// Consistency is maintained incrementally at the head level; there is
  /// nothing batched to fetch.
  void begin_validate() override {}
  bool valid() const override { return true; }
  void prefetch(PolyId id) override;
  const Polynomial* find(PolyId id) override;
  const ReducerSet& reducer_set() const override { return reducer_view_; }
  const std::vector<std::pair<PolyId, Monomial>>& known_heads() const override {
    return known_heads_;
  }
  PolyId pending_reducer(const Monomial& m) const override;
  const BasisStats& stats() const override { return stats_; }

  /// True iff this processor is a permanent holder of id's body.
  bool is_home(PolyId id) const;
  std::size_t resident_bodies() const { return resident_.size(); }
  std::size_t cached_bodies() const { return lru_.size(); }

 private:
  class ReducerView final : public ReducerSet {
   public:
    explicit ReducerView(HybridBasis* b) : b_(b) {}
    const Polynomial* find_reducer(const Monomial& m, std::uint64_t* out_id) const override;

   private:
    HybridBasis* b_;
  };

  int tree_parent(int owner) const;
  void announce(PolyId id, Monomial head);
  void store_body(PolyId id, Polynomial poly);
  void touch(PolyId id);
  void request_body(PolyId id);

  void on_invalidate(int src, Reader& r);
  void on_fetch(int src, Reader& r);
  void on_body(Reader& r, bool as_home);

  Proc& self_;
  HybridConfig cfg_;
  BasisStats stats_;

  std::vector<std::pair<PolyId, Monomial>> known_heads_;
  // Parallel to known_heads_: divmask of each head, so the reducer scan
  // rejects non-divisors before even looking up residency.
  DivMaskRuler ruler_;
  std::vector<std::uint64_t> head_masks_;
  std::map<PolyId, Monomial> head_index_;
  std::map<PolyId, Polynomial> resident_;
  // LRU order of cached (non-home) resident ids; front = oldest.
  std::list<PolyId> lru_;
  std::map<PolyId, std::list<PolyId>::iterator> lru_pos_;

  std::map<PolyId, std::vector<int>> pending_requesters_;
  std::map<PolyId, bool> fetch_in_flight_;

  AddRound round_;
  ReducerView reducer_view_;
};

}  // namespace gbd
