// Pair bookkeeping for Buchberger's loop: the priority queue gpq, the
// treated-pair set, and Buchberger's elimination criteria.
//
// The queue orders pairs by heuristic merit (§3.1: "priority ordering is
// necessary in gpq, so that heuristic merit can be encoded into priority").
// The treated-pair set supports the chain criterion: pair (i,j) is
// superfluous if some basis element k has HMONO(k) | lcm(i,j) and the pairs
// (i,k) and (j,k) were both treated earlier. Only self-grounded treatments
// may be cited (DESIGN.md §6): reduced pairs and coprime pairs. A chain- or
// M/F-pruned pair is dropped but never marked treated.
//
// PairBook holds all of this for the engines that index the basis by
// position (sequential, transition, shared-memory, pipeline). GL-P keys its
// pairs by PolyId and keeps its own distributed queue and treated set, but
// applies the Gebauer–Möller update through the same gm_split.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gb/engine_common.hpp"
#include "poly/polynomial.hpp"

namespace gbd {

/// A queued pair of basis indices (i < j) with its cached head-lcm.
struct PendingPair {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  Monomial lcm;
  std::uint32_t sugar = 0;  ///< pair sugar degree (used by Selection::kSugar)
  std::uint64_t seq = 0;    ///< creation sequence number (FIFO + determinism)
};

struct GmPruneCounts {
  std::uint64_t m_rule = 0;
  std::uint64_t f_rule = 0;
  std::uint64_t coprime = 0;
};

/// Gebauer–Möller update: given the head monomials of the current basis and
/// the head of a new element r, return the indices i whose pair (g_i, r)
/// must actually be queued. Applies, in order (Becker–Weispfenning,
/// "Gröbner Bases", GEBAUERMOELLER):
///   M — drop i when some lcm(h_j, h_r) strictly divides lcm(h_i, h_r);
///   F — among groups with equal lcm keep one representative, or none if any
///       member of the group has coprime heads;
///   B1 — drop survivors with coprime heads (Buchberger's first criterion).
/// The rules are purely syntactic on head monomials — no processing-order
/// bookkeeping — which is what makes them usable by the parallel adder,
/// whose replica is complete and stable under the invalidation lock.
std::vector<std::size_t> gm_new_pairs(const PolyContext& ctx,
                                      const std::vector<Monomial>& heads, const Monomial& hr,
                                      GmPruneCounts* counts = nullptr);

/// The Gebauer–Möller update as an engine applies it to a new element with
/// head `hr`: `kept` are the indices whose pairs are queued; `grounded` are
/// the dropped indices with coprime heads, which criterion 1 grounds, so
/// their pairs may be marked treated. M/F drops are in neither list: they
/// stay uncitable. Both lists ascend.
struct GmSplit {
  std::vector<std::size_t> kept;
  std::vector<std::size_t> grounded;
};

/// gm_new_pairs plus the grounded list, counting the heads.size() new pairs
/// into `stats` as created and each drop as pruned (group-coprime drops as
/// coprime, M/F drops as chain).
GmSplit gm_split(const PolyContext& ctx, const std::vector<Monomial>& heads,
                 const Monomial& hr, GbStats* stats);

/// The pair side of Buchberger's loop over a basis indexed by position:
/// the queue, the treated set, every element's head and sugar, and the pair
/// counters of GbStats (pairs_created, pairs_pruned_*, spolys_computed). The
/// engine keeps the reduction counters (reductions_to_zero, basis_added).
///
/// Pairs are created in a fixed order — input pairs as (i, j > i), then the
/// pairs of each added element by ascending i — and the queue breaks ties by
/// creation order, so every Selection is deterministic.
class PairBook {
 public:
  PairBook(const PolyContext& ctx, const GbConfig& cfg, GbStats* stats);

  /// Record the input elements (heads, and sugar = total degree) and queue
  /// every pair among them.
  void seed(const std::vector<Polynomial>& input);

  /// Record g as element heads().size() with the given sugar and create its pairs
  /// with every earlier element: through gm_split when gm_update is on,
  /// otherwise every pair is queued.
  void add(const Polynomial& g, std::uint32_t sugar);

  bool empty() const { return queue_.empty(); }
  /// The pair pop() would return. Queue must be non-empty.
  const PendingPair& peek() const;
  /// Remove and return the best pair under the selection strategy.
  PendingPair pop();

  /// Screen a popped pair against the enabled criteria. A coprime pair is
  /// counted and marked treated; a chain-pruned pair is counted but not
  /// marked. Returns true when the pair must be reduced: it is then counted
  /// as an s-polynomial, and the run aborts past GbConfig::max_spolys.
  bool screen(const PendingPair& p);

  /// Mark (i, j) treated once its s-polynomial has been reduced. Kept apart
  /// from screen() because a matrix round marks its batch only after the
  /// elimination: until then the chain criterion cannot cite a pair of the
  /// same round.
  void treated(std::uint32_t i, std::uint32_t j) { treated_.insert(key(i, j)); }
  bool is_treated(std::uint32_t i, std::uint32_t j) const { return treated_.count(key(i, j)) > 0; }

  const std::vector<Monomial>& heads() const { return heads_; }

 private:
  /// Queue order under a Selection; ties by creation sequence.
  struct Before {
    const PolyContext* ctx;
    Selection selection;
    bool operator()(const PendingPair& a, const PendingPair& b) const;
  };

  static std::uint64_t key(std::uint32_t i, std::uint32_t j) {
    if (i > j) std::swap(i, j);
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  void push(std::uint32_t i, std::uint32_t j);
  bool chain_prunable(const PendingPair& p) const;

  const PolyContext& ctx_;
  const GbConfig& cfg_;
  GbStats* stats_;
  std::vector<Monomial> heads_;
  std::vector<std::uint32_t> sugars_;
  std::uint64_t next_seq_ = 0;
  std::set<PendingPair, Before> queue_;
  std::unordered_set<std::uint64_t> treated_;
};

}  // namespace gbd
