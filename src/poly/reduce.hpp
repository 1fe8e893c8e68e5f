// Polynomial reduction (normal forms) — the computational core of
// Buchberger's algorithm and the place the paper reports nearly all time
// being spent.
//
// A single step cancels one term of p against a basis polynomial r whose head
// monomial divides it, using the fraction-free formulation
//     p' = a·p − b·(m·r),  a = hc(r)/g, b = c/g, g = gcd(c, hc(r)),
// where c is the cancelled coefficient and m the monomial quotient. Over the
// rationals this is REDUCE of §2 up to a nonzero scalar, which is irrelevant
// to Gröbner structure and avoids rational arithmetic in the inner loop.
//
// Reducers are supplied through the ReducerSet interface: the sequential
// engine backs it with a plain vector, the distributed engine with the local
// replica of the replicated basis (the paper's ForAll iterator — the replica
// "might be incomplete", and that is safe; see DESIGN.md §6).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "poly/coeff.hpp"
#include "poly/divmask.hpp"
#include "poly/polynomial.hpp"

namespace gbd {

/// Source of candidate reducers for a monomial.
class ReducerSet {
 public:
  virtual ~ReducerSet() = default;

  /// Some basis element whose head monomial divides m, or nullptr if m is
  /// irreducible against this set. *out_id (if non-null) receives a stable
  /// identifier of the reducer for per-reducer accounting.
  virtual const Polynomial* find_reducer(const Monomial& m, std::uint64_t* out_id) const = 0;

  // Optional change-tracking interface, used by SymbolicTable (symbolic.hpp)
  // to reuse reducer resolutions across batches. A set that grows append-only
  // reports a monotone version; find_reducer's answer for m can only change
  // between two versions if an element whose head divides m was appended in
  // between (existing elements never change, and a newcomer only displaces
  // the previous winner if it is itself applicable). Sets that cannot
  // guarantee this stay kUnversioned and the memo is bypassed.

  static constexpr std::uint64_t kUnversioned = ~std::uint64_t{0};
  /// Monotone version, or kUnversioned when change tracking is unsupported.
  virtual std::uint64_t version() const { return kUnversioned; }
  /// True if an element whose head divides m was added after `stamp`.
  /// Conservative default: always true (forces re-resolution).
  virtual bool head_added_since(const Monomial& m, std::uint64_t stamp) const {
    (void)m;
    (void)stamp;
    return true;
  }
  /// The element behind an id previously reported by find_reducer, or
  /// nullptr when ids cannot be resolved back.
  virtual const Polynomial* by_id(std::uint64_t id) const {
    (void)id;
    return nullptr;
  }
};

/// Strict preference between two applicable reducers: smaller head
/// coefficient first (the fraction-free step multiplies the reduct through
/// by hc(r)/g, so large head coefficients compound), then fewer terms.
/// Deterministic ties are broken by the caller (oldest wins).
bool reducer_preferred(const Polynomial& a, const Polynomial& b);

/// ReducerSet over a vector of polynomials; reducer id is the vector index.
/// Among applicable reducers the reducer_preferred one wins (deterministic).
///
/// Maintains a divmask signature per element (see divmask.hpp) so the scan
/// dismisses most non-divisors with one AND/compare. The cache extends itself
/// lazily as the backing vector grows; the contract is that the vector is
/// APPEND-ONLY while this set is alive (elements are never modified or
/// removed in place) — exactly how every engine uses its basis vector.
class VectorReducerSet final : public ReducerSet {
 public:
  VectorReducerSet() = default;
  explicit VectorReducerSet(const std::vector<Polynomial>* polys) : polys_(polys) {}

  const Polynomial* find_reducer(const Monomial& m, std::uint64_t* out_id) const override;

  /// Version = backing-vector size: append-only growth makes it monotone.
  std::uint64_t version() const override {
    return polys_ == nullptr ? 0 : polys_->size();
  }
  bool head_added_since(const Monomial& m, std::uint64_t stamp) const override;
  const Polynomial* by_id(std::uint64_t id) const override {
    if (polys_ == nullptr || id >= polys_->size()) return nullptr;
    return &(*polys_)[static_cast<std::size_t>(id)];
  }

  /// Never report element i (replacing any earlier exclusion). find_reducer
  /// then answers exactly as a set over the vector without element i would
  /// — same winner, same probes — which lets the exact reduce_basis and
  /// interreduce reduce every element against "all the others" without
  /// copying them.
  void exclude(std::size_t i) { excluded_ = i; }

 private:
  const std::vector<Polynomial>* polys_ = nullptr;
  std::size_t excluded_ = ~std::size_t{0};  // none
  // Lazily extended per-element head masks (mutable: a pure cache).
  mutable DivMaskRuler ruler_;
  mutable std::vector<std::uint64_t> masks_;
};

/// Per-step notification, used by Table 1's per-reducer time accounting and
/// by the trace recorder of Fig. 8(b).
class ReduceObserver {
 public:
  virtual ~ReduceObserver() = default;
  virtual void on_step(std::uint64_t reducer_id, std::uint64_t cost_units) = 0;
};

struct ReduceOptions {
  /// Also reduce non-head terms (strong normal form). Head-only reduction is
  /// what NORMAL/REDUCE of the paper require; tail reduction is used when
  /// producing the canonical reduced basis and as an ablation.
  bool tail_reduce = false;
  /// Accumulate through a geobucket (O(n log n) term movement) instead of
  /// rebuilding the flat term vector every step. Produces bit-identical
  /// normal forms and step counts (see geobucket.hpp); the naive path is kept
  /// for one release as the differential-test oracle and escape hatch.
  bool use_geobuckets = true;
  /// Safety valve for property tests; reduction of a polynomial by a finite
  /// set always terminates, so hitting this aborts.
  std::uint64_t max_steps = std::numeric_limits<std::uint64_t>::max();
  /// Coefficient ring (poly/coeff.hpp). kExact is the historical
  /// fraction-free integer path, bit-identical to before the seam existed.
  /// kZp cancels with field inverses instead: p' = p − c·hc(r)^{-1}·(m·r)
  /// mod prime, normal forms are monic, and reducer coefficients must
  /// already be canonical residues (engine bases over Zp always are).
  CoeffOptions coeff;
};

struct ReduceOutcome {
  Polynomial poly;          ///< canonical normal form (head-normal if !tail_reduce)
  std::uint64_t steps = 0;  ///< number of single reduction steps performed
};

/// One head-cancelling step of p by r. Requires r.hmono() | p.hmono().
Polynomial reduce_step(const PolyContext& ctx, const Polynomial& p, const Polynomial& r);

/// The Zp analogue: p − hc(p)·hc(r)^{-1}·(m·r) over Z/pZ. Both operands'
/// coefficients must be canonical residues. Requires r.hmono() | p.hmono().
Polynomial reduce_step_mod(const PolyContext& ctx, const Polynomial& p, const Polynomial& r,
                           const ZpField& field);

/// Full reduction of p by `set` (the paper's REDUCE(h, G)). Returns a
/// primitive normal form; zero iff p reduces to zero.
ReduceOutcome reduce_full(const PolyContext& ctx, Polynomial p, const ReducerSet& set,
                          const ReduceOptions& opts = {}, ReduceObserver* obs = nullptr);

/// True iff no element of `set` can reduce p's head (the paper's NORMAL(p,S)).
/// The zero polynomial is normal with respect to any set.
bool is_normal(const Polynomial& p, const ReducerSet& set);

/// Canonical *reduced* Gröbner basis: minimize (drop elements whose head is
/// divisible by another's), tail-reduce every element against the rest, make
/// primitive (exact) or monic (Zp), and sort by ascending head monomial. Two
/// engines computing a Gröbner basis of the same ideal agree exactly on this
/// form — the cross-engine oracle used throughout the tests.
///
/// The tail reduction depends on the field (DESIGN.md §21):
///   · Zp: one Macaulay matrix over the whole minimal basis (reduce_tails in
///     echelon.hpp); each row keeps its own head and is swept from the next
///     column on. Charges what the matrix kernel charges.
///   · exact: one reduce_full per element, against the whole minimal basis
///     minus that element (VectorReducerSet::exclude).
/// Both give the unique reduced basis.
///
/// REQUIRES the input to be a Gröbner basis: the minimization step drops any
/// element whose head another element's head divides, which only preserves
/// the ideal when reduction is confluent. For arbitrary generating sets use
/// interreduce().
std::vector<Polynomial> reduce_basis(const PolyContext& ctx, std::vector<Polynomial> basis,
                                     const CoeffOptions& coeff = {});

/// Ideal-preserving interreduction of an arbitrary generating set: each
/// element is fully (head+tail) reduced against the others until nothing
/// changes; elements reducing to zero are dropped. Safe on any input — every
/// step subtracts multiples of other generators — and terminates because
/// each replacement strictly shrinks its element in the monomial order.
std::vector<Polynomial> interreduce(const PolyContext& ctx, std::vector<Polynomial> gens,
                                    const CoeffOptions& coeff = {});

}  // namespace gbd
