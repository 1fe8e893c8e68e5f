// Shared configuration, statistics and result types for all Gröbner engines.
//
// Five engines compute Gröbner bases in this library (sequential, transition
// -axiom G-1, distributed GL-P, shared-memory, pipeline). They share the
// option set and report the same algebra statistics so the benchmark
// harnesses can compare them exhibit-for-exhibit against the paper.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "poly/coeff.hpp"
#include "poly/polynomial.hpp"

namespace gbd {

/// Pair selection strategies for the global pair queue. The paper uses the
/// "traditional" (normal) strategy: pick the pair minimizing
/// HMONO(f)·HMONO(g)/HCF — the lcm of the heads (footnote 2).
enum class Selection : std::uint8_t {
  kNormal,  ///< minimal lcm under the monomial order (paper's choice)
  kDegree,  ///< minimal total degree of the lcm, ties by lcm order
  kFifo,    ///< creation order (no heuristic) — ablation baseline
  kSugar,   ///< minimal sugar degree (Giovini et al. '91), ties by lcm —
            ///< one of the "wide spectrum" of heuristics §7 discusses.
            ///< Sequential engine only: GL-P's pairs carry no sugar over
            ///< the wire, and the transition, shared-memory and pipeline
            ///< engines keep the paper's selections.
};

const char* selection_name(Selection s);

struct GbConfig {
  /// Buchberger's first criterion: a pair with coprime head monomials always
  /// reduces to zero and is pruned without reduction.
  bool coprime_criterion = true;
  /// Buchberger's second (chain) criterion: pair (f,g) is pruned when some h
  /// divides lcm(f,g) and both (f,h) and (g,h) are already treated.
  bool chain_criterion = true;
  /// Gebauer–Möller M/F/B1 filtering of the new pairs at basis-augment time
  /// (order-independent, so also applied by the parallel adder).
  bool gm_update = true;
  /// Tail-reduce polynomials before adding them to the basis (ablation; the
  /// paper discusses head-only vs full reduction as an open heuristic).
  /// Sequential engine only; every other engine rejects it.
  bool tail_reduce = false;
  /// Interreduce the input generators before starting ("whether
  /// interreduction helps or not" is §7's open question). Sequential engine
  /// only; every other engine rejects it.
  bool interreduce_input = false;
  /// Use the geobucket accumulator inside reduce_full (see reduce.hpp).
  /// Normal forms and step counts are identical either way; the switch
  /// exists for the baseline benchmark and as an escape hatch.
  bool use_geobuckets = true;
  Selection selection = Selection::kNormal;
  /// Coefficient ring (poly/coeff.hpp): kExact is the historical
  /// fraction-free path over Q, bit-identical to before the seam existed;
  /// kZp runs the whole engine over Z/pZ with monic canonical forms.
  /// Honored by the sequential and GL-P engines (Sim/Thread/Socket); the
  /// transition, pipeline and shared-memory engines are exact-only and
  /// abort on a Zp config.
  CoeffOptions coeff;
  /// Batched F4-style matrix reduction (poly/symbolic+matrix+echelon):
  /// select every queued pair of the currently minimal lcm degree (capped by
  /// matrix_batch_max), reduce their s-polynomials as one Macaulay matrix,
  /// and add all surviving rows. The per-poly geobucket path stays the
  /// bit-exact oracle; both paths yield the same reduced basis. Honored by
  /// the sequential engine and the GL-P engines (and, through them, the
  /// multi-modular driver's per-prime jobs); the transition, shared-memory
  /// and pipeline engines reject it.
  bool matrix_reduce = false;
  /// Cap on pairs per matrix round (matrix_reduce only); at least 1, or the
  /// sequential and GL-P engines abort.
  std::size_t matrix_batch_max = 64;
  /// Abort knob for tests; a correct run never hits it. Every engine aborts
  /// once it has formed more s-polynomials than this; under GL-P each
  /// processor checks its own count, so a run may form up to P times as
  /// many in all.
  std::uint64_t max_spolys = std::numeric_limits<std::uint64_t>::max();
  /// Cooperative cancellation seam (the serve daemon's deadline/cancel path):
  /// when non-null and the pointee becomes true, the engine stops at the next
  /// pair boundary and returns with GbResult::aborted set — the partial basis
  /// is NOT a Gröbner basis and must be discarded by the caller. Honored by
  /// the sequential engine (both per-poly and matrix paths); every other
  /// engine runs to completion and rejects it.
  const std::atomic<bool>* stop = nullptr;
};

/// The algebra counters the paper reports (Tables 1-2). Communication has
/// its own owners (DESIGN.md §22): messages and bytes in the machine's
/// ProcCommStats, bodies moved and peak residency in the basis store's
/// BasisStats, lock wait in the lock (or SharedMemoryResult), and ring
/// traffic in PipelineResult.
struct GbStats {
  std::uint64_t pairs_created = 0;
  std::uint64_t pairs_pruned_coprime = 0;
  std::uint64_t pairs_pruned_chain = 0;
  std::uint64_t spolys_computed = 0;
  std::uint64_t reductions_to_zero = 0;  ///< Table 2 "Zeroed"
  std::uint64_t basis_added = 0;         ///< Table 2 "Added" (beyond the input)
  std::uint64_t reduction_steps = 0;
  std::uint64_t max_step_cost = 0;  ///< Table 1 "Max Single Reduction Step"
  std::uint64_t work_units = 0;     ///< total charged term-operations

  void merge(const GbStats& other);
  std::string summary() const;
};

/// The transition, shared-memory and pipeline engines are exact-only, reduce
/// per polynomial, head-only, never select by sugar and run to
/// completion: abort on a GbConfig field they have no path for (Zp,
/// matrix_reduce, tail_reduce, interreduce_input, kSugar, stop) instead of
/// silently ignoring it.
void check_baseline_config(const GbConfig& gb);

struct GbResult {
  /// The raw basis G on completion (input ∪ added, order of addition).
  std::vector<Polynomial> basis;
  GbStats stats;
  /// Engine running time: charged work units for sequential engines,
  /// virtual makespan for simulated parallel engines.
  std::uint64_t elapsed_units = 0;
  /// True when GbConfig::stop cut the run short: `basis` is a partial state,
  /// not a Gröbner basis, and must not be used as one.
  bool aborted = false;
};

}  // namespace gbd
