#include "gb/engine_common.hpp"

#include <sstream>

#include "support/check.hpp"

namespace gbd {

const char* selection_name(Selection s) {
  switch (s) {
    case Selection::kNormal:
      return "normal";
    case Selection::kDegree:
      return "degree";
    case Selection::kFifo:
      return "fifo";
    case Selection::kSugar:
      return "sugar";
  }
  return "?";
}

void check_baseline_config(const GbConfig& gb) {
  GBD_CHECK_MSG(!gb.coeff.is_zp(),
                "this engine is exact-only; use the sequential or GL-P engines for Zp");
  GBD_CHECK_MSG(!gb.matrix_reduce, "this engine does not support matrix_reduce");
  GBD_CHECK_MSG(!gb.tail_reduce, "this engine does not support tail_reduce");
  GBD_CHECK_MSG(!gb.interreduce_input, "this engine does not support interreduce_input");
  GBD_CHECK_MSG(gb.selection != Selection::kSugar,
                "this engine does not support sugar selection (sequential engine only)");
  GBD_CHECK_MSG(gb.stop == nullptr, "this engine runs to completion and does not support stop");
}

void GbStats::merge(const GbStats& other) {
  pairs_created += other.pairs_created;
  pairs_pruned_coprime += other.pairs_pruned_coprime;
  pairs_pruned_chain += other.pairs_pruned_chain;
  spolys_computed += other.spolys_computed;
  reductions_to_zero += other.reductions_to_zero;
  basis_added += other.basis_added;
  reduction_steps += other.reduction_steps;
  max_step_cost = std::max(max_step_cost, other.max_step_cost);
  work_units += other.work_units;
}

std::string GbStats::summary() const {
  std::ostringstream os;
  os << "pairs=" << pairs_created << " pruned(coprime)=" << pairs_pruned_coprime
     << " pruned(chain)=" << pairs_pruned_chain << " spolys=" << spolys_computed
     << " zeroed=" << reductions_to_zero << " added=" << basis_added
     << " steps=" << reduction_steps << " work=" << work_units;
  return os.str();
}

}  // namespace gbd
