#include "poly/divmask.hpp"

namespace gbd {

DivMaskRuler::DivMaskRuler(std::size_t nvars) : bits_(nvars, 0), offset_(nvars, 0) {
  if (nvars == 0) return;
  std::size_t covered = nvars < 64 ? nvars : 64;  // variables past 64 get no bits
  std::size_t base = 64 / covered;
  std::size_t spare = 64 % covered;
  std::size_t at = 0;
  for (std::size_t v = 0; v < covered; ++v) {
    std::size_t w = base + (v < spare ? 1 : 0);
    bits_[v] = static_cast<std::uint8_t>(w);
    offset_[v] = static_cast<std::uint8_t>(at);
    at += w;
  }
}

std::uint64_t DivMaskRuler::mask(const Monomial& m) const {
  std::uint64_t out = 0;
  const std::uint32_t* exps = m.exps();
  for (std::size_t v = 0; v < bits_.size(); ++v) {
    std::uint32_t b = bits_[v];
    if (b == 0) continue;
    std::uint32_t e = exps[v];
    std::uint32_t ones = e < b ? e : b;
    // `ones` low ones of this variable's field: thresholds 1..ones are met.
    out |= ((std::uint64_t{1} << ones) - 1) << offset_[v];
  }
  return out;
}

namespace {
thread_local FindReducerStats g_find_stats;
}  // namespace

FindReducerStats& find_reducer_stats() { return g_find_stats; }
void reset_find_reducer_stats() { g_find_stats = FindReducerStats{}; }

}  // namespace gbd
