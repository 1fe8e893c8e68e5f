#include "net/net_engine.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace gbd {

namespace {

constexpr std::uint8_t kContribVersion = 2;

void write_gb_stats(Writer& w, const GbStats& s) {
  w.u64(s.pairs_created);
  w.u64(s.pairs_pruned_coprime);
  w.u64(s.pairs_pruned_chain);
  w.u64(s.spolys_computed);
  w.u64(s.reductions_to_zero);
  w.u64(s.basis_added);
  w.u64(s.reduction_steps);
  w.u64(s.max_step_cost);
  w.u64(s.work_units);
}

GbStats read_gb_stats(Reader& r) {
  GbStats s;
  s.pairs_created = r.u64();
  s.pairs_pruned_coprime = r.u64();
  s.pairs_pruned_chain = r.u64();
  s.spolys_computed = r.u64();
  s.reductions_to_zero = r.u64();
  s.basis_added = r.u64();
  s.reduction_steps = r.u64();
  s.max_step_cost = r.u64();
  s.work_units = r.u64();
  return s;
}

void write_basis_stats(Writer& w, const BasisStats& s) {
  w.u64(s.invalidations_sent);
  w.u64(s.fetches_sent);
  w.u64(s.bodies_received);
  w.u64(s.bodies_served);
  w.u64(s.bodies_forwarded);
  w.u64(s.evictions);
  w.u64(s.max_resident);
  w.u64(s.invalidation_batches);
  w.u64(s.fetch_batches);
  w.u64(s.body_batches);
}

BasisStats read_basis_stats(Reader& r) {
  BasisStats s;
  s.invalidations_sent = r.u64();
  s.fetches_sent = r.u64();
  s.bodies_received = r.u64();
  s.bodies_served = r.u64();
  s.bodies_forwarded = r.u64();
  s.evictions = r.u64();
  s.max_resident = static_cast<std::size_t>(r.u64());
  s.invalidation_batches = r.u64();
  s.fetch_batches = r.u64();
  s.body_batches = r.u64();
  return s;
}

}  // namespace

std::vector<std::uint8_t> encode_rank_contribution(int rank, std::size_t input_count,
                                                   const ParallelResult& partial) {
  Writer w;
  w.u8(kContribVersion);
  w.u32(static_cast<std::uint32_t>(rank));
  write_gb_stats(w, partial.per_proc[static_cast<std::size_t>(rank)]);
  write_basis_stats(w, partial.wire);
  w.u64(partial.invariant_sweeps);
  w.u32(static_cast<std::uint32_t>(partial.violations.size()));
  for (const std::string& v : partial.violations) w.str(v);
  // Polynomials this rank added (inputs are preloaded everywhere; skip them).
  std::uint32_t added = 0;
  for (const auto& [id, poly] : partial.basis_ids) {
    if (poly_id_owner(id) == 0 && poly_id_seq(id) < input_count) continue;
    added += 1;
  }
  w.u32(added);
  for (const auto& [id, poly] : partial.basis_ids) {
    if (poly_id_owner(id) == 0 && poly_id_seq(id) < input_count) continue;
    w.u64(id);
    poly.write(w);
  }
  return w.take();
}

void merge_rank_contribution(ParallelResult* total, const std::vector<std::uint8_t>& blob) {
  Reader r(blob);
  GBD_CHECK_MSG(r.u8() == kContribVersion, "rank contribution version mismatch");
  std::uint32_t rank = r.u32();
  GBD_CHECK(rank < total->per_proc.size());
  GbStats stats = read_gb_stats(r);
  total->per_proc[rank] = stats;
  total->stats.merge(stats);
  total->wire.merge(read_basis_stats(r));
  total->invariant_sweeps += r.u64();
  std::uint32_t nviol = r.u32();
  for (std::uint32_t i = 0; i < nviol; ++i) total->violations.push_back(r.str());
  std::uint32_t nadded = r.u32();
  for (std::uint32_t i = 0; i < nadded; ++i) {
    PolyId id = r.u64();
    total->basis_ids.emplace_back(id, Polynomial::read(r));
  }
}

ParallelResult groebner_parallel_socket(SocketMachine& machine, const PolySystem& sys,
                                        const ParallelConfig& cfg) {
  GBD_CHECK_MSG(!cfg.record_trace, "record_trace is not supported across processes");
  ParallelResult res = groebner_parallel_machine(machine, sys, cfg);

  std::size_t input_count = 0;
  for (const auto& p : sys.polys) {
    if (!p.is_zero()) input_count += 1;
  }
  int rank = machine.rank();
  std::vector<std::vector<std::uint8_t>> blobs =
      machine.gather(encode_rank_contribution(rank, input_count, res));
  if (rank != 0) return res;  // partial; rank 0 holds the authoritative result

  for (int r = 1; r < machine.nprocs(); ++r) {
    merge_rank_contribution(&res, blobs[static_cast<std::size_t>(r)]);
  }
  std::sort(res.basis_ids.begin(), res.basis_ids.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  res.basis.clear();
  for (const auto& [id, poly] : res.basis_ids) res.basis.push_back(poly);
  return res;
}

}  // namespace gbd
