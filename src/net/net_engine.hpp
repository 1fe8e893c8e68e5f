// Running GL-P across processes: SocketMachine + result aggregation.
//
// groebner_parallel_machine (gb/parallel.hpp) runs the unmodified engine on
// any Machine, but a SocketMachine hosts only this process's rank, so its
// ParallelResult is partial: the local rank's added polynomials, engine
// stats and violations, plus (at rank 0, via the exit handshake) the full
// per-rank machine comm stats. groebner_parallel_socket closes the gap with
// one post-run gather round: every rank serializes its contribution — its
// algebra GbStats, its BasisStats, invariant findings, and the polynomials it
// added (id + body; inputs are preloaded everywhere and excluded) — and
// rank 0 merges the blobs into the same full ParallelResult a single-process
// run would produce: union basis sorted by id, per-rank GbStats, merged
// algebra and basis totals (max_resident as a max). Format version 2 carries
// only the counters each blob's owner keeps (DESIGN.md §22); a blob of any
// other version aborts the merge.
//
// Non-root ranks return their local partial result (is_root() tells the
// caller whose result is authoritative). cfg.record_trace is not supported
// across processes (the replay trace stays local) and is checked off.
#pragma once

#include "gb/parallel.hpp"
#include "net/socket_machine.hpp"

namespace gbd {

/// Run GL-P on `machine` (already configured with rank/nprocs/endpoints) and
/// merge the full result onto rank 0. cfg.nprocs must equal machine.nprocs().
/// Every rank of the job must call this; throws NetError on peer failure.
ParallelResult groebner_parallel_socket(SocketMachine& machine, const PolySystem& sys,
                                        const ParallelConfig& cfg);

/// Serialization of one rank's contribution (exposed for tests).
/// `input_count` = number of nonzero input polynomials: ids make_poly_id(0,
/// seq < input_count) are preloaded inputs, excluded from the blob.
std::vector<std::uint8_t> encode_rank_contribution(int rank, std::size_t input_count,
                                                   const ParallelResult& partial);
void merge_rank_contribution(ParallelResult* total, const std::vector<std::uint8_t>& blob);

}  // namespace gbd
