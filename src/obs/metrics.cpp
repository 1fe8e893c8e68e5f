#include "obs/metrics.hpp"

#include "machine/machine.hpp"
#include "support/check.hpp"

namespace gbd {

std::uint64_t MetricsSnapshot::total(const std::string& name) const {
  const std::vector<std::uint64_t>* s = find(name);
  if (s == nullptr) return 0;
  std::uint64_t t = 0;
  for (std::uint64_t v : *s) t += v;
  return t;
}

const std::vector<std::uint64_t>* MetricsSnapshot::find(const std::string& name) const {
  auto it = series.find(name);
  return it == series.end() ? nullptr : &it->second;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"nprocs\":" + std::to_string(nprocs) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, values] : series) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(name);  // metric names are fixed identifiers; no escaping needed
    out.append("\":{\"per_proc\":[");
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append(std::to_string(values[i]));
      total += values[i];
    }
    out.append("],\"total\":");
    out.append(std::to_string(total));
    out.push_back('}');
  }
  out.append("}}");
  return out;
}

MetricsRegistry::MetricsRegistry(int nprocs) : nprocs_(nprocs) { GBD_CHECK(nprocs >= 1); }

void MetricsRegistry::add(const std::string& name, int proc, std::uint64_t v) {
  GBD_CHECK(proc >= 0 && proc < nprocs_);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = series_.try_emplace(name);
  if (inserted) it->second.assign(static_cast<std::size_t>(nprocs_), 0);
  it->second[static_cast<std::size_t>(proc)] += v;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.nprocs = nprocs_;
  std::lock_guard<std::mutex> lock(mu_);
  s.series = series_;
  return s;
}

KernelBaseline kernel_baseline() {
  return KernelBaseline{find_reducer_stats(), geobucket_stats(), matrix_kernel_stats()};
}

void collect_kernel_delta(MetricsRegistry& reg, int proc, const KernelBaseline& base) {
  const FindReducerStats& fr = find_reducer_stats();
  reg.add("kernel.find_reducer.calls", proc, fr.calls - base.find_reducer.calls);
  reg.add("kernel.find_reducer.probes", proc, fr.probes - base.find_reducer.probes);
  reg.add("kernel.find_reducer.mask_rejects", proc,
          fr.mask_rejects - base.find_reducer.mask_rejects);
  reg.add("kernel.find_reducer.divides_calls", proc,
          fr.divides_calls - base.find_reducer.divides_calls);
  const GeobucketStats& gb = geobucket_stats();
  reg.add("kernel.geobucket.axpys", proc, gb.axpys - base.geobucket.axpys);
  reg.add("kernel.geobucket.extracts", proc, gb.extracts - base.geobucket.extracts);
  reg.add("kernel.geobucket.normalizations", proc,
          gb.normalizations - base.geobucket.normalizations);
  const MatrixKernelStats& mk = matrix_kernel_stats();
  reg.add("kernel.matrix.batches", proc, mk.batches - base.matrix.batches);
  reg.add("kernel.matrix.frame_cols", proc, mk.frame_cols - base.matrix.frame_cols);
  reg.add("kernel.matrix.pivot_rows", proc, mk.pivot_rows - base.matrix.pivot_rows);
  reg.add("kernel.matrix.pivot_cells", proc, mk.pivot_cells - base.matrix.pivot_cells);
  reg.add("kernel.matrix.work_rows", proc, mk.work_rows - base.matrix.work_rows);
  reg.add("kernel.matrix.work_cells", proc, mk.work_cells - base.matrix.work_cells);
  reg.add("kernel.matrix.rows_zeroed", proc, mk.rows_zeroed - base.matrix.rows_zeroed);
  reg.add("kernel.matrix.axpys", proc, mk.axpys - base.matrix.axpys);
  reg.add("kernel.matrix.axpy_cells", proc, mk.axpy_cells - base.matrix.axpy_cells);
  reg.add("kernel.matrix.merge_cells", proc, mk.merge_cells - base.matrix.merge_cells);
  reg.add("kernel.matrix.dense_cells", proc, mk.dense_cells - base.matrix.dense_cells);
  reg.add("kernel.matrix.pair_rows", proc, mk.pair_rows - base.matrix.pair_rows);
  reg.add("kernel.matrix.pair_halves_shared", proc,
          mk.pair_halves_shared - base.matrix.pair_halves_shared);
  reg.add("kernel.matrix.memo_hits", proc, mk.memo_hits - base.matrix.memo_hits);
  reg.add("kernel.matrix.memo_misses", proc, mk.memo_misses - base.matrix.memo_misses);
  reg.add("kernel.matrix.product_cache_hits", proc,
          mk.product_cache_hits - base.matrix.product_cache_hits);
  reg.add("kernel.matrix.table_monomials", proc,
          mk.table_monomials - base.matrix.table_monomials);
  reg.add("kernel.matrix.pivot_cache_builds", proc,
          mk.pivot_cache_builds - base.matrix.pivot_cache_builds);
  reg.add("kernel.matrix.pivot_cache_hits", proc,
          mk.pivot_cache_hits - base.matrix.pivot_cache_hits);
  reg.add("kernel.simd.rows", proc, mk.simd_rows - base.matrix.simd_rows);
  reg.add("kernel.simd.scalar_rows", proc, mk.scalar_rows - base.matrix.scalar_rows);
  reg.add("kernel.simd.cells", proc, mk.simd_cells - base.matrix.simd_cells);
  reg.add("kernel.simd.passes", proc, mk.simd_passes - base.matrix.simd_passes);
  reg.add("kernel.simd.sweep_ns", proc, mk.sweep_ns - base.matrix.sweep_ns);
  reg.add("kernel.matrix.interreduce_ns", proc, mk.interreduce_ns - base.matrix.interreduce_ns);
}

void collect_machine_stats(MetricsRegistry& reg, const MachineStats& ms) {
  for (std::size_t p = 0; p < ms.per_proc.size(); ++p) {
    int i = static_cast<int>(p);
    const ProcCommStats& c = ms.per_proc[p];
    reg.add("comm.messages_sent", i, c.messages_sent);
    reg.add("comm.bytes_sent", i, c.bytes_sent);
    reg.add("comm.messages_received", i, c.messages_received);
    reg.add("comm.idle_units", i, c.idle_units);
  }
  if (ms.has_mailbox_stats) {
    for (std::size_t p = 0; p < ms.mailbox.size(); ++p) {
      int i = static_cast<int>(p);
      const MailboxStats& m = ms.mailbox[p];
      reg.add("mailbox.enqueues", i, m.enqueues);
      reg.add("mailbox.notifies", i, m.notifies);
      reg.add("mailbox.lock_contended", i, m.lock_contended);
      reg.add("mailbox.cv_waits", i, m.cv_waits);
      reg.add("mailbox.wakeups", i, m.wakeups);
      reg.add("mailbox.drains", i, m.drains);
      reg.add("mailbox.drained_messages", i, m.drained_messages);
      reg.add("mailbox.max_drain_batch", i, m.max_drain_batch);
    }
  }
  reg.add("machine.makespan", 0, ms.makespan);
}

}  // namespace gbd
