// Observability layer (PR 4): the per-processor event tracer, the unified
// metrics registry, and the breakdown analyzer.
//
//   · unit coverage of ProcTracer's ring/stack mechanics and the binary
//     trace codec;
//   · determinism: on the simulator the trace is a pure function of the
//     config — same problem, seed and chaos schedule give byte-identical
//     encodings;
//   · well-formedness: even under chaos (jitter/reorder/duplication) every
//     processor's span stream obeys the stack discipline check_well_formed
//     verifies;
//   · the analyzer's buckets partition [0, makespan] (rows sum to 100%);
//   · tracing must observe, not perturb: attaching a tracer leaves the
//     virtual makespan and the charged algebra work essentially unchanged;
//   · Perfetto export emits structurally sound trace_event JSON.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bigint/zp.hpp"
#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "machine/chaos.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "problems/problems.hpp"

namespace gbd {
namespace {

// --- ProcTracer mechanics ----------------------------------------------------

TEST(ProcTracerTest, SpansRecordInCompletionOrder) {
  ProcTracer t;
  t.begin(Ev::kTask, 10, 1, 2);
  t.begin(Ev::kReduce, 20);
  t.end(Ev::kReduce, 30, /*result=*/7);
  t.end(Ev::kTask, 50);
  ASSERT_EQ(t.open_spans(), 0u);
  std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 2u);
  // Child closes first, so it is recorded first.
  EXPECT_EQ(evs[0].kind, Ev::kReduce);
  EXPECT_EQ(evs[0].t0, 20u);
  EXPECT_EQ(evs[0].t1, 30u);
  EXPECT_EQ(evs[0].b, 7u);  // end() result overrides begin's b
  EXPECT_EQ(evs[1].kind, Ev::kTask);
  EXPECT_EQ(evs[1].t0, 10u);
  EXPECT_EQ(evs[1].t1, 50u);
  EXPECT_EQ(evs[1].a, 1u);
  EXPECT_EQ(evs[1].b, 2u);
}

TEST(ProcTracerTest, RingDropsOldestAndCountsDrops) {
  ProcTracer t(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) t.instant(Ev::kSteal, i, i);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest surviving first: instants 6..9.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].a, 6 + i);
}

TEST(ProcTracerTest, AsyncAndInstantShapes) {
  ProcTracer t;
  t.async_begin(Ev::kHold, 5, /*id=*/42, /*b=*/9);
  t.instant(Ev::kStealGrant, 7, 3);
  t.async_end(Ev::kHold, 11, 42);
  std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].phase, Ph::kAsyncBegin);
  EXPECT_EQ(evs[1].phase, Ph::kInstant);
  EXPECT_EQ(evs[2].phase, Ph::kAsyncEnd);
  EXPECT_EQ(evs[2].a, 42u);
}

TEST(TraceDataTest, EncodeDecodeRoundTrip) {
  Tracer tracer;
  tracer.start_run(2, ClockDomain::kSteadyNs);
  tracer.at(0).begin(Ev::kTask, 1, 8, 9);
  tracer.at(0).end(Ev::kTask, 4);
  tracer.at(1).async_begin(Ev::kLockWait, 2, 1);
  tracer.at(1).async_end(Ev::kLockWait, 3, 1);
  tracer.finish_run(100);
  TraceData a = tracer.data();
  TraceData b = TraceData::decode(a.encode());
  EXPECT_EQ(b.domain, ClockDomain::kSteadyNs);
  EXPECT_EQ(b.makespan, 100u);
  ASSERT_EQ(b.procs.size(), 2u);
  ASSERT_EQ(b.procs[0].events.size(), 1u);
  ASSERT_EQ(b.procs[1].events.size(), 2u);
  EXPECT_EQ(b.procs[0].events[0].a, 8u);
  EXPECT_EQ(b.procs[0].events[0].b, 9u);
  EXPECT_EQ(b.procs[1].events[1].phase, Ph::kAsyncEnd);
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(ReportTest, FlagsUnclosedAndMalformedSpans) {
  Tracer tracer;
  tracer.start_run(1, ClockDomain::kVirtual);
  tracer.at(0).begin(Ev::kTask, 1);
  tracer.finish_run(10);  // span never closed
  EXPECT_NE(check_well_formed(tracer.data()), "");

  Tracer ok;
  ok.start_run(1, ClockDomain::kVirtual);
  ok.at(0).complete(Ev::kHandler, 2, 5, 1, 0);
  ok.finish_run(10);
  EXPECT_EQ(check_well_formed(ok.data()), "");
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsTest, RegistryZeroFillsAndAccumulates) {
  MetricsRegistry reg(4);
  reg.add("x.count", 2, 5);
  reg.add("x.count", 2, 3);
  reg.add("y.count", 0, 1);
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.nprocs, 4);
  const std::vector<std::uint64_t>* x = snap.find("x.count");
  ASSERT_NE(x, nullptr);
  ASSERT_EQ(x->size(), 4u);
  EXPECT_EQ((*x)[2], 8u);
  EXPECT_EQ((*x)[0], 0u);
  EXPECT_EQ(snap.total("x.count"), 8u);
  EXPECT_EQ(snap.total("missing"), 0u);
  EXPECT_EQ(snap.find("missing"), nullptr);
  std::string json = snap.to_json();
  EXPECT_NE(json.find("\"nprocs\":4"), std::string::npos);
  EXPECT_NE(json.find("\"x.count\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":8"), std::string::npos);
}

// --- end-to-end on the simulator --------------------------------------------

ParallelConfig traced_config(int nprocs, Tracer* tracer, std::uint64_t chaos_seed) {
  ParallelConfig cfg;
  cfg.nprocs = nprocs;
  cfg.tracer = tracer;
  if (chaos_seed != 0) cfg.chaos = ChaosConfig::intensity(2, chaos_seed);
  return cfg;
}

TEST(ObsEndToEndTest, SimTraceIsDeterministic) {
  PolySystem sys = load_problem("katsura4");
  std::vector<std::uint8_t> first;
  for (int run = 0; run < 2; ++run) {
    Tracer tracer;
    ParallelResult res = groebner_parallel(sys, traced_config(4, &tracer, /*chaos=*/77));
    ASSERT_GT(res.basis.size(), 0u);
    std::vector<std::uint8_t> bytes = tracer.data().encode();
    if (run == 0) {
      first = std::move(bytes);
    } else {
      EXPECT_EQ(first, bytes) << "same config must give a byte-identical trace";
    }
  }
}

TEST(ObsEndToEndTest, TraceIsWellFormedUnderChaos) {
  PolySystem sys = load_problem("katsura4");
  for (std::uint64_t chaos_seed : {0ull, 13ull, 99ull}) {
    Tracer tracer;
    groebner_parallel(sys, traced_config(4, &tracer, chaos_seed));
    TraceData data = tracer.data();
    EXPECT_EQ(check_well_formed(data), "") << "chaos seed " << chaos_seed;
    std::uint64_t events = 0;
    for (const auto& p : data.procs) events += p.events.size();
    EXPECT_GT(events, 0u);
  }
}

TEST(ObsEndToEndTest, BreakdownPartitionsTheMakespan) {
  PolySystem sys = load_problem("katsura4");
  Tracer tracer;
  groebner_parallel(sys, traced_config(4, &tracer, /*chaos=*/0));
  BreakdownReport report = analyze_trace(tracer.data());
  ASSERT_EQ(report.procs.size(), 4u);
  ASSERT_GT(report.makespan, 0u);
  EXPECT_EQ(report.dropped_events, 0u);
  for (std::size_t p = 0; p < report.procs.size(); ++p) {
    const ProcBreakdown& b = report.procs[p];
    double sum = static_cast<double>(b.reduce + b.comm + b.other + b.hold + b.idle);
    double pct = 100.0 * sum / static_cast<double>(report.makespan);
    EXPECT_NEAR(pct, 100.0, 1.0) << "proc " << p;
  }
  EXPECT_GE(report.load_imbalance, 1.0);
  EXPECT_LE(report.critical_path, report.makespan);
}

TEST(ObsEndToEndTest, TracingDoesNotPerturbTheRun) {
  // The tracer observes: virtual makespan and the engine's charged work must
  // be unchanged by attaching it (the simulator is deterministic, so any
  // drift is instrumentation charging time it shouldn't).
  PolySystem sys = load_problem("katsura4");
  ParallelResult plain = groebner_parallel(sys, traced_config(4, nullptr, 0));
  Tracer tracer;
  ParallelResult traced = groebner_parallel(sys, traced_config(4, &tracer, 0));
  EXPECT_EQ(plain.machine.makespan, traced.machine.makespan);
  EXPECT_EQ(plain.stats.work_units, traced.stats.work_units);
  EXPECT_EQ(plain.stats.reduction_steps, traced.stats.reduction_steps);
}

TEST(ObsEndToEndTest, RingOverflowIsCountedNotFatal) {
  PolySystem sys = load_problem("katsura4");
  Tracer tracer(TracerConfig{/*ring_capacity=*/16});
  groebner_parallel(sys, traced_config(4, &tracer, 0));
  TraceData data = tracer.data();
  std::uint64_t dropped = 0;
  for (const auto& p : data.procs) {
    EXPECT_LE(p.events.size(), 16u);
    dropped += p.dropped;
  }
  EXPECT_GT(dropped, 0u);
  BreakdownReport report = analyze_trace(data);  // must not crash on a truncated trace
  EXPECT_EQ(report.dropped_events, dropped);
}

TEST(ObsEndToEndTest, MetricsCoverEveryLayer) {
  PolySystem sys = load_problem("katsura4");
  MetricsRegistry reg(4);
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.metrics = &reg;
  groebner_parallel(sys, cfg);
  MetricsSnapshot snap = reg.snapshot();
  for (const char* name :
       {"comm.messages_sent", "comm.messages_received", "comm.idle_units", "mailbox.enqueues",
        "mailbox.drained_messages", "machine.makespan", "gb.pairs_created", "gb.spolys_computed",
        "gb.basis_added", "gb.reduction_steps", "gb.work_units", "basis.invalidations_sent",
        "basis.bodies_received", "taskq.enqueued", "taskq.dequeued",
        "kernel.find_reducer.calls", "kernel.find_reducer.probes"}) {
    EXPECT_GT(snap.total(name), 0u) << name;
  }
  // GL-P reduces one reduce_step at a time (the paper's minimum grain), so
  // geobucket counters are legitimately zero — but the series must exist:
  // every backend and engine reports the same shape.
  EXPECT_NE(snap.find("kernel.geobucket.axpys"), nullptr);
  // The accounting identity holds through the registry too.
  EXPECT_EQ(snap.total("gb.spolys_computed"),
            snap.total("gb.reductions_to_zero") + snap.total("gb.basis_added"));
  // Every series has one slot per processor.
  for (const auto& [name, vals] : snap.series) {
    EXPECT_EQ(vals.size(), 4u) << name;
  }
}

TEST(ObsEndToEndTest, MatrixRunTableAndStageTwoSeries) {
  // A sequential Zp matrix run keeps one monomial table: its interned
  // monomials, cached-product walks, s-pair rows and stage-2 time are
  // windowed into kernel.matrix.* like every other kernel counter.
  PolySystem sys = load_problem("katsura4");
  GbConfig cfg;
  cfg.coeff = CoeffOptions::zp(prev_prime_u64(std::uint64_t{1} << 31));
  cfg.matrix_reduce = true;
  MetricsRegistry reg(1);
  KernelBaseline base = kernel_baseline();
  SequentialResult res = groebner_sequential(sys, cfg);
  collect_kernel_delta(reg, 0, base);
  MetricsSnapshot snap = reg.snapshot();
  for (const char* name :
       {"kernel.matrix.table_monomials", "kernel.matrix.product_cache_hits",
        "kernel.matrix.interreduce_ns", "kernel.simd.sweep_ns", "kernel.matrix.pivot_cells",
        "kernel.matrix.work_cells", "kernel.matrix.axpy_cells", "kernel.matrix.merge_cells"}) {
    EXPECT_GT(snap.total(name), 0u) << name;
  }
  // Every s-pair of a sequential Zp matrix run becomes a pair row.
  EXPECT_GT(res.stats.spolys_computed, 0u);
  EXPECT_EQ(snap.total("kernel.matrix.pair_rows"), res.stats.spolys_computed);
  EXPECT_NE(snap.find("kernel.matrix.pair_halves_shared"), nullptr);
}

TEST(ObsEndToEndTest, PerfettoExportIsStructurallySound) {
  PolySystem sys = load_problem("katsura4");
  Tracer tracer;
  groebner_parallel(sys, traced_config(2, &tracer, 0));
  std::string json = trace_to_perfetto_json(tracer.data());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("\"reduce\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsEndToEndTest, ThreadBackendProducesAnalyzableTrace) {
  PolySystem sys = load_problem("katsura4");
  Tracer tracer;
  ParallelConfig cfg;
  cfg.nprocs = 4;
  cfg.tracer = &tracer;
  groebner_parallel_threads(sys, cfg);
  TraceData data = tracer.data();
  EXPECT_EQ(data.domain, ClockDomain::kSteadyNs);
  EXPECT_EQ(check_well_formed(data), "");
  BreakdownReport report = analyze_trace(data);
  ASSERT_EQ(report.procs.size(), 4u);
  std::string table = render_breakdown(report);
  EXPECT_NE(table.find("proc"), std::string::npos);
  EXPECT_NE(table.find("reduce%"), std::string::npos);
}

}  // namespace
}  // namespace gbd
