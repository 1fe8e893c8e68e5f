// Wall-clock scaling of the real-threads backend (PR 3): runs the paper
// problems on ThreadMachine at 1/2/4/8 threads with the sharded-mailbox
// machine and the batched wire protocol, and reports (as BENCH_pr3.json with
// --out) wall time, speedup, message/byte totals and the mailbox contention
// counters.
//
// Real speedup needs real cores: the JSON records host_cores
// (std::thread::hardware_concurrency) next to every number, and each row
// also carries the deterministic SimMachine speedup at the same processor
// count as an architecture-level proxy that is meaningful even on a
// single-core host (virtual time overlaps communication exactly as the
// cost model says, independent of how the OS multiplexes threads).
//
// Modes:
//   thread_scaling [--out FILE] [--problems a,b,c] [--repeats N]
//       measure and print; with --out, also write the JSON to FILE.
//   thread_scaling --smoke [--threads N]
//       CI gate: one problem (trinks1) at N threads (default 2). Exits 0
//       with a note when the host has fewer cores than threads (the gate
//       would measure the scheduler, not the machine); otherwise fails
//       (exit 1) when wall speedup over the 1-thread run is < 1.0.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gb/parallel.hpp"
#include "problems/problems.hpp"

namespace gbd {
namespace {

struct Cell {
  int threads = 0;
  double wall_ms = 0;       // best of repeats, whole groebner_parallel_threads call
  double wall_speedup = 0;  // wall_ms(1 thread) / wall_ms
  double sim_speedup = 0;   // sim makespan(P=1) / sim makespan(P) — architecture proxy
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t notifies = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t max_drain_batch = 0;
};

struct Row {
  std::string name;
  std::vector<Cell> cells;
};

ParallelConfig scaled_config(int nprocs) {
  ParallelConfig cfg;
  cfg.nprocs = nprocs;
  cfg.wire.batch_invalidations = true;
  cfg.wire.batch_fetches = true;
  return cfg;
}

Cell measure_cell(const PolySystem& sys, int threads, int repeats, double wall_ms_1,
                  std::uint64_t sim_makespan_1) {
  Cell c;
  c.threads = threads;
  ParallelConfig cfg = scaled_config(threads);
  for (int i = 0; i < repeats; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    ParallelResult r = groebner_parallel_threads(sys, cfg);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i == 0 || ms < c.wall_ms) {
      c.wall_ms = ms;
      c.messages = r.machine.total(&ProcCommStats::messages_sent);
      c.bytes = r.machine.total(&ProcCommStats::bytes_sent);
      c.wakeups = c.notifies = c.lock_contended = c.max_drain_batch = 0;
      for (const MailboxStats& mb : r.machine.mailbox) {
        c.wakeups += mb.wakeups;
        c.notifies += mb.notifies;
        c.lock_contended += mb.lock_contended;
        if (mb.max_drain_batch > c.max_drain_batch) c.max_drain_batch = mb.max_drain_batch;
      }
    }
  }
  c.wall_speedup = c.wall_ms > 0 ? wall_ms_1 / c.wall_ms : 0.0;
  ParallelResult sim = groebner_parallel(sys, cfg);
  c.sim_speedup = sim.machine.makespan > 0
                      ? static_cast<double>(sim_makespan_1) /
                            static_cast<double>(sim.machine.makespan)
                      : 0.0;
  return c;
}

Row measure_row(const std::string& name, const std::vector<int>& threads, int repeats) {
  PolySystem sys = load_problem(name);
  Row row;
  row.name = name;
  // 1-thread baselines (wall and virtual) anchor both speedup columns.
  std::uint64_t sim_1 = groebner_parallel(sys, scaled_config(1)).machine.makespan;
  double wall_1 = 0;
  {
    ParallelConfig cfg = scaled_config(1);
    for (int i = 0; i < repeats; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      groebner_parallel_threads(sys, cfg);
      auto t1 = std::chrono::steady_clock::now();
      double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (i == 0 || ms < wall_1) wall_1 = ms;
    }
  }
  for (int t : threads) {
    row.cells.push_back(measure_cell(sys, t, repeats, wall_1, sim_1));
  }
  return row;
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"pr3_thread_scaling\",\n  \"host_cores\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"note\": \"wall speedups are meaningful only when host_cores >= threads; "
         "sim_speedup is the deterministic virtual-time proxy\",\n  \"problems\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"name\": \"" << rows[i].name << "\", \"runs\": [\n";
    for (std::size_t j = 0; j < rows[i].cells.size(); ++j) {
      const Cell& c = rows[i].cells[j];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "      {\"threads\": %d, \"wall_ms\": %.3f, \"wall_speedup\": %.3f, "
                    "\"sim_speedup\": %.3f, \"messages\": %llu, \"bytes\": %llu, "
                    "\"wakeups\": %llu, \"notifies\": %llu, \"lock_contended\": %llu, "
                    "\"max_drain_batch\": %llu}%s\n",
                    c.threads, c.wall_ms, c.wall_speedup, c.sim_speedup,
                    static_cast<unsigned long long>(c.messages),
                    static_cast<unsigned long long>(c.bytes),
                    static_cast<unsigned long long>(c.wakeups),
                    static_cast<unsigned long long>(c.notifies),
                    static_cast<unsigned long long>(c.lock_contended),
                    static_cast<unsigned long long>(c.max_drain_batch),
                    j + 1 < rows[i].cells.size() ? "," : "");
      out << buf;
    }
    out << "    ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int smoke(int threads) {
  unsigned cores = std::thread::hardware_concurrency();
  if (cores < static_cast<unsigned>(threads)) {
    std::printf("SKIP: host has %u core(s) < %d threads — wall speedup would measure the "
                "OS scheduler, not the machine; run on a multicore host for the gate\n",
                cores, threads);
    return 0;
  }
  PolySystem sys = load_problem("trinks1");
  Row row = measure_row("trinks1", {threads}, /*repeats=*/5);
  const Cell& c = row.cells.front();
  std::printf("trinks1 @ %d threads: wall %.2f ms, speedup %.2fx (sim proxy %.2fx), "
              "%llu msgs, %llu wakeups\n",
              threads, c.wall_ms, c.wall_speedup, c.sim_speedup,
              static_cast<unsigned long long>(c.messages),
              static_cast<unsigned long long>(c.wakeups));
  if (c.wall_speedup < 1.0) {
    std::fprintf(stderr, "FAIL: %d-thread wall speedup %.2f < 1.0\n", threads, c.wall_speedup);
    return 1;
  }
  return 0;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> problems = {"katsura4", "trinks2", "trinks1"};
  std::vector<int> threads = {1, 2, 4, 8};
  int repeats = 5;
  bool smoke_mode = false;
  int smoke_threads = 2;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--out") {
      out_path = next();
    } else if (a == "--problems") {
      problems = split_csv(next());
    } else if (a == "--repeats") {
      repeats = std::atoi(next().c_str());
    } else if (a == "--smoke") {
      smoke_mode = true;
    } else if (a == "--threads") {
      smoke_threads = std::atoi(next().c_str());
    } else {
      std::fprintf(stderr,
                   "usage: thread_scaling [--out FILE] [--problems a,b,c] [--repeats N]\n"
                   "       thread_scaling --smoke [--threads N]\n");
      return 2;
    }
  }

  if (smoke_mode) return smoke(smoke_threads);

  std::printf("host cores: %u\n", std::thread::hardware_concurrency());
  std::vector<Row> rows;
  for (const std::string& name : problems) {
    if (!has_problem(name)) {
      std::fprintf(stderr, "unknown problem %s\n", name.c_str());
      return 2;
    }
    Row row = measure_row(name, threads, repeats);
    for (const Cell& c : row.cells) {
      std::printf("%-10s P=%d  wall %8.2f ms  speedup %5.2fx  sim %5.2fx  msgs %7llu  "
                  "bytes %9llu  wakeups %6llu  contended %6llu  max_drain %4llu\n",
                  name.c_str(), c.threads, c.wall_ms, c.wall_speedup, c.sim_speedup,
                  static_cast<unsigned long long>(c.messages),
                  static_cast<unsigned long long>(c.bytes),
                  static_cast<unsigned long long>(c.wakeups),
                  static_cast<unsigned long long>(c.lock_contended),
                  static_cast<unsigned long long>(c.max_drain_batch));
    }
    rows.push_back(std::move(row));
  }
  if (out_path.empty()) return 0;
  write_json(rows, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace gbd

int main(int argc, char** argv) { return gbd::run(argc, argv); }
