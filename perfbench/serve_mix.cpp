// serve_mix: an open loop against an in-process JobServer (1 I/O thread,
// 2 workers). Jobs are inline system text sent on a fixed schedule at a
// ladder of offered rates. Each block of 20 jobs holds 12 resubmissions of
// cached ideals (renamed variables, scaled and reordered generators), 7 cold
// tiny sparse ideals and 1 cold katsura(4)-sized ideal, all with want_cert.
//
// The load generator is this one thread with two connections (reads on one,
// writes on the other). It spins over non-blocking reads of both rather than
// sleeping — a sleeping thread's wake-up on a virtualized host can take
// milliseconds, more than the latencies measured — so every result is
// stamped within microseconds of arrival. Latency runs from the time a job
// was due to be sent, so a late generator shows up as latency; how late it
// ran is reported separately.
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "io/parse.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"
#include "serve/canonical.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace gbd;

namespace {

// ---- the mix ---------------------------------------------------------------

enum class Kind : std::uint8_t { kHit, kTiny, kHeavy };
const char* kind_name(Kind k) { return k == Kind::kHit ? "hit" : k == Kind::kTiny ? "tiny" : "heavy"; }

constexpr int kBlock = 20;  // per block: 12 hits, 7 tiny cold, 1 heavy cold
constexpr int kBlockHits = 12;
constexpr int kBlockTiny = 7;
constexpr int kPoolTiny = 60;
constexpr int kPoolHeavy = 4;

/// Offered rates (jobs/s); the reference rate carries the latency metrics.
constexpr double kLadder[] = {100, 200, 300, 400, 500, 600};
constexpr double kReferenceRate = 100;
/// The latency limit a ladder step must meet at p99 to count as sustained.
constexpr double kP99LimitMs = 80;
/// Share of the measure window per ladder step (reference step longest).
double step_share(double rate) { return rate == kReferenceRate ? 0.50 : 0.10; }

struct JobSpec {
  Kind kind = Kind::kHit;
  PolySystem sys;     ///< as submitted (for parsing its result)
  std::string text;   ///< inline system text (source 0)
  std::size_t ideal;  ///< index of its canonical key
};

/// katsura(4) with the linear equation's constant 1 replaced by c: a distinct
/// ideal of the same shape and cost for every c.
PolySystem katsura4_variant(std::uint64_t c) {
  PolySystem sys = katsura_system(4);
  Polynomial shift = Polynomial::constant(sys.ctx, BigInt(static_cast<long>(c) - 1));
  sys.polys[0] = sys.polys[0].sub(sys.ctx, shift);
  sys.name = "katsura4_c" + std::to_string(c);
  return sys;
}

PolySystem tiny_sparse(std::uint64_t seed) {
  std::size_t n = 3 + seed % 3;
  return random_sparse_system(seed, n, n, 2, 3);
}

/// A resubmission of `base`: variables renamed, generators scaled by small
/// nonzero integers and shuffled. Same canonical key, same basis.
PolySystem disguise(const PolySystem& base, std::uint64_t variant, Rng& rng) {
  PolySystem out = base;
  for (std::size_t i = 0; i < out.ctx.vars.size(); ++i) {
    // Appended piecewise: g++ 12 warns falsely (-Wrestrict) on "r" + string.
    std::string name = "r";
    name += std::to_string(variant);
    name += 'v';
    name += std::to_string(i);
    out.ctx.vars[i] = std::move(name);
  }
  Monomial one(std::vector<std::uint32_t>(out.ctx.nvars(), 0));
  for (Polynomial& p : out.polys) {
    long k = static_cast<long>(rng.below(9)) + 1;
    p = p.mul_term(BigInt(rng.below(2) ? k : -k), one);
  }
  for (std::size_t i = out.polys.size(); i > 1; --i) std::swap(out.polys[i - 1], out.polys[rng.below(i)]);
  return out;
}

struct Step {
  double rate = 0;  ///< offered jobs/s
  std::size_t first = 0, count = 0;
  bool traced = false;
};

/// Every input of one run, generated from the seed before anything is timed.
struct Plan {
  std::vector<std::string> keys;     ///< canonical keys, by ideal index
  std::vector<JobSpec> pool;         ///< cached ideals, submitted cold during set-up
  std::vector<JobSpec> jobs;         ///< the measured stream, step after step
  std::vector<Step> steps;
};

std::size_t intern_key(Plan& plan, std::map<std::string, std::size_t>& index, const PolySystem& sys) {
  std::string key = canonicalize(sys).key;
  auto [it, inserted] = index.emplace(key, plan.keys.size());
  if (inserted) plan.keys.push_back(std::move(key));
  return it->second;
}

JobSpec make_job(Plan& plan, std::map<std::string, std::size_t>& index, Kind kind, PolySystem sys) {
  JobSpec j;
  j.kind = kind;
  j.text = to_text(sys);
  j.ideal = intern_key(plan, index, sys);
  j.sys = std::move(sys);
  return j;
}

Plan make_plan(std::uint64_t seed, double seconds, bool trace, Report* out) {
  Plan plan;
  std::map<std::string, std::size_t> index;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  // Seed-derived, disjoint ranges: pool ideals, cold tiny ideals, heavy constants.
  const std::uint64_t base = 1'000'000 + (seed % 100'000) * 10'000;
  for (int i = 0; i < kPoolTiny; ++i)
    plan.pool.push_back(make_job(plan, index, Kind::kTiny, tiny_sparse(base + i)));
  for (int i = 0; i < kPoolHeavy; ++i)
    plan.pool.push_back(make_job(plan, index, Kind::kHeavy, katsura4_variant(10'000 + (seed % 1000) * 8 + i)));

  const double window = trace ? seconds / 2 : seconds;
  std::vector<Step> steps;
  for (double rate : kLadder)
    steps.push_back({rate, 0, static_cast<std::size_t>(rate * window * step_share(rate)), false});
  if (trace) {
    steps.push_back({kReferenceRate, 0,
                     static_cast<std::size_t>(kReferenceRate * (seconds - window) * 0.6), true});
  }

  std::uint64_t cold_tiny = base + kPoolTiny, heavy_c = 2 + (seed % 1000) * 4;
  std::uint64_t variant = 0;
  for (Step& st : steps) {
    st.first = plan.jobs.size();
    st.count = std::max<std::size_t>(st.count, kBlock) / kBlock * kBlock;
    for (std::size_t b = 0; b < st.count / kBlock; ++b) {
      std::vector<Kind> block(kBlockHits, Kind::kHit);
      block.insert(block.end(), kBlockTiny, Kind::kTiny);
      block.push_back(Kind::kHeavy);
      for (std::size_t i = block.size(); i > 1; --i) std::swap(block[i - 1], block[rng.below(i)]);
      for (Kind k : block) {
        if (k == Kind::kHit) {
          const JobSpec& src = plan.pool[rng.below(plan.pool.size())];
          JobSpec j = make_job(plan, index, k, disguise(src.sys, ++variant, rng));
          if (j.ideal != src.ideal) out->fail("serve_mix: a disguised resubmission changed its canonical key");
          plan.jobs.push_back(std::move(j));
        } else if (k == Kind::kTiny) {
          plan.jobs.push_back(make_job(plan, index, k, tiny_sparse(cold_tiny++)));
        } else {
          plan.jobs.push_back(make_job(plan, index, k, katsura4_variant(heavy_c++)));
        }
      }
    }
    plan.steps.push_back(st);
  }
  return plan;
}

// ---- the load generator's connections ---------------------------------------

/// One client connection speaking the serve protocol (GBDF frames carrying
/// serve/wire.hpp messages), read without blocking so one thread can
/// multiplex several.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  bool submit(const SubmitRequest& req) {
    Writer w;
    req.encode(w);
    Frame f;
    f.type = FrameType::kJobSubmit;
    f.payload = w.take();
    std::vector<std::uint8_t> bytes = encode_frame(f);
    for (std::size_t off = 0; off < bytes.size();) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) off += static_cast<std::size_t>(n);
      else if (n < 0 && errno == EINTR) continue;
      else return false;
    }
    return true;
  }

  /// Read whatever has arrived and append every decoded result to *out.
  bool drain(std::vector<JobResultMsg>* out) {
    std::uint8_t buf[1 << 16];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        dec_.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    Frame f;
    for (FrameDecoder::Status st; (st = dec_.next(&f)) != FrameDecoder::Status::kNeedMore;) {
      if (st == FrameDecoder::Status::kError || f.type != FrameType::kJobResult) return false;
      SafeReader r(f.payload.data(), f.payload.size());
      JobResultMsg m;
      if (!JobResultMsg::decode(r, &m)) return false;
      out->push_back(std::move(m));
    }
    return true;
  }

 private:
  int fd_ = -1;
  FrameDecoder dec_{64u << 20};
};

// ---- one server under load --------------------------------------------------

struct Outcome {
  double due = 0, sent = 0, done = -1;
  JobResultMsg result;
};

struct Rig {
  std::unique_ptr<JobServer> server;
  Conn conns[2];  // [0] reads (cache hits), [1] writes (cold jobs)
  std::uint64_t next_token = 1;
};

bool start_rig(Rig* rig) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 1u << 16;  // the open loop must never be refused
  rig->server = std::make_unique<JobServer>(std::move(cfg));
  if (!rig->server->start()) return false;
  return rig->conns[0].connect(rig->server->port()) && rig->conns[1].connect(rig->server->port());
}

/// Send jobs[first, first+count) on schedule (`rate` jobs/s; 0 = all at
/// once) and collect every result. `sample` (optional) runs between sends,
/// as the live-observation hook of the traced pass.
void run_schedule(Rig& rig, const std::vector<JobSpec>& jobs, std::size_t first, std::size_t count,
                  double rate, std::vector<Outcome>* outcomes, std::vector<double>* lag_us,
                  Report* out, const std::function<void()>& sample = nullptr) {
  std::map<std::uint64_t, std::size_t> by_token;
  const double t0 = now_s() + 0.002;
  for (std::size_t i = 0; i < count; ++i)
    (*outcomes)[first + i].due = rate > 0 ? t0 + static_cast<double>(i) / rate : t0;
  std::size_t sent = 0, received = 0;
  std::vector<JobResultMsg> got;
  double next_sample = t0;
  const double give_up = t0 + static_cast<double>(count) / std::max(rate, 50.0) + 60;
  while (received < count) {
    double now = now_s();
    if (now > give_up) break;
    while (sent < count && (*outcomes)[first + sent].due <= now) {
      const JobSpec& j = jobs[first + sent];
      Outcome& o = (*outcomes)[first + sent];
      SubmitRequest req;
      req.token = rig.next_token++;
      req.want_cert = true;
      req.source = 0;
      req.problem = j.text;
      by_token[req.token] = first + sent;
      o.sent = now_s();
      lag_us->push_back((o.sent - o.due) * 1e6);
      if (!rig.conns[j.kind == Kind::kHit ? 0 : 1].submit(req)) {
        out->fail("serve_mix: submit failed (connection lost)");
        return;
      }
      ++sent;
      now = now_s();
    }
    if (sample && now >= next_sample) {
      sample();
      next_sample = now + 0.010;
    }
    for (Conn& c : rig.conns) {
      got.clear();
      if (!c.drain(&got)) {
        out->fail("serve_mix: connection dropped or sent a malformed frame");
        return;
      }
      double at = now_s();
      for (JobResultMsg& m : got) {
        auto it = by_token.find(m.token);
        if (it == by_token.end()) {
          out->fail("serve_mix: result for an unknown or already answered token");
          continue;
        }
        Outcome& o = (*outcomes)[it->second];
        o.done = at;
        o.result = std::move(m);
        by_token.erase(it);
        ++received;
      }
    }
  }
  if (received < count)
    out->fail("serve_mix: " + std::to_string(count - received) + " results never arrived");
}

/// Every result kDone with a verified certificate, and equal to the first
/// result seen for its canonical ideal (cold answer or cached copy alike).
void check_results(const std::vector<JobSpec>& jobs, const std::vector<Outcome>& outcomes,
                   std::size_t first, std::size_t count,
                   std::vector<std::vector<Polynomial>>* reference, Report* out) {
  for (std::size_t i = first; i < first + count; ++i) {
    const Outcome& o = outcomes[i];
    if (o.done < 0) continue;  // already counted as lost
    const JobResultMsg& r = o.result;
    if (r.status != JobState::kDone || r.cert != 1) {
      out->fail(std::string("serve_mix: ") + kind_name(jobs[i].kind) + " job ended " +
                job_state_name(r.status) + " cert=" + std::to_string(r.cert) + " " + r.error);
      continue;
    }
    std::vector<Polynomial> basis;
    std::string err;
    for (const std::string& s : r.basis) {
      Polynomial p;
      if (!parse_poly(jobs[i].sys.ctx, s, &p, &err)) break;
      basis.push_back(std::move(p));
    }
    if (basis.size() != r.basis.size()) {
      out->fail("serve_mix: unparseable basis element: " + err);
      continue;
    }
    std::vector<Polynomial>& ref = (*reference)[jobs[i].ideal];
    if (ref.empty()) {
      ref = std::move(basis);
      continue;
    }
    bool same = ref.size() == basis.size();
    for (std::size_t k = 0; same && k < ref.size(); ++k) same = ref[k].equals(basis[k]);
    if (!same)
      out->fail(std::string("serve_mix: ") + (r.cache_hit ? "cache hit" : "recomputed") +
                " basis differs from the first result for its ideal");
  }
}

struct StepStats {
  double offered = 0, achieved = 0, p50_us = 0, p99_us = 0, hit_p99_us = 0;
  bool sustained = false;
};

StepStats step_stats(const std::vector<Outcome>& outcomes, const Step& st) {
  StepStats s;
  std::vector<double> lat, hit;
  double first_due = 1e300, last_done = 0;
  for (std::size_t i = st.first; i < st.first + st.count; ++i) {
    const Outcome& o = outcomes[i];
    first_due = std::min(first_due, o.due);
    if (o.done < 0) continue;
    last_done = std::max(last_done, o.done);
    lat.push_back((o.done - o.due) * 1e6);
    if (o.result.cache_hit) hit.push_back((o.done - o.due) * 1e6);
  }
  s.offered = st.rate;
  s.achieved = static_cast<double>(lat.size()) / std::max(last_done - first_due, 1e-9);
  s.p50_us = quantile(lat, 0.5);
  s.p99_us = quantile(lat, 0.99);
  s.hit_p99_us = quantile(hit, 0.99);
  s.sustained = lat.size() == st.count && s.p99_us <= kP99LimitMs * 1e3 &&
                s.achieved >= 0.95 * st.rate;
  return s;
}

/// Per-layer replay on this thread: parse + canonicalize of a sample of the
/// stream, and engine + certificate of a sample of its cold ideals.
void replay_layers(const Plan& plan, Report* out) {
  std::vector<double> parse_us, canon_us, cold_us;
  double engine_s = 0, cert_s = 0;
  std::size_t cold = 0, tiny = 0, heavy = 0;
  MetricsRegistry reg(1);
  std::uint64_t allocs = 0;
  double spolys = 0, zeroed = 0, work = 0;
  std::vector<Polynomial> heavy_basis;  // reduced basis of a heavy job: the replay batch
  PolyContext heavy_ctx;
  for (const JobSpec& j : plan.jobs) {
    if (parse_us.size() >= 400 && tiny >= 35 && heavy >= 5) break;
    double t0 = now_s();
    PolySystem sys;
    std::string err;
    if (!parse_system(j.text, &sys, &err)) {
      out->fail("serve_mix replay: parse: " + err);
      return;
    }
    double t1 = now_s();
    CanonicalSystem canon = canonicalize(sys);
    double t2 = now_s();
    parse_us.push_back((t1 - t0) * 1e6);
    canon_us.push_back((t2 - t1) * 1e6);
    if (j.kind == Kind::kHit || (j.kind == Kind::kTiny ? tiny >= 35 : heavy >= 5)) continue;
    (j.kind == Kind::kTiny ? tiny : heavy) += 1;
    KernelBaseline kb = kernel_baseline();
    std::uint64_t a0 = LimbVec::heap_allocs();
    double e0 = now_s();
    SequentialResult res = groebner_sequential(canon.sys, GbConfig{});
    double e1 = now_s();
    bool ok = verify_groebner_result(canon.sys.ctx, canon.sys.polys, res.basis, &err);
    double e2 = now_s();
    allocs += LimbVec::heap_allocs() - a0;
    collect_kernel_delta(reg, 0, kb);
    if (!ok) out->fail("serve_mix replay: certificate failed: " + err);
    ++cold;
    engine_s += e1 - e0;
    cert_s += e2 - e1;
    cold_us.push_back((e2 - e0) * 1e6);
    spolys += static_cast<double>(res.stats.spolys_computed);
    zeroed += static_cast<double>(res.stats.reductions_to_zero);
    work += static_cast<double>(res.stats.work_units);
    if (j.kind == Kind::kHeavy) {
      heavy_ctx = canon.sys.ctx;
      heavy_basis = reduce_basis(canon.sys.ctx, res.basis);
    }
  }
  // The sample is 35 tiny and 5 heavy cold jobs: the stream's 7:1 ratio.
  const double n = static_cast<double>(cold);
  out->add("io.parse_us", median(parse_us), "us");
  out->add("serve.canonicalize_us", median(canon_us), "us");
  out->add("serve.cold_exec_us_p50", median(cold_us), "us");
  out->add("gb.engine_ms", engine_s * 1e3 / n, "ms");
  out->add("gb.spolys_computed", spolys / n, "count");
  out->add("gb.zeroed_ratio", spolys > 0 ? zeroed / spolys : 0, "ratio");
  out->add("gb.work_units", work / n, "count");
  out->add("verify.cert_ms", cert_s * 1e3 / n, "ms");
  out->add("verify.cert_share", cert_s / (engine_s + cert_s), "ratio");
  report_kernel_layer(reg.snapshot(), n, out);
  out->add("bigint.heap_allocs", static_cast<double>(allocs) / n, "count");
  if (!heavy_basis.empty()) report_poly_replay(heavy_ctx, heavy_basis, CoeffOptions::exact(), out);
}

}  // namespace

void run_serve_mix(const Options& opt, Report* out) {
  Plan plan;
  std::unique_ptr<Rig> rig;
  std::vector<std::vector<Polynomial>> reference;
  std::vector<Outcome> warm;
  std::vector<double> setups, lag_us;
  // Set-up: generate every input, start the server, connect, and fill the
  // cache with the pool ideals (computed cold and certified). kSetupReps
  // times; the last rig is the one measured.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    double t0 = now_s();
    plan = make_plan(opt.seed, opt.seconds, opt.trace, out);
    rig = std::make_unique<Rig>();
    if (!start_rig(rig.get())) {
      out->fail("serve_mix: could not start the server or connect to it");
      return;
    }
    reference.assign(plan.keys.size(), {});
    warm.assign(plan.pool.size(), {});
    std::vector<double> ignored;
    out->attempted += plan.pool.size();
    run_schedule(*rig, plan.pool, 0, plan.pool.size(), 0, &warm, &ignored, out);
    check_results(plan.pool, warm, 0, plan.pool.size(), &reference, out);
    setups.push_back(now_s() - t0);
  }
  const double setup_s = median(setups);

  std::vector<Outcome> outcomes(plan.jobs.size());
  std::vector<StepStats> stats;
  double traced_p50_us = 0;
  std::uint64_t max_depth = 0;
  for (const Step& st : plan.steps) {
    std::function<void()> sample;
    if (st.traced) {
      sample = [&] {
        ServerStatsMsg s = rig->server->stats();
        max_depth = std::max<std::uint64_t>(max_depth, s.queue_depth);
        (void)rig->server->cache_stats();
      };
    }
    out->attempted += st.count;
    run_schedule(*rig, plan.jobs, st.first, st.count, st.rate, &outcomes, &lag_us, out, sample);
    check_results(plan.jobs, outcomes, st.first, st.count, &reference, out);
    StepStats s = step_stats(outcomes, st);
    std::printf("serve_mix step %-10s offered %7.1f/s achieved %7.1f/s  p50 %9.1f us  p99 %9.1f us"
                "  hit p99 %9.1f us  %s\n",
                st.traced ? "traced" : "ladder", s.offered, s.achieved,
                s.p50_us, s.p99_us, s.hit_p99_us, s.sustained ? "sustained" : "over limit");
    if (st.traced) traced_p50_us = s.p50_us;
    stats.push_back(s);
  }

  // Reference-rate latencies (all jobs, and cache hits alone).
  std::vector<double> ref_ms, hit_us;
  double max_rate = 0;
  for (std::size_t k = 0; k < plan.steps.size(); ++k) {
    const Step& st = plan.steps[k];
    if (st.traced) continue;
    if (stats[k].sustained) max_rate = std::max(max_rate, st.rate);
    if (st.rate != kReferenceRate) continue;
    for (std::size_t i = st.first; i < st.first + st.count; ++i) {
      const Outcome& o = outcomes[i];
      if (o.done < 0) continue;
      ref_ms.push_back((o.done - o.due) * 1e3);
      if (o.result.cache_hit) hit_us.push_back((o.done - o.due) * 1e6);
    }
  }
  std::printf("serve_mix: reference rate %.0f/s: p50 %.3f ms, mean %.3f ms, tail %s; hits %zu; generator lag p99 %.1f us\n",
              kReferenceRate, median(ref_ms), mean(ref_ms), describe_tail(tail(ref_ms), "ms").c_str(),
              hit_us.size(), quantile(lag_us, 0.99));

  if (!opt.trace) {
    const double sliced_mean = median_of_slices(ref_ms, mean);
    const double sliced_tail = median_of_slices(ref_ms, [](const std::vector<double>& s) { return tail(s).value; });
    std::printf("serve_mix: median over %zu slices: mean %.3f ms, tail %.3f ms (slice tail %s)\n", kSlices,
                sliced_mean, sliced_tail,
                describe_tail(tail(std::vector<double>(ref_ms.begin(), ref_ms.begin() + ref_ms.size() / kSlices)), "ms").c_str());
    out->add("setup_s", setup_s, "s");
    out->add("latency_ms_mean", sliced_mean, "ms");
    out->add("latency_ms_tail", sliced_tail, "ms");
    return;
  }

  ServerStatsMsg ss = rig->server->stats();
  CacheStats cs = rig->server->cache_stats();
  rig.reset();
  out->add("job_latency_us_p50", median(ref_ms) * 1e3, "us");
  out->add("job_latency_us_p99", quantile(ref_ms, 0.99) * 1e3, "us");
  out->add("hit_latency_us_p99", quantile(hit_us, 0.99), "us");
  out->add("max_rate_jobs_per_s", max_rate, "1/s");
  out->add("loadgen.lag_us_p99", quantile(lag_us, 0.99), "us");
  out->add("serve.cache_hit_ratio",
           cs.hits + cs.misses > 0 ? static_cast<double>(cs.hits) / static_cast<double>(cs.hits + cs.misses) : 0,
           "ratio");
  out->add("serve.cache_evictions", static_cast<double>(cs.evictions), "count");
  out->add("serve.queue_wait_ms_p50", static_cast<double>(ss.wait_p50_ms), "ms");
  out->add("serve.queue_wait_ms_p99", static_cast<double>(ss.wait_p99_ms), "ms");
  out->add("serve.exec_ms_p50", static_cast<double>(ss.exec_p50_ms), "ms");
  out->add("serve.exec_ms_p99", static_cast<double>(ss.exec_p99_ms), "ms");
  out->add("obs.trace_overhead_pct", (traced_p50_us / (median(ref_ms) * 1e3) - 1) * 100, "%");
  std::printf("serve_mix: traced pass sampled server stats every 10 ms; max queue depth %llu\n",
              static_cast<unsigned long long>(max_depth));
  replay_layers(plan, out);
}

}  // namespace perfbench
