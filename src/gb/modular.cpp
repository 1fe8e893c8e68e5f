#include "gb/modular.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "bigint/zp.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "machine/chaos.hpp"
#include "poly/reduce.hpp"
#include "support/check.hpp"
#include "support/serialize.hpp"

namespace gbd {

std::string ModularStats::summary() const {
  std::string s = "primes=" + std::to_string(primes_used) +
                  " unlucky=" + std::to_string(primes_unlucky) +
                  " inadmissible=" + std::to_string(primes_inadmissible) +
                  " jobs=" + std::to_string(jobs_run) + " failed=" + std::to_string(jobs_failed) +
                  " rounds=" + std::to_string(rounds) +
                  " recon_failures=" + std::to_string(reconstruction_failures) +
                  " modulus_bits=" + std::to_string(modulus_bits);
  if (used_exact_fallback) s += " exact_fallback";
  s += verified ? " verified" : " UNVERIFIED";
  return s;
}

bool rational_reconstruct(const BigInt& a, const BigInt& m, BigInt* num, BigInt* den) {
  GBD_CHECK_MSG(m > BigInt(1) && !a.is_negative() && a < m,
                "rational_reconstruct: requires 0 <= a < m, m > 1");
  const BigInt bound = BigInt(1) << ((m.bit_length() - 2) / 2);
  // Half-extended Euclid on (m, a): the invariant s_i·a ≡ r_i (mod m) makes
  // every row a candidate fraction r_i/s_i; stopping at the first remainder
  // within the bound yields the unique bounded solution if one exists
  // (Wang's algorithm; 2·bound² ≤ m gives uniqueness).
  BigInt r0 = m, r1 = a;
  BigInt s0(0), s1(1);
  while (r1 > bound) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    BigInt s2 = s0 - q * s1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s1 = std::move(s2);
  }
  BigInt n = std::move(r1), d = std::move(s1);
  if (d.is_negative()) {
    n = -n;
    d = -d;
  }
  if (d.is_zero() || d > bound) return false;
  if (!BigInt::gcd(n, d).is_one()) return false;
  *num = std::move(n);
  *den = std::move(d);
  return true;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The full monomial support of a canonical reduced basis, serialized — the
/// quantity the majority vote compares. Two primes whose bases have equal
/// shape lift together; a differing shape is the unlucky-prime signature.
std::string shape_key(const std::vector<Polynomial>& basis) {
  Writer w;
  w.u64(basis.size());
  for (const auto& g : basis) {
    w.u64(g.nterms());
    for (const Term& t : g.terms()) t.mono.write(w);
  }
  std::vector<std::uint8_t> bytes = w.take();
  return std::string(bytes.begin(), bytes.end());
}

/// p is admissible iff it divides no input head coefficient: the head term
/// of every generator survives mod p (which also keeps the image nonzero).
bool prime_admissible(const PolySystem& sys, const ZpField& field) {
  for (const auto& p : sys.polys) {
    if (p.is_zero()) continue;
    if (field.to_u64(field.from_bigint(p.hcoef())) == 0) return false;
  }
  return true;
}

struct JobOutcome {
  bool ok = false;
  std::vector<Polynomial> basis;  ///< canonical reduced monic basis mod p
  std::string why;
  double verify_seconds = 0.0;
};

/// One job: GB mod `prime` on the sequential engine, canonical Zp
/// reduction, and (cfg.verify) the per-prime certificate. The job is
/// deterministic, so a failure is final for this prime.
JobOutcome run_prime_job(const PolySystem& sys, const ModularConfig& cfg, std::uint64_t prime) {
  JobOutcome out;
  // Injected fault drill — deterministic in (seed, prime).
  if (cfg.fault_permille > 0 && chaos_mix2(cfg.seed, prime) % 1000 < cfg.fault_permille) {
    out.why = "injected fault";
    return out;
  }
  const CoeffOptions zp = CoeffOptions::zp(prime);
  GbConfig gb = cfg.gb;
  gb.coeff = zp;
  out.basis = reduce_basis(sys.ctx, groebner_sequential(sys, gb).basis, zp);
  if (cfg.verify) {
    Clock::time_point tv = Clock::now();
    std::string why;
    bool ok = verify_groebner_result(sys.ctx, sys.polys, out.basis, &why, zp);
    out.verify_seconds = seconds_since(tv);
    if (!ok) {
      out.why = "Zp certificate failed: " + why;
      out.basis.clear();
      return out;
    }
  }
  out.ok = true;
  return out;
}

struct PrimeRun {
  std::uint64_t prime = 0;
  std::vector<Polynomial> basis;
  std::string shape;
};

/// CRT-combine the (shape-identical) runs and rationally reconstruct each
/// coefficient; clear denominators per polynomial into the primitive integer
/// associate. Returns false on any reconstruction failure (modulus still too
/// small — the caller adds primes).
bool lift_runs(const PolyContext& ctx, const std::vector<const PrimeRun*>& runs,
               std::vector<Polynomial>* out) {
  // Garner-style CRT basis: x = Σ rᵢ·eᵢ (mod M) with eᵢ ≡ δᵢⱼ (mod pⱼ).
  BigInt modulus(1);
  for (const PrimeRun* r : runs) modulus *= BigInt(static_cast<std::int64_t>(r->prime));
  std::vector<BigInt> e(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    BigInt p(static_cast<std::int64_t>(runs[i]->prime));
    BigInt mi = modulus / p;
    BigInt inv = mod_inverse(mi % p, p);
    GBD_CHECK_MSG(!inv.is_zero(), "CRT: primes not pairwise distinct");
    e[i] = mi * inv;
  }
  const std::vector<Polynomial>& proto = runs.front()->basis;
  out->clear();
  out->reserve(proto.size());
  for (std::size_t k = 0; k < proto.size(); ++k) {
    std::size_t nterms = proto[k].nterms();
    std::vector<BigInt> nums(nterms), dens(nterms);
    BigInt den_lcm(1);
    for (std::size_t t = 0; t < nterms; ++t) {
      BigInt x(0);
      for (std::size_t i = 0; i < runs.size(); ++i) {
        std::uint64_t r = zp_residue_u64(runs[i]->basis[k].terms()[t].coeff);
        x += e[i] * BigInt(static_cast<std::int64_t>(r));
      }
      x %= modulus;
      if (x.is_negative()) x += modulus;
      if (!rational_reconstruct(x, modulus, &nums[t], &dens[t])) return false;
      den_lcm = BigInt::lcm(den_lcm, dens[t]);
    }
    std::vector<Term> terms;
    terms.reserve(nterms);
    for (std::size_t t = 0; t < nterms; ++t) {
      BigInt c = nums[t] * (den_lcm / dens[t]);
      // A residue nonzero mod every used prime cannot lift to zero.
      GBD_CHECK(!c.is_zero());
      terms.push_back(Term{std::move(c), proto[k].terms()[t].mono});
    }
    Polynomial p = Polynomial::from_sorted_terms(ctx, std::move(terms));
    p.make_primitive();
    out->push_back(std::move(p));
  }
  return true;
}

/// Rung 5: the lifted basis must reduce mod every used prime back to exactly
/// that prime's canonical basis.
bool lift_consistent(const PolyContext& ctx, const std::vector<Polynomial>& lifted,
                     const std::vector<const PrimeRun*>& runs) {
  for (const PrimeRun* r : runs) {
    ZpField field(r->prime);
    for (std::size_t k = 0; k < lifted.size(); ++k) {
      Polynomial img = poly_mod(ctx, lifted[k], field);
      img.make_monic(field);
      if (!img.equals(r->basis[k])) return false;
    }
  }
  return true;
}

}  // namespace

ModularResult groebner_multimodular(const PolySystem& sys, const ModularConfig& cfg) {
  GBD_CHECK_MSG(cfg.initial_primes >= 1 && cfg.step_primes >= 1 &&
                    cfg.max_primes >= cfg.initial_primes,
                "groebner_multimodular: bad prime budget");
  GBD_CHECK_MSG(cfg.prime_bits >= 3 && cfg.prime_bits <= 62,
                "groebner_multimodular: prime_bits out of range");
  // The driver picks the ring of every run itself, and reduce_basis needs a
  // complete basis from each one.
  GBD_CHECK_MSG(!cfg.gb.coeff.is_zp(),
                "groebner_multimodular: gb.coeff must be exact; the driver sets each prime");
  GBD_CHECK_MSG(cfg.gb.stop == nullptr,
                "groebner_multimodular: runs to completion and does not support stop");
  ModularResult res;

  // Lazy descending prime source: forced primes first, then downward from
  // 2^prime_bits. Examination is capped so a pathological forced list (or an
  // input whose heads are divisible by everything we try) cannot spin.
  std::size_t forced_next = 0;
  std::uint64_t candidate = 0;
  std::size_t examined = 0;
  const std::size_t examine_cap = cfg.max_primes * 4 + cfg.forced_primes.size() + 8;
  auto next_prime = [&]() -> std::uint64_t {
    if (forced_next < cfg.forced_primes.size()) return cfg.forced_primes[forced_next++];
    candidate = (candidate == 0) ? prev_prime_u64(std::uint64_t{1} << cfg.prime_bits)
                                 : prev_prime_u64(candidate);
    return candidate;
  };

  // Per-prime jobs are single-threaded; a small pool overlaps them.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t jobs = std::max<std::size_t>(2, std::min<std::size_t>(4, hw == 0 ? 2 : hw));

  auto exact_fallback = [&]() -> ModularResult {
    GBD_CHECK_MSG(cfg.exact_fallback,
                  "groebner_multimodular: prime budget exhausted and exact_fallback disabled");
    res.stats.used_exact_fallback = true;
    res.basis = reduce_basis(sys.ctx, groebner_sequential(sys, cfg.gb).basis);
    res.primes.clear();
    if (cfg.verify) {
      Clock::time_point tv = Clock::now();
      std::string why;
      GBD_CHECK_MSG(verify_groebner_result(sys.ctx, sys.polys, res.basis, &why),
                    "exact fallback failed its own certificate");
      res.stats.verify_seconds += seconds_since(tv);
      res.stats.verified = true;
    }
    return res;
  };

  std::vector<PrimeRun> runs;
  std::size_t primes_attempted = 0;  // admissible primes whose jobs ran

  for (;;) {
    res.stats.rounds += 1;
    // Assemble this round's batch of admissible primes.
    std::size_t want = runs.empty() ? cfg.initial_primes : cfg.step_primes;
    std::vector<std::uint64_t> batch;
    while (batch.size() < want && primes_attempted + batch.size() < cfg.max_primes &&
           examined < examine_cap) {
      std::uint64_t p = next_prime();
      examined += 1;
      ZpField field(p);
      if (!prime_admissible(sys, field)) {
        res.stats.primes_inadmissible += 1;
        continue;
      }
      batch.push_back(p);
    }
    if (batch.empty()) return exact_fallback();
    primes_attempted += batch.size();

    // Run the batch; a small pool overlaps independent jobs.
    Clock::time_point tg = Clock::now();
    std::vector<std::optional<PrimeRun>> slots(batch.size());
    std::mutex mu;  // guards res.stats
    std::atomic<std::size_t> next{0};
    auto job_worker = [&]() {
      for (;;) {
        std::size_t i = next.fetch_add(1);
        if (i >= batch.size()) return;
        JobOutcome out = run_prime_job(sys, cfg, batch[i]);
        if (out.ok) {
          PrimeRun run;
          run.prime = batch[i];
          run.shape = shape_key(out.basis);
          run.basis = std::move(out.basis);
          slots[i] = std::move(run);
        }
        std::lock_guard<std::mutex> g(mu);
        res.stats.jobs_run += 1;
        res.stats.verify_seconds += out.verify_seconds;
        if (!out.ok) res.stats.jobs_failed += 1;
      }
    };
    if (batch.size() <= 1) {
      job_worker();
    } else {
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < std::min(jobs, batch.size()); ++t) pool.emplace_back(job_worker);
      for (auto& t : pool) t.join();
    }
    res.stats.gb_seconds += seconds_since(tg);
    for (auto& s : slots) {
      if (s.has_value()) runs.push_back(std::move(*s));
    }
    if (runs.empty()) {
      if (primes_attempted < cfg.max_primes) continue;
      return exact_fallback();
    }

    // Majority shape vote. A winner needs >= 2 supporters once more than one
    // prime has reported (a lone dissenting shape is exactly what an unlucky
    // prime looks like).
    std::map<std::string, std::vector<const PrimeRun*>> groups;
    for (const PrimeRun& r : runs) groups[r.shape].push_back(&r);
    const std::vector<const PrimeRun*>* winner = nullptr;
    for (const auto& [shape, members] : groups) {
      if (winner == nullptr || members.size() > winner->size()) winner = &members;
    }
    if (runs.size() > 1 && winner->size() < 2) {
      if (primes_attempted < cfg.max_primes) continue;  // add primes, revote
      return exact_fallback();
    }

    // Lift the winning group.
    Clock::time_point tl = Clock::now();
    std::vector<Polynomial> lifted;
    bool lifted_ok = lift_runs(sys.ctx, *winner, &lifted);
    res.stats.lift_seconds += seconds_since(tl);
    if (!lifted_ok) {
      res.stats.reconstruction_failures += 1;
      if (primes_attempted < cfg.max_primes) continue;  // modulus too small yet
      return exact_fallback();
    }

    bool consistent = lift_consistent(sys.ctx, lifted, *winner);
    bool certified = true;
    if (consistent && cfg.verify) {
      Clock::time_point tv = Clock::now();
      std::string why;
      certified = verify_groebner_result(sys.ctx, sys.polys, lifted, &why);
      res.stats.verify_seconds += seconds_since(tv);
    }
    if (!consistent || !certified) {
      // The whole winning group is suspect (a coordinated unlucky shape):
      // discard it and continue with fresh primes rather than ever returning
      // an uncertified basis.
      std::vector<PrimeRun> keep;
      for (PrimeRun& r : runs) {
        bool in_winner = false;
        for (const PrimeRun* w : *winner) in_winner = in_winner || w == &r;
        if (!in_winner) keep.push_back(std::move(r));
        else res.stats.primes_unlucky += 1;
      }
      runs = std::move(keep);
      if (primes_attempted < cfg.max_primes) continue;
      return exact_fallback();
    }

    // Success.
    res.stats.primes_used = winner->size();
    res.stats.primes_unlucky += runs.size() - winner->size();
    BigInt modulus(1);
    for (const PrimeRun* r : *winner) {
      res.primes.push_back(r->prime);
      modulus *= BigInt(static_cast<std::int64_t>(r->prime));
    }
    res.stats.modulus_bits = modulus.bit_length();
    res.stats.verified = cfg.verify;
    res.basis = std::move(lifted);
    return res;
  }
}

}  // namespace gbd
