// The certificate against the all-pairs oracle (tests/oracles.hpp).
//
// is_groebner_basis / verify_groebner_result reduce only the pairs the
// Gebauer–Möller criteria keep, plus the input generators, as one Macaulay
// batch. The oracle reduces every non-coprime pair on its own. Both must
// accept and reject alike, over Q and over Zp, on:
//   · every engine output over the corpus (sequential per-poly and matrix,
//     GL-P on a SimMachine);
//   · each of those bases with one element dropped;
//   · each of those bases with one coefficient perturbed;
//   · the multi-modular driver's deliberately unlucky primes (the
//     ModularConfig::forced_primes drill of modular_test).
// A last test pins the batch shape: one batch, one work row per kept pair.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bigint/zp.hpp"
#include "gb/modular.hpp"
#include "gb/pairs.hpp"
#include "gb/parallel.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "io/parse.hpp"
#include "poly/symbolic.hpp"
#include "problems/problems.hpp"
#include "oracles.hpp"

namespace gbd {
namespace {

const std::vector<CoeffOptions>& fields() {
  static const std::vector<CoeffOptions> f = {
      CoeffOptions{},
      CoeffOptions::zp(prev_prime_u64(std::uint64_t{1} << 31)),
      CoeffOptions::zp(prev_prime_u64(std::uint64_t{1} << 62)),
  };
  return f;
}

/// The oracle's verify_groebner_result: all pairs, then input membership.
bool oracle_verify(const PolySystem& sys, const std::vector<Polynomial>& basis,
                   const CoeffOptions& coeff) {
  if (!oracle::all_pairs_is_groebner_basis(sys.ctx, basis, nullptr, coeff)) return false;
  for (const Polynomial& g : sys.polys) {
    if (!ideal_contains(sys.ctx, basis, g, coeff)) return false;
  }
  return true;
}

/// Both checks on one candidate basis; returns the shared verdict of
/// is_groebner_basis so callers can count how many cases each way ran.
bool expect_agree(const PolySystem& sys, const std::vector<Polynomial>& basis,
                  const CoeffOptions& coeff, const std::string& label) {
  std::string why_lib, why_oracle;
  const bool lib = is_groebner_basis(sys.ctx, basis, &why_lib, coeff);
  const bool want = oracle::all_pairs_is_groebner_basis(sys.ctx, basis, &why_oracle, coeff);
  EXPECT_EQ(lib, want) << label << "\n library: " << why_lib << "\n oracle: " << why_oracle;
  if (!lib) EXPECT_FALSE(why_lib.empty()) << label;
  std::string why;
  const bool lib_full = verify_groebner_result(sys.ctx, sys.polys, basis, &why, coeff);
  EXPECT_EQ(lib_full, oracle_verify(sys, basis, coeff)) << label << " (full) " << why;
  return lib;
}

/// `basis` without element k.
std::vector<Polynomial> dropped(const std::vector<Polynomial>& basis, std::size_t k) {
  std::vector<Polynomial> out;
  for (std::size_t i = 0; i < basis.size(); ++i)
    if (i != k) out.push_back(basis[i]);
  return out;
}

/// `basis` with 1 added to the coefficient of term t of element k.
std::vector<Polynomial> perturbed(const PolyContext& ctx, const std::vector<Polynomial>& basis,
                                  std::size_t k, std::size_t t) {
  std::vector<Polynomial> out = basis;
  std::vector<Term> terms = out[k].terms();
  terms[t].coeff = terms[t].coeff + BigInt(1);
  out[k] = Polynomial::from_terms(ctx, std::move(terms));
  return out;
}

/// At most `n` indices spread evenly over [0, size).
std::vector<std::size_t> sample(std::size_t size, std::size_t n) {
  std::vector<std::size_t> out;
  if (size == 0) return out;
  const std::size_t step = size <= n ? 1 : size / n;
  for (std::size_t i = 0; i < size && out.size() < n; i += step) out.push_back(i);
  return out;
}

/// The engine bases of the corpus problem in one field.
std::vector<std::pair<std::string, std::vector<Polynomial>>> engine_bases(
    const PolySystem& sys, const CoeffOptions& coeff) {
  std::vector<std::pair<std::string, std::vector<Polynomial>>> out;
  GbConfig gb;
  gb.coeff = coeff;
  out.emplace_back("sequential", groebner_sequential(sys, gb).basis);
  GbConfig mat = gb;
  mat.matrix_reduce = true;
  out.emplace_back("matrix", groebner_sequential(sys, mat).basis);
  ParallelConfig pc;
  pc.gb = gb;
  pc.nprocs = 3;
  out.emplace_back("glp-sim", groebner_parallel(sys, pc).basis);
  return out;
}

TEST(CertDiffTest, EngineOutputsDroppedAndPerturbedAgreeWithOracle) {
  std::size_t accepted = 0, rejected = 0;
  for (const std::string name : {"arnborg4", "trinks2", "morgenstern", "pavelle4", "rose"}) {
    const PolySystem sys = load_problem(name);
    for (const CoeffOptions& coeff : fields()) {
      for (const auto& [engine, basis] : engine_bases(sys, coeff)) {
        const std::string label = name + " " + engine + " " + coeff.to_string();
        EXPECT_TRUE(expect_agree(sys, basis, coeff, label)) << label << " rejected";
        for (std::size_t k : sample(basis.size(), 3)) {
          const std::string at = label + " element " + std::to_string(k);
          (expect_agree(sys, dropped(basis, k), coeff, at + " dropped") ? accepted : rejected)++;
          const std::size_t nterms = basis[k].nterms();
          for (std::size_t t : {std::size_t{0}, nterms - 1}) {
            (expect_agree(sys, perturbed(sys.ctx, basis, k, t), coeff,
                          at + " term " + std::to_string(t) + " perturbed")
                 ? accepted
                 : rejected)++;
          }
        }
      }
    }
  }
  // Both verdicts must actually occur, or the agreement says little.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(CertDiffTest, ReducedBasesAndTheirMutantsAgreeWithOracle) {
  // A reduced basis has no redundant element, so every drop is a rejection
  // unless the dropped element's pairs happened to be implied.
  for (const std::string name : {"arnborg4", "katsura4", "trinks1", "pavelle4"}) {
    const PolySystem sys = load_problem(name);
    for (const CoeffOptions& coeff : fields()) {
      GbConfig gb;
      gb.coeff = coeff;
      const std::vector<Polynomial> basis =
          reduce_basis(sys.ctx, groebner_sequential(sys, gb).basis, coeff);
      const std::string label = name + " reduced " + coeff.to_string();
      EXPECT_TRUE(expect_agree(sys, basis, coeff, label)) << label;
      for (std::size_t k = 0; k < basis.size(); ++k) {
        const std::string at = label + " element " + std::to_string(k);
        expect_agree(sys, dropped(basis, k), coeff, at + " dropped");
        if (basis[k].nterms() > 1) {
          expect_agree(sys, perturbed(sys.ctx, basis, k, 1), coeff, at + " tail perturbed");
        }
      }
    }
  }
}

TEST(CertDiffTest, UnluckyPrimeDrillsAgreeWithOracle) {
  // Mod 5 both inputs collapse to x: the mod-5 basis {x} is a certified
  // basis over Z/5, and the same set read over Q is the bogus lift the
  // driver's final certificate must reject (x + 5y is not in ⟨x⟩).
  struct Drill {
    const char* system;
    std::uint64_t prime;
  };
  const std::vector<Drill> drills = {
      {"vars x, y; order grlex; x + 5*y; x - 5*y;", 5},
      {"vars x, y, z; order grevlex; x*y - 7*z; y^2 - 7*x; x^2 - y*z + 7;", 7},
  };
  for (const Drill& d : drills) {
    const PolySystem sys = parse_system_or_die(d.system);
    const CoeffOptions zp = CoeffOptions::zp(d.prime);
    GbConfig gb;
    gb.coeff = zp;
    const std::vector<Polynomial> modp =
        reduce_basis(sys.ctx, groebner_sequential(sys, gb).basis, zp);
    const std::string label = std::string(d.system) + " mod " + std::to_string(d.prime);
    EXPECT_TRUE(expect_agree(sys, modp, zp, label)) << label;
    EXPECT_TRUE(verify_groebner_result(sys.ctx, sys.polys, modp, nullptr, zp)) << label;
    // The mod-p basis lifted as it stands, checked over Q.
    expect_agree(sys, modp, CoeffOptions{}, label + " read over Q");
    EXPECT_FALSE(verify_groebner_result(sys.ctx, sys.polys, modp)) << label;
    // The drill end to end: the forced prime is the whole budget, its lift
    // fails the certificate, and the driver answers through the exact path.
    ModularConfig cfg;
    cfg.forced_primes = {d.prime};
    cfg.initial_primes = 1;
    cfg.max_primes = 1;
    ModularResult res = groebner_multimodular(sys, cfg);
    EXPECT_TRUE(res.stats.verified) << label;
    EXPECT_TRUE(res.stats.used_exact_fallback) << label;
    EXPECT_GE(res.stats.primes_unlucky, 1u) << label;
    EXPECT_TRUE(verify_groebner_result(sys.ctx, sys.polys, res.basis)) << label;
    expect_agree(sys, res.basis, CoeffOptions{}, label + " driver answer");
  }
}

TEST(CertDiffTest, OneBatchOfTheKeptPairs) {
  const PolySystem sys = katsura_system(4);
  const std::vector<Polynomial> basis = groebner_sequential(sys).basis;
  std::size_t kept = 0, non_coprime = 0;
  std::vector<Monomial> heads;
  for (const Polynomial& g : basis) {
    kept += gm_new_pairs(sys.ctx, heads, g.hmono()).size();
    for (const Monomial& h : heads) non_coprime += Monomial::coprime(h, g.hmono()) ? 0 : 1;
    heads.push_back(g.hmono());
  }
  const MatrixKernelStats before = matrix_kernel_stats();
  ASSERT_TRUE(is_groebner_basis(sys.ctx, basis));
  const MatrixKernelStats& after = matrix_kernel_stats();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.work_rows - before.work_rows, kept);
  EXPECT_EQ(after.rows_zeroed - before.rows_zeroed, kept);
  // The engine's raw basis has 20 elements: 190 pairs, 100 of them not
  // coprime, of which the criteria keep 54.
  EXPECT_EQ(basis.size(), 20u);
  EXPECT_EQ(non_coprime, 100u);
  EXPECT_EQ(kept, 54u);
}

}  // namespace
}  // namespace gbd
