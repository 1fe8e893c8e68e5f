#include "poly/monomial.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "support/check.hpp"
#include "support/cost.hpp"
#include "support/serialize.hpp"

namespace gbd {

Monomial::Monomial(std::vector<std::uint32_t> exps) : Monomial(exps.size(), Uninit{}) {
  if (nvars_ > 0) std::memcpy(data(), exps.data(), nvars_ * sizeof(std::uint32_t));
  degree_ = std::accumulate(exps.begin(), exps.end(), 0u);
}

Monomial& Monomial::operator=(const Monomial& o) {
  if (this == &o) return *this;
  if (nvars_ != o.nvars_) {
    release();
    if (o.nvars_ > kInlineVars) heap_ = new std::uint32_t[o.nvars_];
    nvars_ = o.nvars_;
  }
  copy_from(o);
  return *this;
}

Monomial Monomial::operator*(const Monomial& rhs) const {
  GBD_DCHECK(nvars() == rhs.nvars());
  Monomial out(nvars_, Uninit{});
  const std::uint32_t* a = data();
  const std::uint32_t* b = rhs.data();
  std::uint32_t* o = out.data();
  for (std::size_t i = 0; i < nvars_; ++i) o[i] = a[i] + b[i];
  out.degree_ = degree_ + rhs.degree_;
  CostCounter::charge(nvars_);
  return out;
}

bool Monomial::divides(const Monomial& rhs) const {
  GBD_DCHECK(nvars() == rhs.nvars());
  if (degree_ > rhs.degree_) return false;
  const std::uint32_t* a = data();
  const std::uint32_t* b = rhs.data();
  for (std::size_t i = 0; i < nvars_; ++i) {
    if (a[i] > b[i]) return false;
  }
  CostCounter::charge(nvars_);
  return true;
}

Monomial Monomial::operator/(const Monomial& rhs) const {
  GBD_DCHECK(nvars() == rhs.nvars());
  Monomial out(nvars_, Uninit{});
  const std::uint32_t* a = data();
  const std::uint32_t* b = rhs.data();
  std::uint32_t* o = out.data();
  for (std::size_t i = 0; i < nvars_; ++i) {
    GBD_CHECK_MSG(a[i] >= b[i], "Monomial division by non-divisor");
    o[i] = a[i] - b[i];
  }
  out.degree_ = degree_ - rhs.degree_;
  CostCounter::charge(nvars_);
  return out;
}

Monomial Monomial::hcf(const Monomial& a, const Monomial& b) {
  GBD_DCHECK(a.nvars() == b.nvars());
  Monomial out(a.nvars_, Uninit{});
  const std::uint32_t* ea = a.data();
  const std::uint32_t* eb = b.data();
  std::uint32_t* o = out.data();
  std::uint32_t deg = 0;
  for (std::size_t i = 0; i < a.nvars_; ++i) {
    o[i] = std::min(ea[i], eb[i]);
    deg += o[i];
  }
  out.degree_ = deg;
  CostCounter::charge(a.nvars_);
  return out;
}

Monomial Monomial::lcm(const Monomial& a, const Monomial& b) {
  GBD_DCHECK(a.nvars() == b.nvars());
  Monomial out(a.nvars_, Uninit{});
  const std::uint32_t* ea = a.data();
  const std::uint32_t* eb = b.data();
  std::uint32_t* o = out.data();
  std::uint32_t deg = 0;
  for (std::size_t i = 0; i < a.nvars_; ++i) {
    o[i] = std::max(ea[i], eb[i]);
    deg += o[i];
  }
  out.degree_ = deg;
  CostCounter::charge(a.nvars_);
  return out;
}

bool Monomial::coprime(const Monomial& a, const Monomial& b) {
  GBD_DCHECK(a.nvars() == b.nvars());
  const std::uint32_t* ea = a.data();
  const std::uint32_t* eb = b.data();
  for (std::size_t i = 0; i < a.nvars_; ++i) {
    if (ea[i] != 0 && eb[i] != 0) return false;
  }
  CostCounter::charge(a.nvars_);
  return true;
}

std::string Monomial::to_string(const std::vector<std::string>& names) const {
  GBD_CHECK(names.size() >= nvars_);
  std::string out;
  for (std::size_t i = 0; i < nvars_; ++i) {
    if (exp(i) == 0) continue;
    if (!out.empty()) out += "*";
    out += names[i];
    if (exp(i) > 1) out += "^" + std::to_string(exp(i));
  }
  return out.empty() ? "1" : out;
}

void Monomial::write(Writer& w) const { w.words(data(), nvars_); }

Monomial Monomial::read(Reader& r) { return Monomial(r.words()); }

std::size_t Monomial::hash() const {
  std::size_t h = 1469598103934665603ULL;
  const std::uint32_t* e = data();
  for (std::size_t i = 0; i < nvars_; ++i) {
    h ^= e[i];
    h *= 1099511628211ULL;
  }
  return h;
}

const char* order_name(OrderKind k) {
  switch (k) {
    case OrderKind::kLex:
      return "lex";
    case OrderKind::kGrLex:
      return "grlex";
    case OrderKind::kGRevLex:
      return "grevlex";
    case OrderKind::kElim:
      return "elim";
  }
  return "?";
}

namespace {

/// grlex restricted to the variable range [lo, hi).
int grlex_cmp_range(const std::uint32_t* a, const std::uint32_t* b, std::size_t lo,
                    std::size_t hi) {
  std::uint32_t da = 0, db = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    da += a[i];
    db += b[i];
  }
  if (da != db) return da < db ? -1 : 1;
  for (std::size_t i = lo; i < hi; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

}  // namespace

int mono_cmp(OrderKind kind, const Monomial& a, const Monomial& b, std::size_t elim_vars) {
  GBD_DCHECK(a.nvars() == b.nvars());
  const std::size_t n = a.nvars();
  const std::uint32_t* ea = a.exps();
  const std::uint32_t* eb = b.exps();
  CostCounter::charge(n);
  switch (kind) {
    case OrderKind::kLex:
      break;
    case OrderKind::kGrLex:
    case OrderKind::kGRevLex:
      if (a.degree() != b.degree()) return a.degree() < b.degree() ? -1 : 1;
      break;
    case OrderKind::kElim: {
      std::size_t k = std::min(elim_vars, n);
      int c = grlex_cmp_range(ea, eb, 0, k);
      if (c != 0) return c;
      return grlex_cmp_range(ea, eb, k, n);
    }
  }
  if (kind == OrderKind::kGRevLex) {
    // Ties broken by the LAST variable in which they differ; the monomial
    // with the SMALLER exponent there is the larger monomial.
    for (std::size_t i = n; i-- > 0;) {
      if (ea[i] != eb[i]) return ea[i] > eb[i] ? -1 : 1;
    }
    return 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (ea[i] != eb[i]) return ea[i] < eb[i] ? -1 : 1;
  }
  return 0;
}

}  // namespace gbd
