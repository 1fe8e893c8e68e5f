// Monomials (power products) and monomial orderings.
//
// A monomial x1^e1 … xn^en is an exponent vector with a cached total degree,
// stored inline for up to Monomial::kInlineVars variables (the small-vector
// idiom of LimbVec in bigint.hpp), so the hot monomial arithmetic of
// reduction allocates nothing.
//
// The number of variables is fixed per computation by the PolyContext
// (see polynomial.hpp); all binary operations require equal lengths.
//
// The paper's HCF(m1, m2) (componentwise min) and the lcm m1·m2/HCF
// (componentwise max) are both provided; the pair-selection heuristic of the
// paper (footnote 2) minimizes the lcm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace gbd {

class Writer;
class Reader;

class Monomial {
 public:
  /// Exponent vectors of up to kInlineVars variables live inline in the
  /// object (48 bytes in all) and never touch the heap; wider ones spill to
  /// one heap array. Ten covers every built-in problem and the parametric
  /// families up to katsura(9), cyclic(10) and eco(10); the replicated GL-P
  /// inputs take the heap path (see DESIGN.md §19).
  static constexpr std::size_t kInlineVars = 10;

  /// The constant monomial 1 over `nvars` variables.
  explicit Monomial(std::size_t nvars = 0) : Monomial(nvars, Uninit{}) {
    std::fill_n(data(), nvars, 0u);
  }

  /// From an explicit exponent vector.
  explicit Monomial(std::vector<std::uint32_t> exps);

  Monomial(const Monomial& o) : Monomial(o.nvars_, Uninit{}) { copy_from(o); }
  Monomial(Monomial&& o) noexcept { steal(o); }
  Monomial& operator=(const Monomial& o);
  Monomial& operator=(Monomial&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~Monomial() { release(); }

  std::size_t nvars() const { return nvars_; }
  std::uint32_t exp(std::size_t i) const { return data()[i]; }
  /// The nvars() exponents as one array, for loops over every variable.
  const std::uint32_t* exps() const { return data(); }
  std::uint32_t degree() const { return degree_; }
  bool is_one() const { return degree_ == 0; }

  /// Componentwise sum: this · rhs.
  Monomial operator*(const Monomial& rhs) const;

  /// True iff this divides rhs (componentwise <=).
  bool divides(const Monomial& rhs) const;

  /// Quotient rhs / this is NOT defined; this computes this / rhs and
  /// requires rhs.divides(*this).
  Monomial operator/(const Monomial& rhs) const;

  /// Componentwise min — the paper's HCF (monomial gcd).
  static Monomial hcf(const Monomial& a, const Monomial& b);

  /// Componentwise max — least common multiple.
  static Monomial lcm(const Monomial& a, const Monomial& b);

  /// True iff hcf(a, b) == 1 (Buchberger's first criterion test).
  static bool coprime(const Monomial& a, const Monomial& b);

  bool operator==(const Monomial& rhs) const {
    return nvars_ == rhs.nvars_ && degree_ == rhs.degree_ &&
           (nvars_ == 0 ||
            std::memcmp(data(), rhs.data(), nvars_ * sizeof(std::uint32_t)) == 0);
  }
  bool operator!=(const Monomial& rhs) const { return !(*this == rhs); }

  /// Render with the given variable names, e.g. "x^2*y". "1" for the unit.
  std::string to_string(const std::vector<std::string>& names) const;

  void write(Writer& w) const;
  static Monomial read(Reader& r);
  std::size_t wire_size() const { return 8 + 4 * std::size_t{nvars_}; }

  std::size_t hash() const;

 private:
  struct Uninit {};
  /// `nvars` exponents of unspecified value and degree 0; callers fill both.
  Monomial(std::size_t nvars, Uninit) : nvars_(static_cast<std::uint32_t>(nvars)) {
    if (nvars_ > kInlineVars) heap_ = new std::uint32_t[nvars_];
  }

  bool inline_storage() const { return nvars_ <= kInlineVars; }
  std::uint32_t* data() { return inline_storage() ? inline_ : heap_; }
  const std::uint32_t* data() const { return inline_storage() ? inline_ : heap_; }

  /// Same-width copy of o's exponents and degree into existing storage.
  void copy_from(const Monomial& o) {
    degree_ = o.degree_;
    if (nvars_ > 0) std::memcpy(data(), o.data(), nvars_ * sizeof(std::uint32_t));
  }
  void release() {
    if (!inline_storage()) delete[] heap_;
    nvars_ = 0;
    degree_ = 0;
  }
  /// Take o's value; o is left as the zero-variable unit monomial.
  void steal(Monomial& o) {
    nvars_ = o.nvars_;
    degree_ = o.degree_;
    if (o.inline_storage()) {
      if (nvars_ > 0) std::memcpy(inline_, o.inline_, nvars_ * sizeof(std::uint32_t));
    } else {
      heap_ = o.heap_;
      o.nvars_ = 0;
      o.degree_ = 0;
    }
  }

  std::uint32_t nvars_ = 0;
  std::uint32_t degree_ = 0;
  union {
    std::uint32_t inline_[kInlineVars];
    std::uint32_t* heap_;
  };
};

/// Admissible monomial orderings. The paper's measurements use total-degree
/// ordering (kGrLex here); lex and graded-reverse-lex are provided as well.
enum class OrderKind : std::uint8_t {
  kLex,      // pure lexicographic, x1 > x2 > …
  kGrLex,    // total degree, ties by lex — the paper's "total degree ordering"
  kGRevLex,  // total degree, ties by reverse lex (the usual fastest order)
  kElim,     // block elimination order: the first PolyContext::elim_vars
             // variables dominate (compared by grlex among themselves), ties
             // by grlex on the remaining block. An elimination order for the
             // first block: a Gröbner basis's elements free of the first
             // block generate the elimination ideal, but the order stays
             // graded within each block (usually far cheaper than full lex).
};

const char* order_name(OrderKind k);

/// Three-way comparison of monomials under `kind`: <0, 0 or >0 as a <,==,> b.
/// For kElim, `elim_vars` is the size of the dominating first block
/// (ignored by the other kinds; PolyContext::cmp supplies it).
int mono_cmp(OrderKind kind, const Monomial& a, const Monomial& b, std::size_t elim_vars = 0);

}  // namespace gbd
