// Work accounting in abstract "term-operation" units.
//
// The simulated machine (machine/sim_machine.hpp) advances virtual time in
// proportion to the computational work a logical processor performs. The
// polynomial kernels charge this thread-local counter as they run (one unit
// per coefficient word-operation / monomial exponent-operation); the machine
// drains the counter into the processor's virtual clock at yield points.
//
// This is the same proxy the paper uses when it reports "time for a single
// reduction step": work is measured where it happens, independent of host
// hardware, and identically in sequential, replayed and parallel executions.
#pragma once

#include <cstdint>

namespace gbd {

/// Thread-local accumulated work, in term-operation units.
struct CostCounter {
  /// Inline so every charge site compiles to a thread-local add.
  static std::uint64_t& local() {
    thread_local std::uint64_t counter = 0;
    return counter;
  }

  /// Add `units` of work to the calling thread's counter.
  static void charge(std::uint64_t units) { local() += units; }

  /// Read and reset the calling thread's counter.
  static std::uint64_t drain() {
    drains() += 1;
    std::uint64_t& c = local();
    std::uint64_t v = c;
    c = 0;
    return v;
  }

  /// Read without resetting.
  static std::uint64_t peek() { return local(); }

  /// How many times drain() ran on the calling thread. Code that rewinds
  /// the counter (symbolic_preprocess) checks that none ran in between.
  static std::uint64_t& drains() {
    thread_local std::uint64_t n = 0;
    return n;
  }
};

/// RAII scope that measures the work performed inside it.
class CostScope {
 public:
  CostScope() : start_(CostCounter::peek()) {}
  std::uint64_t elapsed() const { return CostCounter::peek() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace gbd
