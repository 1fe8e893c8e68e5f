// Test helper for pinning the Zp matrix kernel's dispatch through the
// GBD_DISABLE_SIMD environment variable (poly/simd.hpp).
#pragma once

#include <cstdlib>
#include <string>

namespace gbd {

/// Scoped override of GBD_DISABLE_SIMD: "1" pins the scalar kernel, nullptr
/// clears the variable (automatic dispatch). The destructor restores
/// whatever was there, so a forced-scalar CI run keeps its setting.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* prev = std::getenv("GBD_DISABLE_SIMD");
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    if (value == nullptr) {
      unsetenv("GBD_DISABLE_SIMD");
    } else {
      setenv("GBD_DISABLE_SIMD", value, 1);
    }
  }
  ~ScopedSimdEnv() {
    if (had_) {
      setenv("GBD_DISABLE_SIMD", saved_.c_str(), 1);
    } else {
      unsetenv("GBD_DISABLE_SIMD");
    }
  }
  ScopedSimdEnv(const ScopedSimdEnv&) = delete;
  ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

 private:
  bool had_ = false;
  std::string saved_;
};

}  // namespace gbd
