#pragma once
// The SSE floating-point mode (MXCSR) of the calling thread, and one RAII
// scope that sets it (DESIGN.md §11.7). x86 only, as the math engine is.
// FaultTolerantTrainer::step runs under FTZ|DAZ — a result below FLT_MIN
// (DBL_MIN for doubles) becomes 0 and a subnormal operand reads as 0 —
// and ThreadPool::submit carries the submitter's mode into each task.
//
// GCC does not treat MXCSR as an input of floating-point arithmetic: it
// may move an inlined multiply across the register load. So a scope
// encloses only an opaque call (a noinline function, a std::function),
// never arithmetic the compiler can see.

#include <xmmintrin.h>

namespace compso::common {

/// MXCSR's flush-to-zero (bit 15) and denormals-are-zero (bit 6) bits.
inline constexpr unsigned kFlushSubnormals = 0x8040U;

/// The calling thread's MXCSR.
inline unsigned float_mode() noexcept { return _mm_getcsr(); }

/// Loads `mode` into MXCSR for the scope's lifetime and restores the
/// caller's exact MXCSR, status flags included, on exit, also when the
/// scope unwinds an exception.
class FloatModeScope {
 public:
  explicit FloatModeScope(unsigned mode) noexcept : saved_(_mm_getcsr()) {
    _mm_setcsr(mode);
  }
  ~FloatModeScope() { _mm_setcsr(saved_); }

  FloatModeScope(const FloatModeScope&) = delete;
  FloatModeScope& operator=(const FloatModeScope&) = delete;

 private:
  unsigned saved_;
};

}  // namespace compso::common
