// Precision model of the numeric stack (DESIGN.md §14).
//
// Every kernel, block value store and solve sweep is templated on its value
// type V ∈ {float, double}; this header is the single place where the
// numeric stack is allowed to spell a concrete floating-point type. All
// other code in src/kernels/ must use the aliases below — tools/lint.sh
// rejects a raw `double` anywhere else under src/kernels/, so a new kernel
// cannot silently re-hardwire FP64.
//
// The aliases separate the two very different roles "double" used to play:
//   * storage values  — now the template parameter V (FP32 halves the
//     memory traffic of the bandwidth-bound numeric hot path);
//   * work/cost/time scalars (FLOP counts, selector metrics, wall-clock
//     seconds, pivot tolerances) — always FP64, because they are control
//     data, not matrix data, and their precision never touches the factors.
#pragma once

#include <cstdint>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

namespace pangulu::kernels {

/// Value-precision mode of a factorisation/solve pipeline.
///   kDouble  — FP64 everywhere (the historical behaviour).
///   kSingle  — FP32 factors and FP32 solves; accuracy is FP32's.
///   kMixedIR — FP32 factors + FP32 correction solves wrapped in an FP64
///              iterative-refinement loop against the original matrix;
///              accuracy is restored to FP64 (DESIGN.md §14).
enum class Precision : std::int32_t {
  kDouble = 0,
  kSingle = 1,
  kMixedIR = 2,
};

/// FLOP counts and other work estimates. Control data: always FP64.
using flops_t = double;
/// Wall-clock / modeled time in seconds. Control data: always FP64.
using seconds_t = double;
/// Kernel-selector decision metrics and thresholds (nnz or FLOPs as a
/// continuous quantity). Control data: always FP64.
using metric_t = double;
/// Pivot/convergence tolerances. Control data: always FP64.
using tolerance_t = double;

/// True for the modes whose numeric phase stores FP32 factors.
inline constexpr bool stores_fp32(Precision p) {
  return p != Precision::kDouble;
}

/// Scoped flush-to-zero of FP32 subnormals (x86 MXCSR FTZ+DAZ bits; a no-op
/// elsewhere). Exponentially decaying Schur-complement updates drive FP32
/// intermediates below FLT_MIN long before the FP64 run would notice, and
/// each subnormal operand costs a microcode assist — on the fem3d/grid3d
/// families that turns the "faster" FP32 numeric phase 5x *slower* than
/// FP64. Flushing them to zero restores hardware-speed arithmetic and
/// perturbs the factors by less than the FP32 rounding the mixed-precision
/// IR loop already absorbs (DESIGN.md §14).
///
/// MXCSR is per-thread state, so kernels instantiate the guard both in the
/// dispatching function (serial variants, calling-thread chunks) and inside
/// every pool-worker lambda — every thread that touches FP32 values flushes,
/// keeping results bitwise identical across schedulers and thread counts.
class ScopedSubnormalFlush {
 public:
  ScopedSubnormalFlush() {
#if defined(__SSE2__)
    saved_ = _mm_getcsr();
    _mm_setcsr(saved_ | 0x8040u);  // FTZ (bit 15) | DAZ (bit 6)
#endif
  }
  ~ScopedSubnormalFlush() {
#if defined(__SSE2__)
    _mm_setcsr(saved_);
#endif
  }
  ScopedSubnormalFlush(const ScopedSubnormalFlush&) = delete;
  ScopedSubnormalFlush& operator=(const ScopedSubnormalFlush&) = delete;

 private:
#if defined(__SSE2__)
  unsigned saved_ = 0;
#endif
};

/// Per-value-type guard: flushes subnormals for FP32 kernels, a no-op for
/// FP64 (whose subnormal range the factorisations here never reach, and
/// whose semantics must stay exactly IEEE for the reference results).
/// The user-provided constructor makes the no-op guard non-trivial, so the
/// FP64 instantiations of the kernels' `SubnormalGuard<V> ftz;` locals read
/// as the scoped guards they are, not as unused variables.
template <class V>
struct SubnormalGuard {
  SubnormalGuard() {}
};
template <>
struct SubnormalGuard<float> : ScopedSubnormalFlush {};

/// Storage value type per precision: both FP32-storing modes factor in
/// float; only kDouble stores FP64 factors.
template <Precision P>
struct PrecisionTraits {
  using value_type = float;
};
template <>
struct PrecisionTraits<Precision::kDouble> {
  using value_type = double;
};

}  // namespace pangulu::kernels
