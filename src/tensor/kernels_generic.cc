// Portable blocked-kernel table, compiled at the baseline ISA of the
// build (no -m flags). The fused step is std::fmaf — glibc resolves it
// to the hardware FMA instruction when the CPU has one and to a
// correctly-rounded soft implementation otherwise, so this TU produces
// the canonical bits on every machine, merely slower than the SIMD
// tables. A 4x8 tile keeps the accumulators in registers even at
// baseline x86-64 (8 xmm worth) and matches the pre-SIMD kernels.

#include <cmath>

#include "tensor/kernels_blocked.h"

namespace rfed {
namespace internal {
namespace {

struct GenericTraits {
  static constexpr int64_t kMr = 4;
  static constexpr int64_t kNr = 8;
  static constexpr int64_t kTr = 4;

  static float Fma(float a, float b, float acc) {
    return std::fmaf(a, b, acc);
  }

  static void Micro(const float* ap, const float* bp, int64_t kc, float* c,
                    int64_t ldc) {
    float acc[kMr][kNr];
    for (int64_t i = 0; i < kMr; ++i) {
      for (int64_t j = 0; j < kNr; ++j) acc[i][j] = c[i * ldc + j];
    }
    for (int64_t p = 0; p < kc; ++p) {
      const float* av = ap + p * kMr;
      const float* bv = bp + p * kNr;
      for (int64_t i = 0; i < kMr; ++i) {
        const float a = av[i];
        for (int64_t j = 0; j < kNr; ++j) {
          acc[i][j] = std::fmaf(a, bv[j], acc[i][j]);
        }
      }
    }
    for (int64_t i = 0; i < kMr; ++i) {
      for (int64_t j = 0; j < kNr; ++j) c[i * ldc + j] = acc[i][j];
    }
  }

  static void DotChains(const float* a, const float* panel, int64_t n,
                        double* out) {
    // Plain mul+add: float*float is exact in double, so this is the
    // same bit sequence as a fused chain — no fma() call needed.
    double acc[kTr] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t j = 0; j < n; ++j) {
      const double av = a[j];
      const float* bv = panel + j * kTr;
      for (int64_t t = 0; t < kTr; ++t) acc[t] += av * bv[t];
    }
    for (int64_t t = 0; t < kTr; ++t) out[t] = acc[t];
  }

  template <int NT>
  static void ConvMicro(const float* ap, const float* b, const int64_t* offs,
                        int64_t k, float* c, int64_t ldc) {
    for (int64_t r = 0; r < 4; ++r) {
      for (int64_t j = 0; j < 8 * NT; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          acc = std::fmaf(ap[p * 4 + r], b[offs[p] + j], acc);
        }
        c[r * ldc + j] = acc;
      }
    }
  }

  template <int NV, int R, int NX>
  static void DwChains(const double* const* rows, const double* god,
                       int64_t ocp, int64_t ho, int64_t wo, int64_t stride,
                       int64_t wp, float* const* dst) {
    for (int r = 0; r < R; ++r) {
      for (int x = 0; x < NX; ++x) {
        for (int l = 0; l < NV * 4; ++l) {
          double acc = 0.0;
          const double* g = god + l;
          for (int64_t oy = 0; oy < ho; ++oy) {
            const double* src = rows[r] + oy * stride * wp + x;
            for (int64_t ox = 0; ox < wo; ++ox, g += ocp) {
              acc += *g * src[ox * stride];
            }
          }
          dst[r][x * ocp + l] += static_cast<float>(acc);
        }
      }
    }
  }
};

}  // namespace

const BlockedKernels& GenericKernels() {
  static const BlockedKernels table = {
      "generic",
      static_cast<int>(GenericTraits::kMr),
      static_cast<int>(GenericTraits::kNr),
      static_cast<int>(GenericTraits::kTr),
      &GemmAddBlockedT<GenericTraits>,
      &GemmTransBBlockedT<GenericTraits>,
      &ConvGemmT<GenericTraits>,
      &ConvDwT<GenericTraits>,
  };
  return table;
}

}  // namespace internal
}  // namespace rfed
