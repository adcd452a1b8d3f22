// AVX2+FMA blocked-kernel table. This is the only TU compiled with
// -mavx2 -mfma (CMake sets RFED_HAVE_AVX2 when the compiler accepts
// them), so no AVX instruction can leak into code that runs on
// non-AVX CPUs; kernels.cc only calls into this table after
// __builtin_cpu_supports confirms the CPU at runtime.
//
// GemmAdd microkernel: 6x16 — six A rows against one 16-wide packed B
// panel, 12 ymm accumulators + 2 B vectors + 1 broadcast = 15 of the 16
// architectural ymm registers. Each accumulator element advances by one
// _mm256_fmadd_ps per p step, which is exactly the canonical fused
// order; vfmadd and std::fmaf round identically (both are the correctly
// rounded fused operation), so this tile is bit-equal to the generic
// and reference paths by construction.
//
// GemmTransBAssign: 8 double chains per panel via _mm256_fmadd_pd on
// widened floats. float*float is exact in double, so the fused chain is
// bit-equal to the reference's mul+add chain.
//
// Conv GEMM: 4x24 — four packed weight rows against three 8-wide
// vectors of a B row read in place (an im2col row or a shifted row of
// the padded image); conv dw: up to 12 __m256d
// chains (4 output channels per vector) over broadcast image values.
// Both follow the same one-rounding-per-step argument.

#ifdef RFED_HAVE_AVX2

#include <immintrin.h>

#include <cmath>

#include "tensor/kernels_blocked.h"

namespace rfed {
namespace internal {
namespace {

struct Avx2Traits {
  static constexpr int64_t kMr = 6;
  static constexpr int64_t kNr = 16;
  static constexpr int64_t kTr = 8;

  static float Fma(float a, float b, float acc) {
    return std::fmaf(a, b, acc);
  }

  static void Micro(const float* ap, const float* bp, int64_t kc, float* c,
                    int64_t ldc) {
    // Hand-unrolled: at -O2 GCC leaves a __m256[6][2] accumulator array
    // in stack memory (two memory ops per fmadd, ~12 GFLOPS); twelve
    // named accumulators stay in ymm registers for the whole k loop.
    __m256 c00 = _mm256_loadu_ps(c + 0 * ldc);
    __m256 c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    __m256 c10 = _mm256_loadu_ps(c + 1 * ldc);
    __m256 c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    __m256 c20 = _mm256_loadu_ps(c + 2 * ldc);
    __m256 c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    __m256 c30 = _mm256_loadu_ps(c + 3 * ldc);
    __m256 c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    __m256 c40 = _mm256_loadu_ps(c + 4 * ldc);
    __m256 c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
    __m256 c50 = _mm256_loadu_ps(c + 5 * ldc);
    __m256 c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
    for (int64_t p = 0; p < kc; ++p) {
      const __m256 b0 = _mm256_loadu_ps(bp + p * kNr);
      const __m256 b1 = _mm256_loadu_ps(bp + p * kNr + 8);
      const float* av = ap + p * kMr;
      __m256 a = _mm256_broadcast_ss(av + 0);
      c00 = _mm256_fmadd_ps(a, b0, c00);
      c01 = _mm256_fmadd_ps(a, b1, c01);
      a = _mm256_broadcast_ss(av + 1);
      c10 = _mm256_fmadd_ps(a, b0, c10);
      c11 = _mm256_fmadd_ps(a, b1, c11);
      a = _mm256_broadcast_ss(av + 2);
      c20 = _mm256_fmadd_ps(a, b0, c20);
      c21 = _mm256_fmadd_ps(a, b1, c21);
      a = _mm256_broadcast_ss(av + 3);
      c30 = _mm256_fmadd_ps(a, b0, c30);
      c31 = _mm256_fmadd_ps(a, b1, c31);
      a = _mm256_broadcast_ss(av + 4);
      c40 = _mm256_fmadd_ps(a, b0, c40);
      c41 = _mm256_fmadd_ps(a, b1, c41);
      a = _mm256_broadcast_ss(av + 5);
      c50 = _mm256_fmadd_ps(a, b0, c50);
      c51 = _mm256_fmadd_ps(a, b1, c51);
    }
    _mm256_storeu_ps(c + 0 * ldc, c00);
    _mm256_storeu_ps(c + 0 * ldc + 8, c01);
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
    _mm256_storeu_ps(c + 4 * ldc, c40);
    _mm256_storeu_ps(c + 4 * ldc + 8, c41);
    _mm256_storeu_ps(c + 5 * ldc, c50);
    _mm256_storeu_ps(c + 5 * ldc + 8, c51);
  }

  static void DotChains(const float* a, const float* panel, int64_t n,
                        double* out) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (int64_t j = 0; j < n; ++j) {
      const __m256d av = _mm256_set1_pd(static_cast<double>(a[j]));
      const __m256 bv = _mm256_loadu_ps(panel + j * kTr);
      const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(bv));
      const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1));
      acc0 = _mm256_fmadd_pd(av, lo, acc0);
      acc1 = _mm256_fmadd_pd(av, hi, acc1);
    }
    _mm256_storeu_pd(out, acc0);
    _mm256_storeu_pd(out + 4, acc1);
  }

  template <int NT>
  static void ConvMicro(const float* ap, const float* b, const int64_t* offs,
                        int64_t k, float* c, int64_t ldc) {
    // 4 x 8*NT accumulators (12 at NT=3) + NT B vectors + 1 broadcast.
    // Fully unrolled constant loops let GCC keep the array in ymm
    // registers.
    __m256 acc[4][NT];
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
#pragma GCC unroll 3
      for (int t = 0; t < NT; ++t) acc[r][t] = _mm256_setzero_ps();
    }
    for (int64_t p = 0; p < k; ++p) {
      __m256 bv[NT];
#pragma GCC unroll 3
      for (int t = 0; t < NT; ++t) bv[t] = _mm256_loadu_ps(b + offs[p] + 8 * t);
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
        const __m256 a = _mm256_broadcast_ss(ap + p * 4 + r);
#pragma GCC unroll 3
        for (int t = 0; t < NT; ++t) {
          acc[r][t] = _mm256_fmadd_ps(a, bv[t], acc[r][t]);
        }
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
#pragma GCC unroll 3
      for (int t = 0; t < NT; ++t) {
        _mm256_storeu_ps(c + r * ldc + 8 * t, acc[r][t]);
      }
    }
  }

  template <int NV, int R, int NX>
  static void DwChains(const double* const* rows, const double* god,
                       int64_t ocp, int64_t ho, int64_t wo, int64_t stride,
                       int64_t wp, float* const* dst) {
    // NV*R*NX <= 12 __m256d chains (4 output channels each), fed by one
    // grad_out vector per 4 channels and one broadcast image value per
    // (row, kx): 8-12 independent fmadd_pd chains in flight.
    __m256d acc[R][NX][NV];
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 6
      for (int x = 0; x < NX; ++x) {
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) acc[r][x][v] = _mm256_setzero_pd();
      }
    }
    for (int64_t oy = 0; oy < ho; ++oy) {
      const double* src[R];
#pragma GCC unroll 2
      for (int r = 0; r < R; ++r) src[r] = rows[r] + oy * stride * wp;
      for (int64_t ox = 0; ox < wo; ++ox, god += ocp) {
        __m256d g[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) g[v] = _mm256_loadu_pd(god + 4 * v);
#pragma GCC unroll 2
        for (int r = 0; r < R; ++r) {
#pragma GCC unroll 6
          for (int x = 0; x < NX; ++x) {
            const __m256d xv = _mm256_broadcast_sd(src[r] + x);
#pragma GCC unroll 2
            for (int v = 0; v < NV; ++v) {
              acc[r][x][v] = _mm256_fmadd_pd(xv, g[v], acc[r][x][v]);
            }
          }
          src[r] += stride;
        }
      }
    }
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 6
      for (int x = 0; x < NX; ++x) {
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          // vcvtpd2ps rounds each lane like static_cast<float>.
          float* d = dst[r] + x * ocp + 4 * v;
          _mm_storeu_ps(d, _mm_add_ps(_mm_loadu_ps(d),
                                      _mm256_cvtpd_ps(acc[r][x][v])));
        }
      }
    }
  }
};

}  // namespace

const BlockedKernels* Avx2KernelsOrNull() {
  static const BlockedKernels table = {
      "avx2",
      static_cast<int>(Avx2Traits::kMr),
      static_cast<int>(Avx2Traits::kNr),
      static_cast<int>(Avx2Traits::kTr),
      &GemmAddBlockedT<Avx2Traits>,
      &GemmTransBBlockedT<Avx2Traits>,
      &ConvGemmT<Avx2Traits>,
      &ConvDwT<Avx2Traits>,
  };
  return &table;
}

}  // namespace internal
}  // namespace rfed

#else  // !RFED_HAVE_AVX2

#include "tensor/kernels_dispatch.h"

namespace rfed {
namespace internal {

const BlockedKernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace rfed

#endif  // RFED_HAVE_AVX2
