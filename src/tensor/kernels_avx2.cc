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
//
// Elementwise (ReLU, max-pool, plus-zero): branch-free compare/blend
// sequences whose operand order reproduces the scalar references'
// NaN, signed-zero and tie behaviour (docs/KERNELS.md "Elementwise").

#ifdef RFED_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

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
                        int64_t k, int64_t vstride, float* c, int64_t ldc) {
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
      for (int t = 0; t < NT; ++t) {
        bv[t] = _mm256_loadu_ps(b + offs[p] + t * vstride);
      }
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

  static void DxTile(const float* wp, const float* go, const int64_t* offs,
                     int64_t taps, int64_t cout, int64_t plane, int64_t pitch,
                     float* sum) {
    // 12 accumulators (3 rows x 4 channels) + 3 grad_out rows + 1
    // broadcast weight per oc step; the running tap sums stay in `sum`
    // (L1), one load-add-store per accumulator per tap.
    for (int i = 0; i < 12; ++i) {
      _mm256_storeu_ps(sum + 8 * i, _mm256_setzero_ps());
    }
    for (int64_t t = 0; t < taps; ++t) {
      __m256 acc[3][4];
#pragma GCC unroll 3
      for (int r = 0; r < 3; ++r) {
#pragma GCC unroll 4
        for (int c = 0; c < 4; ++c) acc[r][c] = _mm256_setzero_ps();
      }
      const float* g = go + offs[t];
      const float* w = wp + t * cout * 4;
      for (int64_t oc = 0; oc < cout; ++oc, g += plane, w += 4) {
        __m256 gv[3];
#pragma GCC unroll 3
        for (int r = 0; r < 3; ++r) gv[r] = _mm256_loadu_ps(g + r * pitch);
#pragma GCC unroll 4
        for (int c = 0; c < 4; ++c) {
          const __m256 a = _mm256_broadcast_ss(w + c);
#pragma GCC unroll 3
          for (int r = 0; r < 3; ++r) {
            acc[r][c] = _mm256_fmadd_ps(a, gv[r], acc[r][c]);
          }
        }
      }
#pragma GCC unroll 3
      for (int r = 0; r < 3; ++r) {
#pragma GCC unroll 4
        for (int c = 0; c < 4; ++c) {
          float* d = sum + (r * 4 + c) * 8;
          _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), acc[r][c]));
        }
      }
    }
  }

  static void CopyLanes(const float* src, int64_t n, float* dst) {
    if (n == 8) {
      _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
      return;
    }
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(dst, mask, _mm256_maskload_ps(src, mask));
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

// ---- Conv dw/db operand passes ----
// float -> double is exact (vcvtps2pd), and the column sums are plain
// vaddpd chains, one per lane, so these equal the scalar loops.

void Widen(const float* x, int64_t rows, int64_t cols, int64_t ldy,
           double* y) {
  for (int64_t i = 0; i < rows; ++i, x += cols, y += ldy) {
    int64_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      _mm256_storeu_pd(y + j, _mm256_cvtps_pd(_mm_loadu_ps(x + j)));
    }
    for (; j < cols; ++j) y[j] = x[j];
  }
}

void WidenTranspose(const float* x, int64_t rows, int64_t cols, double* y) {
  const int64_t ldy = (rows + 3) / 4 * 4;
  for (int64_t i0 = 0; i0 < rows; i0 += 4) {
    const int64_t n = std::min<int64_t>(4, rows - i0);
    // Rows past `rows` load the last real row and are masked to +0.
    const float* src[4];
    for (int64_t q = 0; q < 4; ++q) {
      src[q] = x + (i0 + std::min(q, n - 1)) * cols;
    }
    const __m128 keep = _mm_castsi128_ps(_mm_cmpgt_epi32(
        _mm_set1_epi32(static_cast<int>(n)), _mm_setr_epi32(0, 1, 2, 3)));
    int64_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      // 4 rows x 4 columns: transpose, widen, one store per column.
      __m128 r0 = _mm_loadu_ps(src[0] + j), r1 = _mm_loadu_ps(src[1] + j);
      __m128 r2 = _mm_loadu_ps(src[2] + j), r3 = _mm_loadu_ps(src[3] + j);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      double* d = y + j * ldy + i0;
      _mm256_storeu_pd(d, _mm256_cvtps_pd(_mm_and_ps(r0, keep)));
      _mm256_storeu_pd(d + ldy, _mm256_cvtps_pd(_mm_and_ps(r1, keep)));
      _mm256_storeu_pd(d + 2 * ldy, _mm256_cvtps_pd(_mm_and_ps(r2, keep)));
      _mm256_storeu_pd(d + 3 * ldy, _mm256_cvtps_pd(_mm_and_ps(r3, keep)));
    }
    for (; j < cols; ++j) {
      for (int64_t q = 0; q < 4; ++q) {
        y[j * ldy + i0 + q] = q < n ? static_cast<double>(src[q][j]) : 0.0;
      }
    }
  }
}

void ColumnSums(const double* x, int64_t mats, int64_t rows, int64_t cols,
                double* out) {
  // Lane l = m*cols + j; a vector never straddles two matrices (4 | cols).
  // Four vectors per pass: four independent vaddpd chains.
  const int64_t vectors = mats * cols / 4;
  const auto column = [&](int64_t v) {
    const int64_t l = 4 * v;
    return x + l / cols * rows * cols + l % cols;
  };
  int64_t v = 0;
  for (; v + 4 <= vectors; v += 4) {
    const double* p0 = column(v);
    const double* p1 = column(v + 1);
    const double* p2 = column(v + 2);
    const double* p3 = column(v + 3);
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (int64_t i = 0; i < rows; ++i) {
      a0 = _mm256_add_pd(a0, _mm256_loadu_pd(p0 + i * cols));
      a1 = _mm256_add_pd(a1, _mm256_loadu_pd(p1 + i * cols));
      a2 = _mm256_add_pd(a2, _mm256_loadu_pd(p2 + i * cols));
      a3 = _mm256_add_pd(a3, _mm256_loadu_pd(p3 + i * cols));
    }
    _mm256_storeu_pd(out + 4 * v, a0);
    _mm256_storeu_pd(out + 4 * v + 4, a1);
    _mm256_storeu_pd(out + 4 * v + 8, a2);
    _mm256_storeu_pd(out + 4 * v + 12, a3);
  }
  for (; v < vectors; ++v) {
    const double* p = column(v);
    __m256d a = _mm256_setzero_pd();
    for (int64_t i = 0; i < rows; ++i) {
      a = _mm256_add_pd(a, _mm256_loadu_pd(p + i * cols));
    }
    _mm256_storeu_pd(out + 4 * v, a);
  }
}

// ---- Elementwise ----
// vmaxps(x, 0) returns its second operand unless x > 0, so NaN and -0
// become +0 exactly as std::max(0.0f, x) = (0 < x ? x : 0) does. The
// backward mask is an ordered x <= 0 (false for NaN), cleared lanes
// are +0 bits. Tails run the same instruction on lane 0 (maxss, cmpless).

void Relu(const float* x, int64_t n, float* y) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    _mm_store_ss(y + i, _mm_max_ss(_mm_load_ss(x + i), _mm_setzero_ps()));
  }
}

void ReluBackward(const float* g, const float* x, int64_t n, float* dx) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 m = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_LE_OQ);
    _mm256_storeu_ps(dx + i, _mm256_andnot_ps(m, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    const __m128 m = _mm_cmple_ss(_mm_load_ss(x + i), _mm_setzero_ps());
    _mm_store_ss(dx + i, _mm_andnot_ps(m, _mm_load_ss(g + i)));
  }
}

// The pool works on 4 windows at a time: 8 floats of the top and of the
// bottom input row, deinterleaved into the four tap vectors. A row of
// wo >= 4 windows runs steps at ox = 0, 4, ... and, when 4 does not
// divide wo, a last step at wo - 4 that redoes some windows with the
// same result. A row of wo < 4 windows runs one step that reads and
// writes past the row into the next ones, whose own steps then
// overwrite those outputs; the last rows, whose step would leave the
// tensor, run the per-window code.

/// Compares tap vector v (tap index t) against the running maximum.
/// Ordered compares are false on NaN, so a NaN best is never replaced
/// and a NaN tap never wins — the reference's `if (v > best)`.
inline void PoolTap(__m128 v, int t, __m128* best, __m128i* idx) {
  const __m128 more = _mm_cmp_ps(v, *best, _CMP_GT_OQ);
  *best = _mm_blendv_ps(*best, v, more);
  *idx = _mm_blendv_epi8(*idx, _mm_set1_epi32(t), _mm_castps_si128(more));
}

/// Pools 4 windows: reads 8 floats from top and from bot, writes 4
/// outputs and 4 tap bytes.
inline void PoolStep(const float* top, const float* bot, float* out,
                     uint8_t* tap) {
  const __m128 tl = _mm_loadu_ps(top), th = _mm_loadu_ps(top + 4);
  const __m128 bl = _mm_loadu_ps(bot), bh = _mm_loadu_ps(bot + 4);
  __m128 best = _mm_shuffle_ps(tl, th, _MM_SHUFFLE(2, 0, 2, 0));
  __m128i idx = _mm_setzero_si128();
  PoolTap(_mm_shuffle_ps(tl, th, _MM_SHUFFLE(3, 1, 3, 1)), 1, &best, &idx);
  PoolTap(_mm_shuffle_ps(bl, bh, _MM_SHUFFLE(2, 0, 2, 0)), 2, &best, &idx);
  PoolTap(_mm_shuffle_ps(bl, bh, _MM_SHUFFLE(3, 1, 3, 1)), 3, &best, &idx);
  _mm_storeu_ps(out, best);
  const __m128i idx16 = _mm_packus_epi32(idx, idx);
  const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(idx16, idx16));
  std::memcpy(tap, &bytes, 4);
}

/// Unpools 4 windows: reads 4 gradients and 4 tap bytes, writes 8 floats
/// of the top and of the bottom row — 0 + g at the tap (the reference's
/// add into a zeroed dx), +0 at the other three.
inline void UnpoolStep(const float* grad_out, const uint8_t* tap, float* top,
                       float* bot) {
  const __m128 g = _mm_add_ps(_mm_setzero_ps(), _mm_loadu_ps(grad_out));
  int bytes;
  std::memcpy(&bytes, tap, 4);
  const __m128i idx = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(bytes));
  const auto at = [&](int t) {
    return _mm_and_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(idx, _mm_set1_epi32(t))), g);
  };
  const __m128 v0 = at(0), v1 = at(1), v2 = at(2), v3 = at(3);
  // Re-interleave: the top row is (v0, v1) pairs, the bottom (v2, v3).
  _mm_storeu_ps(top, _mm_unpacklo_ps(v0, v1));
  _mm_storeu_ps(top + 4, _mm_unpackhi_ps(v0, v1));
  _mm_storeu_ps(bot, _mm_unpacklo_ps(v2, v3));
  _mm_storeu_ps(bot + 4, _mm_unpackhi_ps(v2, v3));
}

/// Rows of a [rows, wo]-window pool that run 4-window steps: every row
/// when wo >= 4; otherwise the rows whose step — 8 floats from the
/// bottom row's start, 4 outputs from the row's first — stays inside
/// the tensor.
int64_t SteppedRows(int64_t rows, int64_t wo) {
  if (wo >= 4) return rows;
  const int64_t w = 2 * wo;
  int64_t r = rows;
  while (r > 0 && ((r - 1) * 2 * w + w + 8 > rows * 2 * w ||
                   (r - 1) * wo + 4 > rows * wo)) {
    --r;
  }
  return r;
}

void MaxPoolForward(const float* x, int64_t rows, int64_t wo, float* out,
                    uint8_t* tap) {
  const int64_t w = 2 * wo;
  const int64_t stepped = SteppedRows(rows, wo);
  for (int64_t r = 0; r < stepped; ++r) {
    const float* top = x + r * 2 * w;
    for (int64_t ox = 0; ox < wo; ox += 4) {
      const int64_t o = wo >= 4 ? std::min(ox, wo - 4) : 0;
      PoolStep(top + 2 * o, top + w + 2 * o, out + r * wo + o,
               tap + r * wo + o);
    }
  }
  const int64_t done = stepped * wo;
  GenericKernels().maxpool2x2_fwd(x + done * 4, rows - stepped, wo,
                                  out + done, tap + done);
}

void MaxPoolBackward(const float* grad_out, const uint8_t* tap, int64_t rows,
                     int64_t wo, float* dx) {
  const int64_t w = 2 * wo;
  const int64_t stepped = SteppedRows(rows, wo);
  for (int64_t r = 0; r < stepped; ++r) {
    float* top = dx + r * 2 * w;
    for (int64_t ox = 0; ox < wo; ox += 4) {
      const int64_t o = wo >= 4 ? std::min(ox, wo - 4) : 0;
      UnpoolStep(grad_out + r * wo + o, tap + r * wo + o, top + 2 * o,
                 top + w + 2 * o);
    }
  }
  const int64_t done = stepped * wo;
  GenericKernels().maxpool2x2_bwd(grad_out + done, tap + done, rows - stepped,
                                  wo, dx + done * 4);
}

void PlusZero(float* x, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_add_ps(zero, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = 0.0f + x[i];
}

void Fill(float* x, int64_t n, float value) {
  const __m256 v = _mm256_set1_ps(value);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(x + i, v);
  for (; i < n; ++i) x[i] = value;
}

void Scale(float* x, int64_t n, float s) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

// mul then add: -ffp-contract=off keeps the pair from fusing into an fma.
void Axpy(float a, const float* x, int64_t n, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

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
      &ConvDxT<Avx2Traits>,
      &ConvDwT<Avx2Traits>,
      &CopyRowsT<Avx2Traits>,
      &Widen,
      &WidenTranspose,
      &ColumnSums,
      &Relu,
      &ReluBackward,
      &MaxPoolForward,
      &MaxPoolBackward,
      &PlusZero,
      &Fill,
      &Scale,
      &Axpy,
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
