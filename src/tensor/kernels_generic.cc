// Portable blocked-kernel table, compiled at the baseline ISA of the
// build (no -m flags). The fused step is std::fmaf — glibc resolves it
// to the hardware FMA instruction when the CPU has one and to a
// correctly-rounded soft implementation otherwise, so this TU produces
// the canonical bits on every machine, merely slower than the SIMD
// tables. A 4x8 tile keeps the accumulators in registers even at
// baseline x86-64 (8 xmm worth) and matches the pre-SIMD kernels.

#include <cmath>
#include <cstdint>
#include <cstring>

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
                        int64_t k, int64_t vstride, float* c, int64_t ldc) {
    for (int64_t r = 0; r < 4; ++r) {
      for (int64_t t = 0; t < NT; ++t) {
        for (int64_t l = 0; l < 8; ++l) {
          float acc = 0.0f;
          for (int64_t p = 0; p < k; ++p) {
            acc = std::fmaf(ap[p * 4 + r], b[offs[p] + t * vstride + l], acc);
          }
          c[r * ldc + 8 * t + l] = acc;
        }
      }
    }
  }

  static void DxTile(const float* wp, const float* go, const int64_t* offs,
                     int64_t taps, int64_t cout, int64_t plane, int64_t pitch,
                     float* sum) {
    for (int64_t i = 0; i < 96; ++i) sum[i] = 0.0f;
    for (int64_t t = 0; t < taps; ++t) {
      const float* w = wp + t * cout * 4;
      for (int64_t r = 0; r < 3; ++r) {
        for (int64_t c = 0; c < 4; ++c) {
          for (int64_t l = 0; l < 8; ++l) {
            const float* g = go + offs[t] + r * pitch + l;
            float acc = 0.0f;
            for (int64_t oc = 0; oc < cout; ++oc) {
              acc = std::fmaf(w[oc * 4 + c], g[oc * plane], acc);
            }
            sum[(r * 4 + c) * 8 + l] += acc;
          }
        }
      }
    }
  }

  static void CopyLanes(const float* src, int64_t n, float* dst) {
    std::memcpy(dst, src, sizeof(float) * static_cast<size_t>(n));
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

// ---- Conv dw/db operand passes ----

void Widen(const float* x, int64_t rows, int64_t cols, int64_t ldy,
           double* y) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) y[i * ldy + j] = x[i * cols + j];
  }
}

void WidenTranspose(const float* x, int64_t rows, int64_t cols, double* y) {
  const int64_t ldy = (rows + 3) / 4 * 4;
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < ldy; ++i) {
      y[j * ldy + i] = i < rows ? static_cast<double>(x[i * cols + j]) : 0.0;
    }
  }
}

void ColumnSums(const double* x, int64_t mats, int64_t rows, int64_t cols,
                double* out) {
  for (int64_t m = 0; m < mats; ++m) {
    for (int64_t j = 0; j < cols; ++j) {
      double acc = 0.0;
      for (int64_t i = 0; i < rows; ++i) acc += x[(m * rows + i) * cols + j];
      out[m * cols + j] = acc;
    }
  }
}

// Elementwise passes as bit masks from the reference's own comparisons:
// the reference's data-dependent branches mispredict on sign-random
// activations, and GCC keeps most `?:` on floats as branches. A
// comparison yields an all-ones or all-zero mask; a cleared float is +0.

inline uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

inline float FromBits(uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// All ones when `cond`, else 0.
inline uint32_t Mask(bool cond) { return 0u - static_cast<uint32_t>(cond); }

void Relu(const float* x, int64_t n, float* y) {
  // std::max(0.0f, x) = 0 < x ? x : 0.
  for (int64_t i = 0; i < n; ++i) {
    y[i] = FromBits(Bits(x[i]) & Mask(0.0f < x[i]));
  }
}

void ReluBackward(const float* g, const float* x, int64_t n, float* dx) {
  for (int64_t i = 0; i < n; ++i) {
    dx[i] = FromBits(Bits(g[i]) & ~Mask(x[i] <= 0.0f));
  }
}

void MaxPoolForward(const float* x, int64_t rows, int64_t wo, float* out,
                    uint8_t* tap) {
  const int64_t w = 2 * wo;
  for (int64_t r = 0; r < rows; ++r, out += wo, tap += wo) {
    const float* top = x + r * 2 * w;
    for (int64_t ox = 0; ox < wo; ++ox) {
      const float v[4] = {top[2 * ox], top[2 * ox + 1], top[w + 2 * ox],
                          top[w + 2 * ox + 1]};
      float best = v[0];
      uint32_t k = 0;
      for (uint32_t t = 1; t < 4; ++t) {
        const uint32_t more = Mask(v[t] > best);
        // `a > b ? a : b` is exactly maxss, which GCC emits for it.
        best = v[t] > best ? v[t] : best;
        k = (t & more) | (k & ~more);
      }
      out[ox] = best;
      tap[ox] = static_cast<uint8_t>(k);
    }
  }
}

void MaxPoolBackward(const float* grad_out, const uint8_t* tap, int64_t rows,
                     int64_t wo, float* dx) {
  const int64_t w = 2 * wo;
  for (int64_t r = 0; r < rows; ++r, grad_out += wo, tap += wo) {
    float* top = dx + r * 2 * w;
    for (int64_t ox = 0; ox < wo; ++ox) {
      const uint32_t g = Bits(0.0f + grad_out[ox]);
      const uint32_t k = tap[ox];
      top[2 * ox] = FromBits(g & Mask(k == 0));
      top[2 * ox + 1] = FromBits(g & Mask(k == 1));
      top[w + 2 * ox] = FromBits(g & Mask(k == 2));
      top[w + 2 * ox + 1] = FromBits(g & Mask(k == 3));
    }
  }
}

void PlusZero(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = 0.0f + x[i];
}

void Fill(float* x, int64_t n, float value) {
  for (int64_t i = 0; i < n; ++i) x[i] = value;
}

void Scale(float* x, int64_t n, float s) {
  for (int64_t i = 0; i < n; ++i) x[i] *= s;
}

void Axpy(float a, const float* x, int64_t n, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

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
      &ConvDxT<GenericTraits>,
      &ConvDwT<GenericTraits>,
      &CopyRowsT<GenericTraits>,
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
  return table;
}

}  // namespace internal
}  // namespace rfed
