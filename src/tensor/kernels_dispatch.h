#ifndef RFED_TENSOR_KERNELS_DISPATCH_H_
#define RFED_TENSOR_KERNELS_DISPATCH_H_

// Internal interface between the ISA-neutral kernel driver (kernels.cc)
// and the per-ISA blocked-kernel translation units (kernels_generic.cc,
// kernels_avx2.cc). Each ISA TU is compiled with its own instruction-set
// flags and exports one BlockedKernels table; kernels.cc picks a table
// at runtime from CPU detection plus the KernelOptions::isa override.
// Not part of the public API.

#include <cstdint>

#include "tensor/kernels.h"

namespace rfed {
namespace internal {

// Scratch slot convention (one ScratchArena per thread; nested kernel
// calls must use disjoint slots):
//   0  packed B panels of GemmAdd
//   1  packed A tile of GemmAdd
//   2  transposed A of GemmTransAAdd
//   3  conv: zero-padded image (float, fwd) / padded double images of
//      a chunk (dw, caller thread)
//   4  conv: im2col columns (fwd, stride > 1) / column gradients of a
//      chunk (dx) / dw transposed, [patch][ocp] (dw, caller thread)
//   5  conv: output staging (fwd) / chunk-transposed grad_out (dx)
//   6  interleaved B panels of GemmTransBAssign
//   8  packed conv weights (caller thread, read by every chunk)
//   9  grad_out of a conv chunk widened to double, [area][ocp] (dw)
//  10  B-row offsets of the conv GEMM (caller thread)
// (Slot 7 is left to callers outside the kernel layer.)
inline constexpr int kSlotPackB = 0;
inline constexpr int kSlotPackA = 1;
inline constexpr int kSlotTransA = 2;
inline constexpr int kSlotConvImage = 3;
inline constexpr int kSlotConvCols = 4;
inline constexpr int kSlotConvOut = 5;
inline constexpr int kSlotPackTB = 6;
inline constexpr int kSlotConvWeights = 8;
inline constexpr int kSlotConvGrad = 9;
inline constexpr int kSlotConvOffsets = 10;

/// One conv dw tile of one image (see ConvDwT in kernels_blocked.h):
/// the double chains sum_a god[a][oc] * xpd[c, oy*s + ky, ox*s + kx]
/// over output positions a = (oy, ox) ascending, for 4*nv output
/// channels from oc0, `rows` consecutive (c, ky) rows from row0 and the
/// kx range [kx0, kx0 + nx). Each chain is rounded to float and added
/// to its element of dwt.
struct ConvDwTile {
  const double* xpd;  ///< zero-padded image [cin, hp, wp]
  const double* god;  ///< grad_out of the image, [area][ocp], pad lanes 0
  int64_t ocp;        ///< out_channels rounded up to 4
  int64_t kernel, stride, hp, wp, ho, wo;
  int64_t oc0, nv, row0, rows, kx0, nx;
  float* dwt;         ///< dw transposed, [cin*kernel*kernel][ocp]
};

/// One ISA's blocked-kernel entry points. Every implementation computes
/// the canonical fused summation order (kernels.h), so all tables are
/// bit-interchangeable; only throughput differs.
struct BlockedKernels {
  const char* name;  ///< "avx2" / "generic".
  int mr;            ///< GemmAdd register tile rows.
  int nr;            ///< GemmAdd register tile columns (B panel width).
  int tr;            ///< GemmTransBAssign accumulator chains per panel.

  /// C[m,n] += A[m,k] B[k,n], blocked with `tile`, n-partitioned across
  /// the kernel pool when `parallel`.
  void (*gemm_add)(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c, const TileConfig& tile, bool parallel);

  /// C[m,k] = A[m,n] B[k,n]^T (double-precision row dots), row-chunked
  /// by tile.block_m, parallel across row chunks.
  void (*gemm_transb)(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c, const TileConfig& tile,
                      bool parallel);

  /// The conv GEMM, B read in place (no packing):
  /// C[4g + r, j] = sum_p apack[g][p][r] * b[row_offsets[p] + j] for
  /// g < groups, r < 4, j < n: an ascending-p chain from +0, one fused
  /// rounding per step (C is assigned, never read).
  /// n must be a multiple of 8 (C has row stride n); apack is
  /// [groups][k][4]. Row offsets let B be an im2col matrix or rows of a
  /// padded image shifted by (ky, kx).
  void (*conv_gemm)(const float* apack, const float* b,
                    const int64_t* row_offsets, int64_t groups, int64_t k,
                    int64_t n, float* c);

  /// One ConvDwTile; tiles satisfy nv <= 2, rows <= 2, nx <= 6 and
  /// nv * rows * nx <= 12 (the register budget of the AVX2 tile).
  void (*conv_dw)(const ConvDwTile& tile);

  /// The elementwise passes behind ReluKernel, ReluBackwardKernel,
  /// MaxPool2x2ForwardKernel, MaxPool2x2BackwardKernel and
  /// PlusZeroKernel (kernels.h states their contracts; docs/KERNELS.md
  /// "Elementwise" the exact NaN, signed-zero and tie semantics every
  /// table reproduces).
  void (*relu)(const float* x, int64_t n, float* y);
  void (*relu_backward)(const float* g, const float* x, int64_t n, float* dx);
  void (*maxpool2x2_fwd)(const float* x, int64_t rows, int64_t wo, float* out,
                         uint8_t* tap);
  void (*maxpool2x2_bwd)(const float* grad_out, const uint8_t* tap,
                         int64_t rows, int64_t wo, float* dx);
  void (*plus_zero)(float* x, int64_t n);
  /// The passes behind FillKernel, ScaleKernel and AxpyKernel.
  void (*fill)(float* x, int64_t n, float value);
  void (*scale)(float* x, int64_t n, float s);
  void (*axpy)(float a, const float* x, int64_t n, float* y);
};

/// The portable table (always available; soft-fma, compiled at the
/// baseline ISA).
const BlockedKernels& GenericKernels();

/// The AVX2+FMA table, or nullptr when the build could not compile it
/// (non-x86 target or a compiler without -mavx2/-mfma). Whether the
/// *CPU* can run it is a separate, runtime question (KernelAvx2Available).
const BlockedKernels* Avx2KernelsOrNull();

}  // namespace internal
}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_DISPATCH_H_
