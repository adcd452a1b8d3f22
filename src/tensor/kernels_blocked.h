#ifndef RFED_TENSOR_KERNELS_BLOCKED_H_
#define RFED_TENSOR_KERNELS_BLOCKED_H_

// ISA-generic blocked GEMM driver, instantiated once per ISA TU with a
// Traits type supplying the register microkernels. Traits must provide:
//
//   static constexpr int64_t kMr;   // GemmAdd tile rows
//   static constexpr int64_t kNr;   // GemmAdd tile cols (B panel width)
//   static constexpr int64_t kTr;   // TransB chains per packed panel
//   static float Fma(float a, float b, float acc);   // fused step
//   // C tile [kMr,kNr] += Ap[kc,kMr] * Bpanel[kc,kNr], ascending p,
//   // one fused rounding per step per element:
//   static void Micro(const float* ap, const float* bp, int64_t kc,
//                     float* c, int64_t ldc);
//   // kTr double chains over an interleaved panel (panel[j*kTr + t] =
//   // B[p0+t, j]): out[t] = sum_j a[j] * panel[j*kTr+t], ascending j,
//   // one double rounding per step (exact products make mul+add and
//   // fma chains identical — either implementation is canonical):
//   static void DotChains(const float* a, const float* panel, int64_t n,
//                         double* out);
//   // Conv GEMM tile: C[4, 8*NT] = ap[k][4]^T * B[k, 8*NT] (row p of
//   // B at b + offs[p], used in place), ascending p from +0, one fused
//   // rounding per step; NT in {1, 3}:
//   template <int NT>
//   static void ConvMicro(const float* ap, const float* b,
//                         const int64_t* offs, int64_t k, float* c,
//                         int64_t ldc);
//   // Conv dw chains: dst[r][x*ocp + l] += float(sum over a = (oy, ox)
//   // ascending of god[a*ocp + l] * rows[r][oy*stride*wp +
//   // ox*stride + x]), one double rounding per step (exact products),
//   // l < 4*NV:
//   template <int NV, int R, int NX>
//   static void DwChains(const double* const* rows, const double* god,
//                        int64_t ocp, int64_t ho, int64_t wo,
//                        int64_t stride, int64_t wp, float* const* dst);
//
// Every instantiation computes the canonical summation order of
// kernels.h, so instantiations differ only in speed, never in bits.
// The drivers below own all blocking, packing, remainder handling and
// the deterministic n-partition; the Traits own only register tiles.

#include <algorithm>
#include <cstring>

#include "tensor/kernels_dispatch.h"

namespace rfed {
namespace internal {

/// Packs the full-kNr panels of a kc x nc block of B (row stride ldb)
/// into panel-major layout: panel j0/kNr holds kc rows of kNr
/// consecutive floats. Columns beyond the last full panel stay unpacked.
template <typename Traits>
void PackBPanels(const float* b, int64_t ldb, int64_t kc, int64_t full,
                 float* bp) {
  constexpr int64_t nr = Traits::kNr;
  for (int64_t j0 = 0; j0 < full; j0 += nr) {
    float* panel = bp + j0 * kc;
    for (int64_t p = 0; p < kc; ++p) {
      std::memcpy(panel + p * nr, b + p * ldb + j0,
                  sizeof(float) * static_cast<size_t>(nr));
    }
  }
}

/// Packs a kMr x kc tile of A (row stride lda) p-major: ap[p*kMr + i].
template <typename Traits>
void PackATile(const float* a, int64_t lda, int64_t kc, float* ap) {
  constexpr int64_t mr = Traits::kMr;
  for (int64_t p = 0; p < kc; ++p) {
    for (int64_t i = 0; i < mr; ++i) ap[p * mr + i] = a[i * lda + p];
  }
}

/// PackATile for a short tile: `rows` (< kMr) real rows of A, the rest
/// zero-padded, so the full-width microkernel can run the tail rows of
/// an m-block at vector speed (its results for the pad rows are
/// discarded by the caller).
template <typename Traits>
void PackATilePadded(const float* a, int64_t lda, int64_t kc, int64_t rows,
                     float* ap) {
  constexpr int64_t mr = Traits::kMr;
  for (int64_t p = 0; p < kc; ++p) {
    for (int64_t i = 0; i < rows; ++i) ap[p * mr + i] = a[i * lda + p];
    for (int64_t i = rows; i < mr; ++i) ap[p * mr + i] = 0.0f;
  }
}

/// One mc x nc block of C += (mc x kc of A) * (kc x nc of B). `bp` holds
/// the packed full panels, `b` the unpacked block origin for the
/// remainder columns.
template <typename Traits>
void GemmBlockT(const float* a, int64_t lda, const float* b, int64_t ldb,
                const float* bp, int64_t mc, int64_t kc, int64_t nc,
                int64_t full, float* c, int64_t ldc) {
  constexpr int64_t mr = Traits::kMr;
  constexpr int64_t nr = Traits::kNr;
  float* ap = ScratchArena::ThreadLocal().Buffer(
      kSlotPackA, static_cast<size_t>(mr * kc));
  int64_t ir = 0;
  for (; ir + mr <= mc; ir += mr) {
    PackATile<Traits>(a + ir * lda, lda, kc, ap);
    for (int64_t j0 = 0; j0 < full; j0 += nr) {
      Traits::Micro(ap, bp + j0 * kc, kc, c + ir * ldc + j0, ldc);
    }
    // Remainder columns of the packed rows: scalar fused, ascending p.
    for (int64_t i = 0; i < mr; ++i) {
      float* crow = c + (ir + i) * ldc;
      for (int64_t j = full; j < nc; ++j) {
        float acc = crow[j];
        for (int64_t p = 0; p < kc; ++p) {
          acc = Traits::Fma(ap[p * mr + i], b[p * ldb + j], acc);
        }
        crow[j] = acc;
      }
    }
  }
  // Remainder rows (< kMr): run the full-width microkernel on a
  // zero-padded A tile into a staging tile, keeping the tail at vector
  // speed (a scalar tail here costs more than all the full tiles on
  // shapes like m=64 = 10*6+4). Pad rows multiply zeros into a zeroed
  // staging row and are discarded; real rows see the exact canonical
  // sequence.
  if (ir < mc) {
    const int64_t rem = mc - ir;
    PackATilePadded<Traits>(a + ir * lda, lda, kc, rem, ap);
    float tile_c[mr * nr];
    for (int64_t j0 = 0; j0 < full; j0 += nr) {
      for (int64_t i = 0; i < rem; ++i) {
        std::memcpy(tile_c + i * nr, c + (ir + i) * ldc + j0,
                    sizeof(float) * static_cast<size_t>(nr));
      }
      std::memset(tile_c + rem * nr, 0,
                  sizeof(float) * static_cast<size_t>((mr - rem) * nr));
      Traits::Micro(ap, bp + j0 * kc, kc, tile_c, nr);
      for (int64_t i = 0; i < rem; ++i) {
        std::memcpy(c + (ir + i) * ldc + j0, tile_c + i * nr,
                    sizeof(float) * static_cast<size_t>(nr));
      }
    }
    // Remainder columns of the tail rows: scalar fused, ascending p.
    for (int64_t i = 0; i < rem; ++i) {
      float* crow = c + (ir + i) * ldc;
      for (int64_t j = full; j < nc; ++j) {
        float acc = crow[j];
        for (int64_t p = 0; p < kc; ++p) {
          acc = Traits::Fma(ap[p * mr + i], b[p * ldb + j], acc);
        }
        crow[j] = acc;
      }
    }
  }
}

/// The blocked GemmAdd driver. The parallel partition is over NC column
/// chunks of B/C (disjoint output columns, deterministic: a fixed
/// function of n and tile.block_n, never of the thread count). Each
/// worker packs its own B panels into its thread-local arena, so a
/// chunk's working set — one packed KCxNC panel block plus the mxNC
/// slab of C it updates — stays resident in that core's private cache;
/// this is what fixes the flat 1->4 thread scaling of the old
/// row-partitioned scheme, whose every thread streamed the whole of B.
template <typename Traits>
void GemmAddBlockedT(const float* a, const float* b, int64_t m, int64_t k,
                     int64_t n, float* c, const TileConfig& tile,
                     bool parallel) {
  constexpr int64_t nr = Traits::kNr;
  const int64_t mc_block = std::max<int64_t>(1, tile.block_m);
  const int64_t kc_block = std::max<int64_t>(1, tile.block_k);
  const int64_t nc_block =
      std::max<int64_t>(nr, static_cast<int64_t>(tile.block_n) / nr * nr);
  const int64_t chunks = (n + nc_block - 1) / nc_block;
  auto run_chunk = [&](int64_t ci) {
    const int64_t jc = ci * nc_block;
    const int64_t nc = std::min(nc_block, n - jc);
    const int64_t full = nc / nr * nr;
    for (int64_t pc = 0; pc < k; pc += kc_block) {  // ascending: determinism
      const int64_t kc = std::min(kc_block, k - pc);
      float* bp = ScratchArena::ThreadLocal().Buffer(
          kSlotPackB, static_cast<size_t>(kc * full));
      const float* bblock = b + pc * n + jc;
      PackBPanels<Traits>(bblock, n, kc, full, bp);
      for (int64_t ic = 0; ic < m; ic += mc_block) {
        const int64_t mc = std::min(mc_block, m - ic);
        GemmBlockT<Traits>(a + ic * k + pc, k, bblock, n, bp, mc, kc, nc,
                           full, c + ic * n + jc, n);
      }
    }
  };
  if (parallel) {
    KernelParallelFor(chunks, run_chunk);
  } else {
    for (int64_t ci = 0; ci < chunks; ++ci) run_chunk(ci);
  }
}

/// The blocked GemmTransBAssign driver: interleaves kTr consecutive
/// rows of B so one pass over a row of A feeds kTr independent
/// double-precision accumulator chains (breaking the reference's single
/// latency-bound chain); each chain still reduces in ascending j order
/// with exact float*float products, so every dot is bit-identical to
/// the reference. The caller packs once; row chunks of A/C are the
/// parallel partition.
template <typename Traits>
void GemmTransBBlockedT(const float* a, const float* b, int64_t m, int64_t n,
                        int64_t k, float* c, const TileConfig& tile,
                        bool parallel) {
  constexpr int64_t tr = Traits::kTr;
  const int64_t ktile = k / tr * tr;
  float* bp = ScratchArena::ThreadLocal().Buffer(
      kSlotPackTB, static_cast<size_t>(ktile * n));
  for (int64_t p0 = 0; p0 < ktile; p0 += tr) {
    float* panel = bp + p0 * n;
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t t = 0; t < tr; ++t) {
        panel[j * tr + t] = b[(p0 + t) * n + j];
      }
    }
  }
  const int64_t row_chunk = std::max<int64_t>(1, tile.block_m);
  const int64_t chunks = (m + row_chunk - 1) / row_chunk;
  auto run_chunk = [&](int64_t ci) {
    const int64_t i0 = ci * row_chunk;
    const int64_t i1 = std::min(m, i0 + row_chunk);
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * n;
      float* crow = c + i * k;
      for (int64_t p0 = 0; p0 < ktile; p0 += tr) {
        double acc[tr];
        Traits::DotChains(arow, bp + p0 * n, n, acc);
        for (int64_t t = 0; t < tr; ++t) {
          crow[p0 + t] = static_cast<float>(acc[t]);
        }
      }
      for (int64_t p = ktile; p < k; ++p) {
        const float* brow = b + p * n;
        double acc = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          acc += static_cast<double>(arow[j]) * brow[j];
        }
        crow[p] = static_cast<float>(acc);
      }
    }
  };
  if (parallel) {
    KernelParallelFor(chunks, run_chunk);
  } else {
    for (int64_t ci = 0; ci < chunks; ++ci) run_chunk(ci);
  }
}

/// The conv GEMM (BlockedKernels::conv_gemm): 4-row groups of the
/// packed A against B read in place, 24-column register tiles with an
/// 8-column tail. Each element is one ascending-p fused chain from +0;
/// the tiles only choose which elements are in flight.
template <typename Traits>
void ConvGemmT(const float* apack, const float* b, const int64_t* row_offsets,
               int64_t groups, int64_t k, int64_t n, float* c) {
  for (int64_t g = 0; g < groups; ++g) {
    const float* ap = apack + g * k * 4;
    float* cg = c + g * 4 * n;
    int64_t j = 0;
    for (; j + 24 <= n; j += 24) {
      Traits::template ConvMicro<3>(ap, b + j, row_offsets, k, cg + j, n);
    }
    for (; j < n; j += 8) {
      Traits::template ConvMicro<1>(ap, b + j, row_offsets, k, cg + j, n);
    }
  }
}

/// One dw tile at compile-time shape (NV channel vectors, R rows, NX
/// kx): resolves the row pointers, then runs the Traits chains.
template <typename Traits, int NV, int R, int NX>
void ConvDwTileT(const ConvDwTile& t) {
  const double* rows[R];
  float* dst[R];
  for (int r = 0; r < R; ++r) {
    const int64_t row = t.row0 + r;  // row = c * kernel + ky
    rows[r] = t.xpd + ((row / t.kernel) * t.hp + row % t.kernel) * t.wp +
              t.kx0;
    dst[r] = t.dwt + (row * t.kernel + t.kx0) * t.ocp + t.oc0;
  }
  Traits::template DwChains<NV, R, NX>(rows, t.god + t.oc0, t.ocp, t.ho,
                                       t.wo, t.stride, t.wp, dst);
}

template <typename Traits, int NV, int R>
void ConvDwRowsT(const ConvDwTile& t) {
  switch (t.nx) {
    case 1: return ConvDwTileT<Traits, NV, R, 1>(t);
    case 2: return ConvDwTileT<Traits, NV, R, 2>(t);
    case 3: return ConvDwTileT<Traits, NV, R, 3>(t);
    default: break;
  }
  if constexpr (NV * R * 6 <= 12) {
    switch (t.nx) {
      case 4: return ConvDwTileT<Traits, NV, R, 4>(t);
      case 5: return ConvDwTileT<Traits, NV, R, 5>(t);
      case 6: return ConvDwTileT<Traits, NV, R, 6>(t);
      default: break;
    }
  }
}

/// BlockedKernels::conv_dw: dispatches a runtime tile shape to its
/// compile-time instantiation (accumulators must be named registers).
template <typename Traits>
void ConvDwT(const ConvDwTile& t) {
  if (t.nv == 1) {
    if (t.rows == 1) return ConvDwRowsT<Traits, 1, 1>(t);
    return ConvDwRowsT<Traits, 1, 2>(t);
  }
  if (t.rows == 1) return ConvDwRowsT<Traits, 2, 1>(t);
  return ConvDwRowsT<Traits, 2, 2>(t);
}

}  // namespace internal
}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_BLOCKED_H_
