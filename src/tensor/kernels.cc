#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/autotune.h"
#include "tensor/kernels_dispatch.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rfed {
namespace {

using internal::kSlotConvCols;
using internal::kSlotConvGrad;
using internal::kSlotConvImage;
using internal::kSlotConvOffsets;
using internal::kSlotConvOut;
using internal::kSlotConvWeights;
using internal::kSlotTransA;

KernelOptions g_options;

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu
int g_pool_threads = 0;              // guarded by g_pool_mu

std::atomic<int64_t> g_scratch_bytes{0};
std::atomic<int64_t> g_scratch_peak{0};

void NotePeak(int64_t current) {
  int64_t peak = g_scratch_peak.load(std::memory_order_relaxed);
  while (current > peak &&
         !g_scratch_peak.compare_exchange_weak(peak, current,
                                               std::memory_order_relaxed)) {
  }
}

}  // namespace

const KernelOptions& GetKernelOptions() { return g_options; }

void SetKernelOptions(const KernelOptions& options) {
  KernelOptions fixed = options;
  fixed.block_m = std::max(1, fixed.block_m);
  fixed.block_k = std::max(1, fixed.block_k);
  fixed.block_n = std::max(1, fixed.block_n);
  g_options = fixed;
}

void SetKernelThreads(int threads) { g_options.threads = threads; }

bool KernelAvx2Available() {
  static const bool available = [] {
    if (internal::Avx2KernelsOrNull() == nullptr) return false;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") != 0;
#else
    return false;
#endif
  }();
  return available;
}

KernelIsa ActiveKernelIsa() {
  switch (g_options.isa) {
    case KernelIsa::kGeneric:
      return KernelIsa::kGeneric;
    case KernelIsa::kAvx2:
      RFED_CHECK(KernelAvx2Available())
          << "KernelOptions.isa forces AVX2 but this build/CPU lacks it";
      return KernelIsa::kAvx2;
    case KernelIsa::kAuto:
      break;
  }
  return KernelAvx2Available() ? KernelIsa::kAvx2 : KernelIsa::kGeneric;
}

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto:
      return "auto";
    case KernelIsa::kGeneric:
      return "generic";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

namespace {

/// The blocked-kernel table the next call dispatches to.
const internal::BlockedKernels& ActiveTable() {
  if (ActiveKernelIsa() == KernelIsa::kAvx2) {
    return *internal::Avx2KernelsOrNull();
  }
  return internal::GenericKernels();
}

}  // namespace

ScratchArena& ScratchArena::ThreadLocal() {
  thread_local ScratchArena arena;
  return arena;
}

void* ScratchArena::Raw(int slot, size_t bytes) {
  RFED_CHECK_GE(slot, 0);
  RFED_CHECK_LT(slot, kMaxSlots);
  Slot& s = slots_[slot];
  if (s.bytes < bytes) {
    const int64_t delta = static_cast<int64_t>(bytes - s.bytes);
    ::operator delete(s.data);
    s.data = ::operator new(bytes);
    s.bytes = bytes;
    NotePeak(g_scratch_bytes.fetch_add(delta, std::memory_order_relaxed) +
             delta);
  }
  return s.data;
}

ScratchArena::~ScratchArena() {
  int64_t total = 0;
  for (Slot& s : slots_) {
    total += static_cast<int64_t>(s.bytes);
    ::operator delete(s.data);
  }
  g_scratch_bytes.fetch_sub(total, std::memory_order_relaxed);
}

int64_t ScratchArena::PeakBytes() {
  return g_scratch_peak.load(std::memory_order_relaxed);
}

void ScratchArena::ResetPeak() {
  g_scratch_peak.store(g_scratch_bytes.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

void internal::ParallelForImpl(int64_t chunks, const void* ctx,
                               void (*trampoline)(const void*, int64_t)) {
  const int threads = g_options.threads;
  if (threads > 1 && chunks > 1) {
    // The pool is a process singleton; if another thread is mid-fan-out
    // (kernels called from the FL trainer's own worker pool), fall back
    // to the serial path — values never depend on the choice.
    std::unique_lock<std::mutex> lock(g_pool_mu, std::try_to_lock);
    if (lock.owns_lock()) {
      if (!g_pool || g_pool_threads != threads) {
        g_pool = std::make_unique<ThreadPool>(threads);
        g_pool_threads = threads;
      }
      g_pool->ParallelFor(static_cast<int>(chunks),
                          [&](int i) { trampoline(ctx, i); });
      return;
    }
  }
  for (int64_t i = 0; i < chunks; ++i) trampoline(ctx, i);
}

// ---- Canonical-order references ----

namespace ref {

void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      float* crow = c + p * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float* brow = b + p * n;
      double acc = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        acc += static_cast<double>(arow[j]) * brow[j];
      }
      crow[p] = static_cast<float>(acc);
    }
  }
}

}  // namespace ref

// ---- im2col / col2im ----

void Im2Col(const float* x, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* cols) {
  const int64_t k = spec.kernel;
  const int64_t ho = (h + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t wo = (w + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t out_area = ho * wo;
  int64_t row = 0;
  for (int64_t c = 0; c < cin; ++c) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx, ++row) {
        float* dst = cols + row * out_area;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t iy = oy * spec.stride + ky - spec.pad;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const int64_t ix = ox * spec.stride + kx - spec.pad;
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            dst[oy * wo + ox] = inside ? x[(c * h + iy) * w + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im(const float* cols, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* dx) {
  const int64_t k = spec.kernel;
  const int64_t ho = (h + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t wo = (w + 2 * spec.pad - k) / spec.stride + 1;
  const int64_t out_area = ho * wo;
  int64_t row = 0;
  for (int64_t c = 0; c < cin; ++c) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx, ++row) {
        const float* src = cols + row * out_area;
        for (int64_t oy = 0; oy < ho; ++oy) {
          const int64_t iy = oy * spec.stride + ky - spec.pad;
          if (iy < 0 || iy >= h) continue;
          for (int64_t ox = 0; ox < wo; ++ox) {
            const int64_t ix = ox * spec.stride + kx - spec.pad;
            if (ix < 0 || ix >= w) continue;
            dx[(c * h + iy) * w + ix] += src[oy * wo + ox];
          }
        }
      }
    }
  }
}

// ---- Blocked GEMM drivers (dispatch + autotune) ----

namespace {

// The uninstrumented GemmAdd body. GemmAdd wraps it with a trace span +
// FLOP counter; GemmTransAAdd calls it directly so one logical op never
// records nested kernel spans or double-counted FLOPs.

void GemmAddImpl(const float* a, const float* b, int64_t m, int64_t k,
                 int64_t n, float* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  const KernelOptions& opt = g_options;
  const int64_t flops = 2 * m * k * n;
  if (flops < opt.blocked_min_flops) {
    ref::GemmAdd(a, b, m, k, n, c);
    return;
  }
  const internal::BlockedKernels& table = ActiveTable();
  const bool parallel = flops >= opt.parallel_min_flops;
  TileConfig tile{opt.block_m, opt.block_k, opt.block_n};
  if (AutotuneEnabled()) {
    AutotuneTrial trial = 0;
    tile = AutotunePick(AutotuneOp::kGemmAdd, table.name, m, k, n, &trial);
    if (trial != 0) {
      Stopwatch watch;
      table.gemm_add(a, b, m, k, n, c, tile, parallel);
      AutotuneReport(trial, watch.ElapsedMillis());
      return;
    }
  }
  table.gemm_add(a, b, m, k, n, c, tile, parallel);
}

// FLOP counters are looked up once; the adds (and the spans) only run
// when tracing is enabled so the disabled path stays a single branch.
obs::Counter* GemmFlopCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("kernel.gemm_flops");
  return c;
}

obs::Counter* ConvFlopCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Get().GetCounter("kernel.conv_flops");
  return c;
}

}  // namespace

void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  if (obs::TracingEnabled()) {
    obs::TraceSpan span("gemm_add");
    GemmFlopCounter()->Add(2 * m * k * n);
    GemmAddImpl(a, b, m, k, n, c);
    return;
  }
  GemmAddImpl(a, b, m, k, n, c);
}

void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  obs::TraceSpan span("gemm_ta");
  if (obs::TracingEnabled()) GemmFlopCounter()->Add(2 * m * k * n);
  if (2 * m * k * n < g_options.blocked_min_flops) {
    ref::GemmTransAAdd(a, b, m, k, n, c);
    return;
  }
  // Transpose A into scratch, then C[k,n] += At[k,m] * B[m,n]: GemmAdd's
  // ascending contraction over m is exactly the reference's ascending-i
  // accumulation.
  float* at = ScratchArena::ThreadLocal().Buffer(kSlotTransA,
                                                 static_cast<size_t>(m * k));
  constexpr int64_t kTile = 32;
  for (int64_t i0 = 0; i0 < m; i0 += kTile) {
    const int64_t i1 = std::min(m, i0 + kTile);
    for (int64_t j0 = 0; j0 < k; j0 += kTile) {
      const int64_t j1 = std::min(k, j0 + kTile);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t j = j0; j < j1; ++j) at[j * m + i] = a[i * k + j];
      }
    }
  }
  GemmAddImpl(at, b, k, m, n, c);
}

void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c) {
  if (m <= 0 || k <= 0) return;
  obs::TraceSpan span("gemm_tb");
  if (obs::TracingEnabled()) {
    GemmFlopCounter()->Add(2 * m * (n > 0 ? n : 0) * k);
  }
  const KernelOptions& opt = g_options;
  if (n <= 0 || 2 * m * n * k < opt.blocked_min_flops) {
    ref::GemmTransBAssign(a, b, m, n, k, c);
    return;
  }
  const internal::BlockedKernels& table = ActiveTable();
  const bool parallel = 2 * m * n * k >= opt.parallel_min_flops;
  TileConfig tile{opt.block_m, opt.block_k, opt.block_n};
  if (AutotuneEnabled()) {
    AutotuneTrial trial = 0;
    tile = AutotunePick(AutotuneOp::kGemmTransB, table.name, m, n, k, &trial);
    if (trial != 0) {
      Stopwatch watch;
      table.gemm_transb(a, b, m, n, k, c, tile, parallel);
      AutotuneReport(trial, watch.ElapsedMillis());
      return;
    }
  }
  table.gemm_transb(a, b, m, n, k, c, tile, parallel);
}

// ---- Convolution drivers ----

namespace {

int64_t RoundUp(int64_t v, int64_t m) { return (v + m - 1) / m * m; }

/// The derived geometry every conv stage needs.
struct ConvGeom {
  explicit ConvGeom(const ConvKernelShape& shape)
      : s(shape),
        hp(shape.height + 2 * shape.pad),
        wp(shape.width + 2 * shape.pad),
        ho(shape.OutH()),
        wo(shape.OutW()),
        area(ho * wo),
        patch(shape.Patch()),
        in_size(shape.in_channels * shape.height * shape.width),
        padded_size(shape.in_channels * hp * wp),
        chunks((shape.batch + kConvChunkImages - 1) / kConvChunkImages) {}

  int64_t ChunkImages(int64_t ci) const {
    return std::min(kConvChunkImages, s.batch - ci * kConvChunkImages);
  }
  const ConvKernelShape& s;
  int64_t hp, wp, ho, wo, area, patch, in_size, padded_size, chunks;
};

/// KernelParallelFor for the conv stages, which fan out only when the
/// work they split reaches parallel_min_flops (as the GEMMs do): a conv
/// layer of the workload CNN is too small to repay a pool handoff per
/// chunk. Either way each task writes disjoint outputs, so values never
/// depend on the choice.
template <typename Fn>
void ConvParallelFor(int64_t tasks, int64_t flops, const Fn& fn) {
  if (flops >= g_options.parallel_min_flops) {
    KernelParallelFor(tasks, fn);
  } else {
    for (int64_t t = 0; t < tasks; ++t) fn(t);
  }
}

/// d[i] = f(i) for i < n, as blocks of four independent statements:
/// GCC's -O2 basic-block vectorizer turns each block into vector ops,
/// where a runtime-length loop would stay scalar. f may read d[i].
template <typename T, typename F>
void RowOp(int64_t n, T* d, const F& f) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const T v0 = f(i), v1 = f(i + 1), v2 = f(i + 2), v3 = f(i + 3);
    d[i] = v0;
    d[i + 1] = v1;
    d[i + 2] = v2;
    d[i + 3] = v3;
  }
  for (; i < n; ++i) d[i] = f(i);
}

/// Copies image x [cin, h, w] into xp [cin, hp, wp] with zero borders,
/// so the forward GEMM, GatherCols and the dw chains index it with no
/// bounds checks.
template <typename T>
void PadImage(const float* x, const ConvGeom& g, T* xp) {
  std::fill(xp, xp + g.padded_size, T(0));
  for (int64_t c = 0; c < g.s.in_channels; ++c) {
    for (int64_t y = 0; y < g.s.height; ++y) {
      const float* src = x + (c * g.s.height + y) * g.s.width;
      T* dst = xp + (c * g.hp + y + g.s.pad) * g.wp + g.s.pad;
      RowOp(g.s.width, dst, [&](int64_t i) { return static_cast<T>(src[i]); });
    }
  }
}

/// Packs `rows` rows of a [rows, k] operand (element (i, p) at
/// a[i * row_stride + p * col_stride]) into caller-thread scratch as
/// conv_gemm's A: 4-row groups p-major, apack[g][p][r], zero-filling the
/// rows of the last group. Every chunk task reads the result.
const float* PackConvWeights(const float* a, int64_t rows, int64_t k,
                             int64_t row_stride, int64_t col_stride) {
  float* apack = ScratchArena::ThreadLocal().Buffer(
      kSlotConvWeights, static_cast<size_t>((rows + 3) / 4 * 4 * k));
  for (int64_t g = 0; g < (rows + 3) / 4; ++g) {
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t r = 0; r < 4; ++r) {
        const int64_t i = g * 4 + r;
        apack[(g * k + p) * 4 + r] =
            i < rows ? a[i * row_stride + p * col_stride] : 0.0f;
      }
    }
  }
  return apack;
}

/// im2col of one padded image for strides > 1: cols[p][oy*wo + ox] =
/// xp[c, oy*stride + ky, ox*stride + kx], pad columns [area, ldc) zero.
void GatherCols(const float* xp, const ConvGeom& g, int64_t ldc, float* cols) {
  const int64_t k = g.s.kernel, stride = g.s.stride;
  for (int64_t c = 0; c < g.s.in_channels; ++c) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx) {
        float* row = cols + ((c * k + ky) * k + kx) * ldc;
        for (int64_t oy = 0; oy < g.ho; ++oy) {
          const float* src = xp + (c * g.hp + oy * stride + ky) * g.wp + kx;
          for (int64_t ox = 0; ox < g.wo; ++ox) {
            row[oy * g.wo + ox] = src[ox * stride];
          }
        }
        std::fill(row + g.area, row + ldc, 0.0f);
      }
    }
  }
}

/// col2im of one image's column gradients (row stride ldb) into dx
/// [cin, h, w]: every dx element receives its terms in ascending row
/// p = (c, ky, kx), one float add each — Col2Im's order. At stride 1
/// each (p, oy) term run is one contiguous row add.
void Col2ImRows(const float* dcols, int64_t ldb, const ConvGeom& g,
                float* dx) {
  const int64_t k = g.s.kernel, stride = g.s.stride, pad = g.s.pad;
  const int64_t h = g.s.height, w = g.s.width;
  for (int64_t c = 0; c < g.s.in_channels; ++c) {
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx) {
        const float* src = dcols + ((c * k + ky) * k + kx) * ldb;
        // Output columns whose input column ox*stride + kx - pad is in
        // [0, w): ox in [lo, hi).
        const int64_t lo =
            std::max<int64_t>(0, (pad - kx + stride - 1) / stride);
        const int64_t hi =
            std::min(g.wo, (w + pad - kx + stride - 1) / stride);
        if (lo >= hi) continue;
        for (int64_t oy = 0; oy < g.ho; ++oy) {
          const int64_t iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          float* d = dx + (c * h + iy) * w + lo * stride + kx - pad;
          const float* s_row = src + oy * g.wo + lo;
          if (stride == 1) {
            RowOp(hi - lo, d, [&](int64_t i) { return d[i] + s_row[i]; });
          } else {
            for (int64_t ox = 0; ox < hi - lo; ++ox) {
              d[ox * stride] += s_row[ox];
            }
          }
        }
      }
    }
  }
}

/// dw of the whole batch, accumulated in a transposed copy dwt
/// [patch][ocp]. Tasks own disjoint (channel, patch) tiles and walk the
/// images in ascending order inside each chunk, so each element sees
/// the reference sequence: per image one double chain ascending over
/// out_area, rounded to float and added.
void ConvWeightGrad(const float* grad_out, const float* x, const ConvGeom& g,
                    const internal::BlockedKernels& table, float* dw) {
  const ConvKernelShape& s = g.s;
  const int64_t ocp = RoundUp(s.out_channels, 4);
  const int64_t vectors = ocp / 4;
  // Tile plan (fixed by the shape): pairs of 4-channel vectors, up to 6
  // kx per chain row, two (c, ky) rows when the 12-chain budget allows.
  const int64_t nx = std::min<int64_t>(s.kernel, 6);
  const int64_t rows_per_tile =
      std::min<int64_t>(vectors, 2) * 2 * nx <= 12 ? 2 : 1;
  const int64_t oc_tiles = (vectors + 1) / 2;
  const int64_t chain_rows = s.in_channels * s.kernel;
  const int64_t row_tiles = (chain_rows + rows_per_tile - 1) / rows_per_tile;
  ScratchArena& arena = ScratchArena::ThreadLocal();
  float* dwt = arena.Buffer(kSlotConvCols, static_cast<size_t>(g.patch * ocp));
  double* god = arena.Typed<double>(
      kSlotConvGrad, static_cast<size_t>(kConvChunkImages * g.area * ocp));
  for (int64_t p = 0; p < g.patch; ++p) {
    for (int64_t oc = 0; oc < ocp; ++oc) {
      dwt[p * ocp + oc] = oc < s.out_channels ? dw[oc * g.patch + p] : 0.0f;
    }
  }
  for (int64_t ci = 0; ci < g.chunks; ++ci) {
    const int64_t i0 = ci * kConvChunkImages, nb = g.ChunkImages(ci);
    double* xpd = arena.Typed<double>(
        kSlotConvImage, static_cast<size_t>(nb * g.padded_size));
    const int64_t flops = 2 * nb * s.out_channels * g.patch * g.area;
    ConvParallelFor(nb, flops, [&](int64_t img) {
      PadImage(x + (i0 + img) * g.in_size, g, xpd + img * g.padded_size);
      const float* go = grad_out + (i0 + img) * s.out_channels * g.area;
      double* gi = god + img * g.area * ocp;
      if (ocp != s.out_channels) std::fill(gi, gi + g.area * ocp, 0.0);
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float* plane = go + oc * g.area;
        for (int64_t a = 0; a < g.area; ++a) gi[a * ocp + oc] = plane[a];
      }
    });
    ConvParallelFor(oc_tiles * row_tiles, flops, [&](int64_t task) {
      internal::ConvDwTile tile{};
      tile.ocp = ocp;
      tile.kernel = s.kernel;
      tile.stride = s.stride;
      tile.hp = g.hp;
      tile.wp = g.wp;
      tile.ho = g.ho;
      tile.wo = g.wo;
      tile.oc0 = (task / row_tiles) * 8;
      tile.nv = std::min<int64_t>(2, vectors - tile.oc0 / 4);
      tile.row0 = (task % row_tiles) * rows_per_tile;
      tile.rows = std::min(rows_per_tile, chain_rows - tile.row0);
      tile.dwt = dwt;
      for (int64_t img = 0; img < nb; ++img) {
        tile.xpd = xpd + img * g.padded_size;
        tile.god = god + img * g.area * ocp;
        for (tile.kx0 = 0; tile.kx0 < s.kernel; tile.kx0 += nx) {
          tile.nx = std::min(nx, s.kernel - tile.kx0);
          table.conv_dw(tile);
        }
      }
    });
  }
  for (int64_t oc = 0; oc < s.out_channels; ++oc) {
    for (int64_t p = 0; p < g.patch; ++p) {
      dw[oc * g.patch + p] = dwt[p * ocp + oc];
    }
  }
}

/// dx of the whole batch, chunk-parallel: per chunk one conv GEMM
/// dcols[p, img*area + a] = ascending-oc fused chain of w[oc, p] *
/// go[img, oc, a] (the reference's dcols), then col2im per image.
void ConvInputGrad(const float* grad_out, const float* w, const ConvGeom& g,
                   const internal::BlockedKernels& table, float* dx) {
  const ConvKernelShape& s = g.s;
  const int64_t groups = (g.patch + 3) / 4;
  // Row stride of the chunk GEMM's operands: a full chunk's columns
  // rounded up to the 8-column vector (pad columns are discarded).
  const int64_t ldb = RoundUp(kConvChunkImages * g.area, 8);
  const float* wt = PackConvWeights(w, g.patch, s.out_channels, 1, g.patch);
  int64_t* offsets = ScratchArena::ThreadLocal().Typed<int64_t>(
      kSlotConvOffsets, static_cast<size_t>(s.out_channels));
  for (int64_t oc = 0; oc < s.out_channels; ++oc) offsets[oc] = oc * ldb;
  const int64_t flops = 2 * s.batch * s.out_channels * g.patch * g.area;
  ConvParallelFor(g.chunks, flops, [&](int64_t ci) {
    const int64_t i0 = ci * kConvChunkImages, nb = g.ChunkImages(ci);
    const int64_t n = nb * g.area;
    ScratchArena& arena = ScratchArena::ThreadLocal();
    float* got = arena.Buffer(kSlotConvOut,
                              static_cast<size_t>(s.out_channels * ldb));
    for (int64_t oc = 0; oc < s.out_channels; ++oc) {
      float* row = got + oc * ldb;
      for (int64_t img = 0; img < nb; ++img) {
        std::memcpy(row + img * g.area,
                    grad_out + ((i0 + img) * s.out_channels + oc) * g.area,
                    sizeof(float) * static_cast<size_t>(g.area));
      }
      std::fill(row + n, row + ldb, 0.0f);
    }
    float* dcols =
        arena.Buffer(kSlotConvCols, static_cast<size_t>(groups * 4 * ldb));
    // dcols starts from +0, as the reference's pre-zeroed dcols. A short
    // last chunk still runs the full width: its extra columns read zeros
    // and are never scattered.
    table.conv_gemm(wt, got, offsets, groups, s.out_channels, ldb, dcols);
    for (int64_t img = 0; img < nb; ++img) {
      Col2ImRows(dcols + img * g.area, ldb, g, dx + (i0 + img) * g.in_size);
    }
  });
}

}  // namespace

void Conv2dForwardKernel(const float* x, const float* w, const float* bias,
                         const ConvKernelShape& s, float* out) {
  obs::TraceSpan trace_span("conv2d_fwd");
  if (obs::TracingEnabled()) {
    ConvFlopCounter()->Add(2 * s.batch * s.out_channels * s.Patch() *
                           s.OutArea());
  }
  const ConvGeom g(s);
  const internal::BlockedKernels& table = ActiveTable();
  const int64_t groups = (s.out_channels + 3) / 4;
  // Stride 1 needs no im2col: B row p = (c, ky, kx) is the padded image
  // itself shifted by (ky, kx), so output (oy, ox) is column oy*wp + ox
  // (pitch wp; columns with ox >= wo are computed and discarded). Other
  // strides gather an im2col matrix (pitch wo).
  const bool direct = s.stride == 1;
  const int64_t pitch = direct ? g.wp : g.wo;
  const int64_t ldc = RoundUp(g.ho * pitch, 8);
  const float* wpack = PackConvWeights(w, s.out_channels, g.patch, g.patch, 1);
  int64_t* offsets = ScratchArena::ThreadLocal().Typed<int64_t>(
      kSlotConvOffsets, static_cast<size_t>(g.patch));
  for (int64_t p = 0; p < g.patch; ++p) {
    const int64_t c = p / (s.kernel * s.kernel), kk = p % (s.kernel * s.kernel);
    offsets[p] =
        direct ? (c * g.hp + kk / s.kernel) * g.wp + kk % s.kernel : p * ldc;
  }
  // The direct GEMM's last 8 columns read up to kernel + 6 floats past
  // the padded image: zeroed slack.
  const int64_t slack = s.kernel + 8;
  const int64_t flops = 2 * s.batch * s.out_channels * g.patch * g.area;
  ConvParallelFor(g.chunks, flops, [&](int64_t ci) {
    ScratchArena& arena = ScratchArena::ThreadLocal();
    float* xp = arena.Buffer(kSlotConvImage,
                             static_cast<size_t>(g.padded_size + slack));
    std::fill(xp + g.padded_size, xp + g.padded_size + slack, 0.0f);
    float* b = direct ? xp
                      : arena.Buffer(kSlotConvCols,
                                     static_cast<size_t>(g.patch * ldc));
    float* acc =
        arena.Buffer(kSlotConvOut, static_cast<size_t>(groups * 4 * ldc));
    const int64_t i0 = ci * kConvChunkImages;
    for (int64_t i = i0; i < i0 + g.ChunkImages(ci); ++i) {
      PadImage(x + i * g.in_size, g, xp);
      if (!direct) GatherCols(xp, g, ldc, b);
      // Each chain starts from +0, the pre-zeroed output the reference's
      // GemmAdd accumulates into; the bias is added after.
      table.conv_gemm(wpack, b, offsets, groups, g.patch, ldc, acc);
      float* out_i = out + i * s.out_channels * g.area;
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float bv = bias[oc];
        for (int64_t oy = 0; oy < g.ho; ++oy) {
          const float* src = acc + oc * ldc + oy * pitch;
          RowOp(g.wo, out_i + oc * g.area + oy * g.wo,
                [&](int64_t i) { return src[i] + bv; });
        }
      }
    }
  });
}

void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db) {
  obs::TraceSpan trace_span("conv2d_bwd");
  if (obs::TracingEnabled()) {
    const int64_t gemms = (dw != nullptr ? 1 : 0) + (dx != nullptr ? 1 : 0);
    ConvFlopCounter()->Add(2 * s.batch * s.out_channels * s.Patch() *
                           s.OutArea() * gemms);
  }
  const ConvGeom g(s);
  const internal::BlockedKernels& table = ActiveTable();
  if (db != nullptr) {
    // One task per channel, adding the per-image sums in image order.
    ConvParallelFor(s.out_channels, s.batch * s.out_channels * g.area,
                    [&](int64_t oc) {
                      for (int64_t i = 0; i < s.batch; ++i) {
                        const float* plane =
                            grad_out + (i * s.out_channels + oc) * g.area;
                        double acc = 0.0;
                        for (int64_t a = 0; a < g.area; ++a) acc += plane[a];
                        db[oc] += static_cast<float>(acc);
                      }
                    });
  }
  if (dw != nullptr) ConvWeightGrad(grad_out, x, g, table, dw);
  if (dx != nullptr) ConvInputGrad(grad_out, w, g, table, dx);
}

// ---- Serial conv references ----

namespace ref {

void Conv2dForwardKernel(const float* x, const float* w, const float* bias,
                         const ConvKernelShape& s, float* out) {
  const int64_t patch = s.Patch();
  const int64_t out_area = s.OutArea();
  const Im2ColSpec ispec{s.kernel, s.stride, s.pad};
  const int64_t in_size = s.in_channels * s.height * s.width;
  const int64_t out_size = s.out_channels * out_area;
  std::vector<float> cols(static_cast<size_t>(patch * out_area));
  for (int64_t i = 0; i < s.batch; ++i) {
    Im2Col(x + i * in_size, s.in_channels, s.height, s.width, ispec,
           cols.data());
    float* out_i = out + i * out_size;
    GemmAdd(w, cols.data(), s.out_channels, patch, out_area, out_i);
    for (int64_t oc = 0; oc < s.out_channels; ++oc) {
      float* plane = out_i + oc * out_area;
      const float bv = bias[oc];
      for (int64_t p = 0; p < out_area; ++p) plane[p] += bv;
    }
  }
}

void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db) {
  const int64_t patch = s.Patch();
  const int64_t out_area = s.OutArea();
  const Im2ColSpec ispec{s.kernel, s.stride, s.pad};
  const int64_t in_size = s.in_channels * s.height * s.width;
  const int64_t out_size = s.out_channels * out_area;
  std::vector<float> cols(static_cast<size_t>(patch * out_area));
  std::vector<float> dcols(static_cast<size_t>(patch * out_area));
  for (int64_t i = 0; i < s.batch; ++i) {
    const float* go = grad_out + i * out_size;
    if (db != nullptr) {
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float* plane = go + oc * out_area;
        double acc = 0.0;
        for (int64_t p = 0; p < out_area; ++p) acc += plane[p];
        db[oc] += static_cast<float>(acc);
      }
    }
    if (dw != nullptr) {
      Im2Col(x + i * in_size, s.in_channels, s.height, s.width, ispec,
             cols.data());
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float* grow = go + oc * out_area;
        float* dwrow = dw + oc * patch;
        for (int64_t p = 0; p < patch; ++p) {
          const float* crow = cols.data() + p * out_area;
          double acc = 0.0;
          for (int64_t a = 0; a < out_area; ++a) {
            acc += static_cast<double>(grow[a]) * crow[a];
          }
          dwrow[p] += static_cast<float>(acc);
        }
      }
    }
    if (dx != nullptr) {
      std::fill(dcols.begin(), dcols.end(), 0.0f);
      for (int64_t oc = 0; oc < s.out_channels; ++oc) {
        const float* wrow = w + oc * patch;
        const float* grow = go + oc * out_area;
        for (int64_t p = 0; p < patch; ++p) {
          const float wv = wrow[p];
          if (wv == 0.0f) continue;
          float* drow = dcols.data() + p * out_area;
          for (int64_t a = 0; a < out_area; ++a) {
            drow[a] = std::fmaf(wv, grow[a], drow[a]);
          }
        }
      }
      Col2Im(dcols.data(), s.in_channels, s.height, s.width, ispec,
             dx + i * in_size);
    }
  }
}

}  // namespace ref

}  // namespace rfed
