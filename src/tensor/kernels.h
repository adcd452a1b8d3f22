#ifndef RFED_TENSOR_KERNELS_H_
#define RFED_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace rfed {

// High-performance deterministic compute kernels.
//
// This layer owns the hot inner loops of the simulator: the three GEMM
// variants every Linear/LSTM forward and backward bottoms out in, the
// Conv2d forward and backward drivers, and the CNN's ReLU and 2x2
// max-pool passes. The GEMM and conv kernels are cache-blocked, packed,
// and vectorized with explicit SIMD register tiles (AVX2+FMA where the
// CPU has it, a portable soft-fma fallback everywhere else, dispatched
// at runtime), and can optionally run n-partitioned across a thread
// pool — while staying **bit-identical** to the retained reference
// implementations (rfed::ref below) for every ISA, block size, tile
// candidate and thread count. The rule that makes this possible:
//
//   Each output element is reduced by exactly one thread, in exactly the
//   canonical summation order: ascending over the contraction index with
//   ONE fused multiply-add rounding per step (float fma for the
//   accumulate GEMMs, a double-precision chain for GemmTransBAssign).
//   Blocking and vectorization only reorder *which* elements are in
//   flight, never the operations within one element; the parallel
//   partition splits disjoint output regions, never a reduction.
//
// Fused rounding is what lets the AVX2 path run at FMA throughput; the
// references implement the same contract with std::fmaf (correctly
// rounded on every platform, hardware FMA or not), so goldens are
// byte-stable across ISAs. The build compiles with -ffp-contract=off so
// no *implicit* contraction can ever diverge from this explicit scheme.
//
// Batched reductions that the references accumulate serially (Conv2d's
// dw/db across the batch) keep that serial order: each dw/db element is
// owned by one thread, which adds the per-image terms in ascending image
// order — the same float addition sequence the reference performs. See
// docs/KERNELS.md for the full scheme, the per-ISA microkernel shapes,
// the cache layout of the packed panels and the conv layouts.
//
// Caveat (documented, tested): the references skip multiplications by an
// exact 0.0f operand; the blocked kernels do not. Under IEEE-754
// round-to-nearest fma(±0, b, acc) never changes a finite accumulator,
// so results are still bit-identical for finite inputs — but non-finite
// inputs (Inf/NaN weights) may produce NaN where the reference skipped
// the element.

/// Instruction-set selection for the blocked kernels. kAuto picks the
/// best path the CPU supports at runtime; the explicit values force a
/// path (tests pin kGeneric to prove cross-ISA bit-identity). Forcing
/// kAvx2 on a CPU without AVX2+FMA aborts.
enum class KernelIsa { kAuto, kGeneric, kAvx2 };

/// One blocking configuration of a blocked GEMM: MC rows of A, KC of
/// the contraction dimension (always processed in ascending order —
/// required for bit-identity), NC columns of B per packed panel. NC is
/// also the n-partition grain of the threaded path. For
/// GemmTransBAssign only block_m (the row chunk) is meaningful.
struct TileConfig {
  int block_m = 64;
  int block_k = 256;
  int block_n = 1024;
};

/// Global knobs of the kernel layer. All fields may be changed at run
/// time (tests shrink the blocks to force edge paths); reads are cheap.
/// Not thread-safe against concurrent mutation — set once before
/// training, as FlConfig/experiment_cli do.
struct KernelOptions {
  /// Worker threads for the n-partitioned kernels. <= 1 runs everything
  /// on the calling thread (the default: all existing call sites are
  /// unaffected). The partition is deterministic, so any value produces
  /// bit-identical results.
  int threads = 1;
  /// Cache blocking of the blocked GEMMs.
  TileConfig tile;
  /// Minimum 2*m*k*n FLOP count before a GEMM fans out to the pool;
  /// below it threading overhead dominates.
  int64_t parallel_min_flops = 1 << 21;
  /// Minimum FLOP count before the blocked/packed path engages; tiny
  /// products run the naive reference directly (identical bits, no
  /// packing overhead). Tests set 0 to force the blocked path.
  int64_t blocked_min_flops = 8192;
  /// SIMD dispatch override; kAuto = best supported.
  KernelIsa isa = KernelIsa::kAuto;
};

/// The process-wide options instance the kernels read.
const KernelOptions& GetKernelOptions();
/// Replaces the options wholesale (tests: block-size overrides).
void SetKernelOptions(const KernelOptions& options);
/// Sets only the thread count (the FlConfig/--kernel_threads knob).
void SetKernelThreads(int threads);

/// The ISA the next kernel call will run on, after applying the
/// KernelOptions override to what the CPU supports.
KernelIsa ActiveKernelIsa();
/// Short stable name ("avx2", "generic") — used in bench output.
const char* KernelIsaName(KernelIsa isa);
/// Whether this build+CPU can run the AVX2+FMA path.
bool KernelAvx2Available();

/// Grow-only per-thread scratch buffers the kernels pack panels, padded
/// images and conv columns into, so steady-state training allocates
/// nothing per call. Each caller owns a slot id (see kernels_dispatch.h
/// for the convention); a slot's pointer is valid until the same thread
/// requests the same slot again. A process-wide high-water mark of allocated
/// scratch is kept for the RunHistory accounting.
class ScratchArena {
 public:
  /// The calling thread's arena.
  static ScratchArena& ThreadLocal();

  /// Returns `floats` contiguous floats for `slot` (contents
  /// unspecified), growing the slot if needed.
  float* Buffer(int slot, size_t floats) { return Typed<float>(slot, floats); }

  /// Buffer() for another trivial element type. Slots are untyped
  /// storage, so one slot may hold floats in one kernel call and
  /// doubles in the next.
  template <typename T>
  T* Typed(int slot, size_t count) {
    return static_cast<T*>(Raw(slot, count * sizeof(T)));
  }

  /// Peak total scratch bytes allocated across all thread arenas since
  /// start (or the last ResetPeak).
  static int64_t PeakBytes();
  static void ResetPeak();

 private:
  ScratchArena() = default;
  ~ScratchArena();
  void* Raw(int slot, size_t bytes);
  struct Slot {
    void* data = nullptr;  ///< ::operator new storage
    size_t bytes = 0;
  };
  static constexpr int kMaxSlots = 11;
  Slot slots_[kMaxSlots];
};

// ---- Blocked kernels (row-major raw pointers) ----
// None of the output pointers may alias the inputs.

/// C[m,n] += A[m,k] * B[k,n]. Bit-identical to ref::GemmAdd.
void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c);

/// C[k,n] += A[m,k]^T * B[m,n]. Bit-identical to ref::GemmTransAAdd.
void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c);

/// C[m,k] = A[m,n] * B[k,n]^T, each element one double-precision dot of
/// two contiguous rows. Bit-identical to ref::GemmTransBAssign.
void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c);

/// Runs fn(chunk) for chunk in [0, chunks) on the kernel pool when
/// options.threads > 1 (serially otherwise, or when the pool is already
/// busy — values never depend on the choice). fn must write disjoint
/// state per chunk.
template <typename Fn>
void KernelParallelFor(int64_t chunks, const Fn& fn);
namespace internal {
void ParallelForImpl(int64_t chunks, const void* ctx,
                     void (*trampoline)(const void*, int64_t));
}
template <typename Fn>
void KernelParallelFor(int64_t chunks, const Fn& fn) {
  internal::ParallelForImpl(
      chunks, &fn, +[](const void* ctx, int64_t i) {
        (*static_cast<const Fn*>(ctx))(i);
      });
}

// ---- Convolution plumbing ----

/// Unfolds one NCHW image x [cin, h, w] into im2col columns
/// cols [cin*k*k, ho*wo] for a square kernel (zero padding outside).
/// Im2Col and Col2Im define the references' layout; the optimized conv
/// drivers work on zero-padded image copies instead.
struct Im2ColSpec {
  int64_t kernel = 0;
  int64_t stride = 1;
  int64_t pad = 0;
};
void Im2Col(const float* x, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* cols);

/// Adjoint of Im2Col: accumulates column gradients back into dx
/// [cin, h, w] (dx must be pre-zeroed by the caller; overlapping windows
/// add).
void Col2Im(const float* cols, int64_t cin, int64_t h, int64_t w,
            const Im2ColSpec& spec, float* dx);

/// Shape bundle of one NCHW convolution (square kernel).
struct ConvKernelShape {
  int64_t batch = 0;
  int64_t in_channels = 0;
  int64_t height = 0;
  int64_t width = 0;
  int64_t out_channels = 0;
  int64_t kernel = 0;
  int64_t stride = 1;
  int64_t pad = 0;

  int64_t OutH() const { return (height + 2 * pad - kernel) / stride + 1; }
  int64_t OutW() const { return (width + 2 * pad - kernel) / stride + 1; }
  int64_t OutArea() const { return OutH() * OutW(); }
  int64_t Patch() const { return in_channels * kernel * kernel; }
};

/// Images per chunk of the conv drivers: the forward and dx thread
/// partition is over chunks, the dx GEMM runs once per chunk (4 images
/// make its width 4*Ho*Wo a multiple of the 8-wide vector whenever
/// Ho*Wo is even), and conv scratch is bounded by one chunk per thread
/// whatever the batch (map_sync forwards 256 examples at once).
inline constexpr int64_t kConvChunkImages = 4;

/// out[B, Cout, Ho, Wo] = conv(x[B, Cin, H, W], w[Cout, Cin*K*K]) + bias.
/// Per image: a zero-padded copy, then one conv GEMM of the packed
/// weights against it — at stride 1 read in place as rows shifted by
/// (ky, kx), no im2col; other strides gather im2col columns first.
/// Chunk-parallel. `out` must be pre-zeroed (it is overwritten).
/// Bit-identical to ref::Conv2dForwardKernel.
void Conv2dForwardKernel(const float* x, const float* w, const float* bias,
                         const ConvKernelShape& s, float* out);

/// Gradients of Conv2dForwardKernel; any of dx/dw/db may be null to
/// skip, non-null outputs must be pre-zeroed. dx: per chunk one conv
/// GEMM of the transposed weights against grad_out (n = chunk * Ho*Wo),
/// then col2im, chunk-parallel. dw: register-blocked double chains over
/// a padded double copy of each image, parallel over (channel, patch)
/// tiles that each walk the images in ascending order. db: parallel
/// over channels, each adding its per-image sums in image order.
/// Bit-identical to ref::Conv2dBackwardKernel.
void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db);

// ---- Elementwise: ReLU and 2x2 max-pool ----
// Branch-free kernels from the active ISA table, bit-identical to the
// ref:: loops below for every input: NaN payloads, signed zeros, Inf
// and denormals included (docs/KERNELS.md "Elementwise").

/// y[i] = max(x[i], 0) as the reference's std::max(0.0f, x): positive
/// values and +Inf pass, everything else — negatives, -0 and NaN —
/// becomes +0. y may equal x.
void ReluKernel(const float* x, int64_t n, float* y);

/// dx[i] = x[i] <= 0 ? +0 : g[i]. The mask is the forward input's
/// `x <= 0`, so a NaN x passes its gradient through. dx may equal g.
void ReluBackwardKernel(const float* g, const float* x, int64_t n, float* dx);

/// 2x2 stride-2 max pool over `rows` output rows of `wo` elements;
/// output row r reads input rows 2r and 2r + 1 (width 2*wo), so an NCHW
/// tensor [B, C, 2*Ho, 2*wo] is rows = B*C*Ho. The window's taps are
/// numbered 0 = (top, left), 1 = (top, right), 2 = (bottom, left),
/// 3 = (bottom, right). The maximum starts at tap 0 and a later tap
/// replaces it only when strictly greater: ties keep the first tap, a
/// NaN at tap 0 wins its window and a later NaN never does. tap[o]
/// receives the winning tap of output o.
void MaxPool2x2ForwardKernel(const float* x, int64_t rows, int64_t wo,
                             float* out, uint8_t* tap);

/// Adjoint of MaxPool2x2ForwardKernel: writes every element of dx
/// [rows*2, 2*wo] — 0.0f + grad_out[o] at the winning tap of window o
/// (which turns a -0 gradient into +0, as the reference's add into a
/// zeroed dx does) and +0 at the other three taps. dx needs no
/// pre-zeroing.
void MaxPool2x2BackwardKernel(const float* grad_out, const uint8_t* tap,
                              int64_t rows, int64_t wo, float* dx);

/// x[i] = 0.0f + x[i] in place: what a zero-filled buffer holds once x
/// is added into it. -0 becomes +0; every other value is kept, NaNs
/// (quieted) with their payloads. Lets a gradient buffer be adopted
/// instead of zero-filled and added to (GraphNode::AccumulateGrad).
void PlusZeroKernel(float* x, int64_t n);

// ---- Elementwise: fill, scale, axpy ----
// No reduction, so every table is bit-identical to the ref:: loops by
// construction: each element is one IEEE operation (or none) in both.
// One exception: when both operands of one multiply or add are NaN,
// which payload survives depends on the operand order the compiler
// picked for the reference loop. The kernels keep the source order
// (x * s, a * x, y + product); the tests never pair two NaNs.

/// x[i] = value (its bits, NaN payloads and -0 included).
void FillKernel(float* x, int64_t n, float value);
/// x[i] = x[i] * s (Tensor::MulInPlace).
void ScaleKernel(float* x, int64_t n, float s);
/// y[i] = y[i] + (a * x[i]): the product rounded, then the sum — two
/// roundings, never a fused multiply-add (Tensor::Axpy: the optimizer
/// step and the FedAvg aggregate).
void AxpyKernel(float a, const float* x, int64_t n, float* y);

// ---- Canonical-order references ----
// The scalar ground-truth kernels: portable, single-threaded, no
// blocking, one std::fma(f) per reduction step — the canonical
// summation order every optimized path must reproduce bit for bit
// (tests/kernel_test.cc) and the speedup baseline for
// bench_micro_kernels. These descend from the seed's naive loops; the
// only numeric change since the seed is the fused rounding, made when
// the SIMD microkernels landed (goldens regenerated once, see
// docs/KERNELS.md).
namespace ref {

/// C[m,n] += A[m,k] * B[k,n], ikj order, fused steps, skipping zero A
/// elements.
void GemmAdd(const float* a, const float* b, int64_t m, int64_t k, int64_t n,
             float* c);
/// C[k,n] += A[m,k]^T * B[m,n], i-outer order, fused steps, skipping
/// zero A elements.
void GemmTransAAdd(const float* a, const float* b, int64_t m, int64_t k,
                   int64_t n, float* c);
/// C[m,k] = A[m,n] * B[k,n]^T via double-precision row dots. (For float
/// inputs the double product is exact, so mul+add and fma chains are
/// the same bits — this kernel is unchanged from the seed.)
void GemmTransBAssign(const float* a, const float* b, int64_t m, int64_t n,
                      int64_t k, float* c);

/// The serial im2col convolution forward (out pre-zeroed).
void Conv2dForwardKernel(const float* x, const float* w, const float* bias,
                         const ConvKernelShape& s, float* out);
/// The serial convolution backward (outputs pre-zeroed, nullable).
void Conv2dBackwardKernel(const float* grad_out, const float* x,
                          const float* w, const ConvKernelShape& s, float* dx,
                          float* dw, float* db);

/// y[i] = std::max(0.0f, x[i]).
void Relu(const float* x, int64_t n, float* y);
/// dx[i] = g[i], then zeroed wherever x[i] <= 0.
void ReluBackward(const float* g, const float* x, int64_t n, float* dx);
/// The sequential strict-> window scan of MaxPool2x2ForwardKernel.
void MaxPool2x2Forward(const float* x, int64_t rows, int64_t wo, float* out,
                       uint8_t* tap);
/// Zero-fills dx, then adds each gradient into its window's winning tap.
void MaxPool2x2Backward(const float* grad_out, const uint8_t* tap,
                        int64_t rows, int64_t wo, float* dx);
/// x[i] = 0.0f + x[i].
void PlusZero(float* x, int64_t n);
/// x[i] = value.
void Fill(float* x, int64_t n, float value);
/// x[i] *= s.
void Scale(float* x, int64_t n, float s);
/// y[i] += a * x[i], unfused.
void Axpy(float a, const float* x, int64_t n, float* y);

}  // namespace ref

}  // namespace rfed

#endif  // RFED_TENSOR_KERNELS_H_
