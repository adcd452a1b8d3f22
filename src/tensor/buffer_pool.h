#ifndef RFED_TENSOR_BUFFER_POOL_H_
#define RFED_TENSOR_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace rfed {

/// Allocator whose no-argument construct() default-initializes: a float
/// element created by resize() is left indeterminate instead of zeroed.
/// Every other operation is std::allocator's.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Tensor storage: a float vector that resize() does not zero, so a
/// tensor a kernel overwrites in full skips the fill (Tensor::Uninitialized).
/// Every other Tensor constructor writes each element explicitly.
using FloatStorage = std::vector<float, DefaultInitAllocator<float>>;

/// Thread-local recycling arena for Tensor storage.
///
/// While a BufferPool::Scope is active on a thread, every Tensor the
/// thread destroys donates its float buffer to a size-keyed freelist and
/// every Tensor it constructs tries that freelist before touching the
/// heap. Buffers are plain heap vectors whether or not they ever pass
/// through the pool, so pooled storage may safely outlive the scope or
/// migrate across threads (a worker-built model update destroyed on the
/// main thread simply frees to the heap).
///
/// The pool is grow-only within a thread: freelists are reset by reuse,
/// never trimmed, mirroring ScratchArena in tensor/kernels.h. Training
/// graphs allocate the same few dozen shapes every step, so after one
/// warm-up step the freelists serve every request and the per-step heap
/// allocation count drops to O(1) (see docs/AUTOGRAD.md).
///
/// Determinism: recycling changes *where* a buffer lives, never what is
/// written to it — Tensor's constructors fill recycled storage exactly
/// as they fill fresh storage — so pooled and unpooled runs are
/// bit-identical.
class BufferPool {
 public:
  /// RAII activation of the calling thread's pool. Scopes nest; the pool
  /// stays active until the outermost scope dies. ag::TapeSession opens
  /// one for the duration of a local-training bout.
  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// True iff a Scope is active on the calling thread.
  static bool Active();

  /// Returns an empty vector whose capacity is at least `n` floats:
  /// recycled when the freelist has an exact-size buffer, freshly
  /// reserved (counted as a heap allocation) otherwise. Requires an
  /// active scope.
  static FloatStorage Acquire(size_t n);

  /// Retires a tensor's storage. `accounted` is the owning Tensor's
  /// came-from-Acquire flag: accounted buffers subtract their bytes from
  /// the outstanding counter wherever they die (so a pooled tensor that
  /// escapes its scope — e.g. a returned model update — still balances
  /// the books on destruction). Independently, when a scope is active on
  /// the calling thread the storage is donated to its freelist; otherwise
  /// it falls to the ordinary heap free.
  static void MaybeRecycle(FloatStorage* buf, bool accounted);

  /// Copy helper for Tensor's copy constructor: an exact-size copy of
  /// `src` backed by pooled storage when a scope is active.
  static FloatStorage CopyOf(const FloatStorage& src);

  /// High-water mark, in bytes, of Acquire()d storage whose owning
  /// tensor is still alive, across all threads since the last
  /// ResetPeak(). This is the live-tensor footprint of the autograd tape
  /// and is exported per round as the `autograd.tape_peak_bytes` gauge.
  static int64_t PeakBytes();
  static void ResetPeak();

  /// Number of freelist misses (true heap allocations) the calling
  /// thread has performed inside pool scopes. The per-step delta is the
  /// `autograd.allocs_per_step` gauge; it reaches O(1) once a static
  /// tape's replay steps stop allocating.
  static int64_t ThreadAllocCount();

  /// Number of freelist hits on the calling thread (recycled buffers).
  static int64_t ThreadHitCount();
};

}  // namespace rfed

#endif  // RFED_TENSOR_BUFFER_POOL_H_
