// Kernel-layer benchmark sweep: times the SIMD blocked/threaded kernels
// (tensor/kernels.h) against the retained naive references (rfed::ref)
// on the GEMM and convolution shapes the paper's models actually hit,
// and writes the table as BENCH_kernels.json (GFLOP/s plus
// speedup-vs-seed per shape and thread count; GB/s for the elementwise
// ReLU and max-pool rows; see docs/KERNELS.md for how to read it).
// Every case first asserts the optimized kernel is bit-identical to its
// reference before any timing.
//
// Caveat for absolute speedups: the reference baseline is the *fused*
// canonical reference (std::fmaf per step), which compiles to a libm
// call in this TU — it is several times slower than the pre-fusion
// naive loops, so "speedup_vs_seed" overstates the win over historical
// baselines. Compare absolute "gflops" across BENCH_kernels.json
// revisions instead; EXPERIMENTS.md tracks those numbers.
//
// Usage:
//   ./build/bench/bench_micro_kernels                  # full sweep
//   ./build/bench/bench_micro_kernels --out path.json  # custom output
//   ./build/bench/bench_micro_kernels --smoke          # <2 s correctness
//       pass over threads {1,2,4}, tiny timings, no JSON (the
//       `bench_smoke` ctest target)
//   --min_ms N    measurement window per timing (default 300; smoke 5)
//
// Thread counts above std::thread::hardware_concurrency() are skipped
// for timing (and listed as "skipped_threads"); the bit-identity gate
// runs at every count.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tensor/kernels.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rfed {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

/// Deterministic non-degenerate fill without exact zeros, so the
/// references' zero-skip fast path never fires and the comparison is
/// fair.
std::vector<float> Fill(int64_t n, float scale, float phase) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] =
        scale * (0.1f + std::sin(0.7f * static_cast<float>(i) + phase));
  }
  return v;
}

/// Measurement windows per timing.
constexpr int kWindows = 3;

/// Mean per-call milliseconds of the fastest and of the slowest window.
struct WindowTimes {
  double best = 0.0;
  double worst = 0.0;
  /// (worst - best) / best, in percent.
  double SpreadPct() const { return 100.0 * (worst - best) / best; }
};

/// One warmup call, then kWindows independent measurement windows of
/// `min_ms` each. The fastest window is the reported time: taking the
/// minimum suppresses the frequency-scaling and scheduling noise a
/// shared box produces; the slowest one gives the spread.
template <typename F>
WindowTimes TimeMs(const F& fn, double min_ms) {
  fn();
  WindowTimes t;
  for (int window = 0; window < kWindows; ++window) {
    int iters = 0;
    Stopwatch sw;
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = sw.ElapsedMillis();
    } while (elapsed < min_ms);
    const double per_iter = elapsed / iters;
    if (window == 0 || per_iter < t.best) t.best = per_iter;
    if (window == 0 || per_iter > t.worst) t.worst = per_iter;
  }
  return t;
}

/// Sign-random normal samples: what ReLU and max-pool see in training,
/// where a sign branch mispredicts about half the time.
std::vector<float> Noise(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& e : v) e = static_cast<float>(rng.Normal(0.0, 1.0));
  return v;
}

/// Elementwise cases cycle through this many independently drawn
/// inputs, one per call. Their references branch on the data (ReLU's
/// sign, the pool's window maximum); timed on one repeated input, the
/// branch predictor would learn its pattern, which training — where no
/// activation repeats — never allows. The GEMM and conv references'
/// only data-dependent branch is the zero skip, which the zero-free
/// Fill inputs never take, so they keep one input.
constexpr int kInputRotation = 8;

enum class Kind {
  kGemmAdd, kGemmTransA, kGemmTransB, kConvFwd,
  // Conv backward: dx + dw + db, dw + db only (what training runs for
  // the first layer, whose input is the data), dx only.
  kConvBwd, kConvBwdNoDx, kConvDx,
  // Elementwise over an NCHW activation (the Case's conv field holds its
  // [batch, in_channels, height, width]).
  kReluFwd, kReluBwd, kPoolFwd, kPoolBwd,
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kGemmAdd: return "gemm_add";
    case Kind::kGemmTransA: return "gemm_transA_add";
    case Kind::kGemmTransB: return "gemm_transB_assign";
    case Kind::kConvFwd: return "conv2d_forward";
    case Kind::kConvBwd: return "conv2d_backward";
    case Kind::kConvBwdNoDx: return "conv2d_backward_nodx";
    case Kind::kConvDx: return "conv2d_dx";
    case Kind::kReluFwd: return "relu";
    case Kind::kReluBwd: return "relu_backward";
    case Kind::kPoolFwd: return "maxpool2x2_forward";
    case Kind::kPoolBwd: return "maxpool2x2_backward";
  }
  return "?";
}

bool IsConvBackward(Kind k) {
  return k == Kind::kConvBwd || k == Kind::kConvBwdNoDx || k == Kind::kConvDx;
}

bool IsElementwise(Kind k) {
  return k == Kind::kReluFwd || k == Kind::kReluBwd || k == Kind::kPoolFwd ||
         k == Kind::kPoolBwd;
}

struct Case {
  const char* name;
  Kind kind;
  // GEMM dims (kind-dependent roles, see Run below); unused for conv.
  int64_t m = 0, k = 0, n = 0;
  ConvKernelShape conv;  // conv kinds only
  bool smoke = false;    // included in the --smoke subset
  bool acceptance = false;  // the EXPERIMENTS.md >= 3x shape
};

/// The sweep. The cnn_* conv cases are the two layers the workload CNN
/// runs (experiment_cli and e2ebench: 12x12 inputs, 3->4->8 channels,
/// k=5 same-pad, local-step batch 24). The other miniature shapes mirror
/// the repo's 12x12 synthetic profiles (CnnConfig defaults: conv1 8ch,
/// conv2 16ch, LSTM 16->32); paper-scale shapes use the source paper's
/// real CIFAR-10 dimensions (32x32x3, batch 32, 64-channel first conv).
std::vector<Case> Sweep() {
  std::vector<Case> cases;
  // GEMMs: {m, k, n} as C[m,n] += A[m,k] B[k,n].
  cases.push_back({"fc1_mnist", Kind::kGemmAdd, 32, 144, 64, {}, true});
  cases.push_back({"lstm_gates", Kind::kGemmAdd, 32, 48, 128, {}});
  cases.push_back({"fc_cifar_paper", Kind::kGemmAdd, 32, 1600, 384, {}});
  // The per-batch im2col product of the paper-scale CIFAR first conv:
  // weights [64, 75] x columns [75, 32*32*32]. The acceptance shape.
  cases.push_back(
      {"cifar_conv1_gemm", Kind::kGemmAdd, 64, 75, 32768, {}, false, true});
  // TransA / TransB GEMMs at that conv's per-image backward shape:
  // C[k,n] += W^T[m,k] go[m,n] and dW[m,k] = go[m,n] cols[k,n]^T.
  cases.push_back({"conv_dx_gemm", Kind::kGemmTransA, 64, 75, 1024, {}, true});
  cases.push_back({"conv_dw_gemm", Kind::kGemmTransB, 64, 1024, 75, {}, true});
  // End-to-end convolutions (batch, cin, h, w, cout, kernel, stride, pad).
  // The workload CNN's layers first.
  cases.push_back({"cnn_conv1_fwd", Kind::kConvFwd, 0, 0, 0,
                   {24, 3, 12, 12, 4, 5, 1, 2}, true});
  cases.push_back({"cnn_conv1_bwd", Kind::kConvBwd, 0, 0, 0,
                   {24, 3, 12, 12, 4, 5, 1, 2}});
  cases.push_back({"cnn_conv1_bwd_nodx", Kind::kConvBwdNoDx, 0, 0, 0,
                   {24, 3, 12, 12, 4, 5, 1, 2}, true});
  cases.push_back({"cnn_conv2_fwd", Kind::kConvFwd, 0, 0, 0,
                   {24, 4, 6, 6, 8, 5, 1, 2}});
  cases.push_back({"cnn_conv2_bwd", Kind::kConvBwd, 0, 0, 0,
                   {24, 4, 6, 6, 8, 5, 1, 2}, true});
  cases.push_back({"cnn_conv2_dx", Kind::kConvDx, 0, 0, 0,
                   {24, 4, 6, 6, 8, 5, 1, 2}, true});
  cases.push_back({"conv1_mnist_fwd", Kind::kConvFwd, 0, 0, 0,
                   {32, 1, 12, 12, 8, 5, 1, 2}, true});
  cases.push_back({"conv2_mnist_fwd", Kind::kConvFwd, 0, 0, 0,
                   {32, 8, 6, 6, 16, 5, 1, 2}});
  cases.push_back({"conv1_mnist_bwd", Kind::kConvBwd, 0, 0, 0,
                   {32, 1, 12, 12, 8, 5, 1, 2}, true});
  cases.push_back({"conv1_cifar_fwd", Kind::kConvFwd, 0, 0, 0,
                   {32, 3, 32, 32, 64, 5, 1, 2}});
  cases.push_back({"conv1_cifar_bwd", Kind::kConvBwd, 0, 0, 0,
                   {32, 3, 32, 32, 64, 5, 1, 2}});
  // The workload CNN's ReLU and 2x2 max-pool on the conv1 output
  // [B, 4, 12, 12] (pool wo = 6) and the conv2 output [B, 8, 6, 6]
  // (wo = 3), at the local-step batch (24) and the evaluation batch
  // (150).
  struct Elementwise {
    const char* name;
    Kind kind;
    int64_t batch, channels, side;
    bool smoke;
  };
  const Elementwise elementwise[] = {
      {"cnn_relu1_fwd", Kind::kReluFwd, 24, 4, 12, true},
      {"cnn_relu1_bwd", Kind::kReluBwd, 24, 4, 12, true},
      {"cnn_relu2_fwd", Kind::kReluFwd, 24, 8, 6, false},
      {"cnn_relu2_bwd", Kind::kReluBwd, 24, 8, 6, false},
      {"cnn_pool1_fwd", Kind::kPoolFwd, 24, 4, 12, true},
      {"cnn_pool1_bwd", Kind::kPoolBwd, 24, 4, 12, true},
      {"cnn_pool2_fwd", Kind::kPoolFwd, 24, 8, 6, true},
      {"cnn_pool2_bwd", Kind::kPoolBwd, 24, 8, 6, true},
      {"cnn_relu1_fwd_b150", Kind::kReluFwd, 150, 4, 12, false},
      {"cnn_relu1_bwd_b150", Kind::kReluBwd, 150, 4, 12, false},
      {"cnn_relu2_fwd_b150", Kind::kReluFwd, 150, 8, 6, false},
      {"cnn_relu2_bwd_b150", Kind::kReluBwd, 150, 8, 6, false},
      {"cnn_pool1_fwd_b150", Kind::kPoolFwd, 150, 4, 12, false},
      {"cnn_pool1_bwd_b150", Kind::kPoolBwd, 150, 4, 12, false},
      {"cnn_pool2_fwd_b150", Kind::kPoolFwd, 150, 8, 6, false},
      {"cnn_pool2_bwd_b150", Kind::kPoolBwd, 150, 8, 6, false},
  };
  for (const Elementwise& e : elementwise) {
    ConvKernelShape activation;
    activation.batch = e.batch;
    activation.in_channels = e.channels;
    activation.height = e.side;
    activation.width = e.side;
    cases.push_back({e.name, e.kind, 0, 0, 0, activation, e.smoke});
  }
  return cases;
}

/// Elements of an elementwise case's input activation.
int64_t ActivationSize(const Case& c) {
  return c.conv.batch * c.conv.in_channels * c.conv.height * c.conv.width;
}

/// Bytes an elementwise case reads and writes per call: ReLU reads x
/// and writes y; its backward reads g and x and writes dx; the pool
/// reads 4 inputs and writes 1 output + 1 tap byte per window, its
/// backward the reverse.
int64_t CaseBytes(const Case& c) {
  const int64_t n = ActivationSize(c), f = sizeof(float);
  switch (c.kind) {
    case Kind::kReluFwd: return 2 * n * f;
    case Kind::kReluBwd: return 3 * n * f;
    case Kind::kPoolFwd:
    case Kind::kPoolBwd: return n * f + (n / 4) * (f + 1);
    default: return 0;
  }
}

int64_t CaseFlops(const Case& c) {
  switch (c.kind) {
    case Kind::kGemmAdd:
    case Kind::kGemmTransA:
      return 2 * c.m * c.k * c.n;
    case Kind::kGemmTransB:
      return 2 * c.m * c.k * c.n;  // m rows x k dots of length n
    case Kind::kConvFwd:
    case Kind::kConvBwdNoDx:  // dw (db is negligible)
    case Kind::kConvDx:
      return 2 * c.conv.batch * c.conv.out_channels * c.conv.Patch() *
             c.conv.OutArea();
    case Kind::kConvBwd:  // dx + dw (db is negligible)
      return 4 * c.conv.batch * c.conv.out_channels * c.conv.Patch() *
             c.conv.OutArea();
    default:
      return 0;
  }
}

/// The throughput a timing reports: GFLOP/s, or GB/s for elementwise
/// cases (both are 1e9 units per second of `ms`).
double Rate(const Case& c, double ms) {
  const int64_t work = IsElementwise(c.kind) ? CaseBytes(c) : CaseFlops(c);
  return static_cast<double>(work) / (ms * 1e6);
}

/// Bitwise equality: unlike operator==, tells +0 from -0 and matches
/// NaN with NaN.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// One benchmark case's buffers plus ref/opt runners over them.
struct Workbench {
  std::vector<float> a, b, bias, out_ref, out_opt, dx, dw, db;
  // Elementwise cases: kInputRotation inputs x, upstream gradients g and
  // pool taps, and the rotation slot the next Run uses.
  std::vector<std::vector<float>> xs, gs;
  std::vector<std::vector<uint8_t>> tapsets;
  int turn = 0;

  explicit Workbench(const Case& c) {
    switch (c.kind) {
      case Kind::kGemmAdd:
      case Kind::kGemmTransA:
        // GemmTransAAdd reads A as [m,k] and B as [m,n] -> C[k,n]; sizes
        // below cover both layouts.
        a = Fill(c.m * c.k, 1.0f, 0.3f);
        b = Fill(c.kind == Kind::kGemmAdd ? c.k * c.n : c.m * c.n, 0.5f, 1.1f);
        out_ref.assign(static_cast<size_t>(
                           c.kind == Kind::kGemmAdd ? c.m * c.n : c.k * c.n),
                       0.0f);
        break;
      case Kind::kGemmTransB:
        a = Fill(c.m * c.n, 1.0f, 0.3f);
        b = Fill(c.k * c.n, 0.5f, 1.1f);
        out_ref.assign(static_cast<size_t>(c.m * c.k), 0.0f);
        break;
      case Kind::kConvFwd:
      case Kind::kConvBwd:
      case Kind::kConvBwdNoDx:
      case Kind::kConvDx: {
        const ConvKernelShape& s = c.conv;
        a = Fill(s.batch * s.in_channels * s.height * s.width, 1.0f, 0.3f);
        b = Fill(s.out_channels * s.Patch(), 0.2f, 1.1f);
        bias = Fill(s.out_channels, 0.1f, 2.2f);
        out_ref.assign(
            static_cast<size_t>(s.batch * s.out_channels * s.OutArea()), 0.0f);
        if (IsConvBackward(c.kind)) {
          // out_ref doubles as grad_out for the backward case: nonzero
          // so the reference's zero-skip path never fires.
          out_ref = Fill(s.batch * s.out_channels * s.OutArea(), 0.4f, 1.7f);
          dx.assign(a.size(), 0.0f);
          dw.assign(b.size(), 0.0f);
          db.assign(bias.size(), 0.0f);
        }
        break;
      }
      case Kind::kReluFwd:
      case Kind::kReluBwd: {
        // xs = forward inputs x, gs = upstream gradients.
        const int64_t n = ActivationSize(c);
        for (int r = 0; r < kInputRotation; ++r) {
          const uint64_t seed = 11 + 2 * static_cast<uint64_t>(r);
          xs.push_back(Noise(n, seed));
          gs.push_back(Noise(n, seed + 1));
        }
        out_ref.assign(static_cast<size_t>(n), 0.0f);
        break;
      }
      case Kind::kPoolFwd:
      case Kind::kPoolBwd: {
        // Forward: xs = x, out = pooled, tapsets written. Backward: gs =
        // grad_out, out = dx, with the taps of a reference forward over
        // the same slot's x.
        const int64_t n = ActivationSize(c);
        std::vector<float> pooled(static_cast<size_t>(n / 4));
        for (int r = 0; r < kInputRotation; ++r) {
          const uint64_t seed = 13 + 2 * static_cast<uint64_t>(r);
          xs.push_back(Noise(n, seed));
          gs.push_back(Noise(n / 4, seed + 1));
          tapsets.emplace_back(static_cast<size_t>(n / 4), 0);
          ref::MaxPool2x2Forward(xs.back().data(), PoolRows(c),
                                 c.conv.width / 2, pooled.data(),
                                 tapsets.back().data());
        }
        out_ref.assign(static_cast<size_t>(c.kind == Kind::kPoolFwd ? n / 4 : n),
                       0.0f);
        break;
      }
    }
    out_opt = out_ref;
  }

  static int64_t PoolRows(const Case& c) {
    return c.conv.batch * c.conv.in_channels * c.conv.height / 2;
  }

  /// Runs the case once; `optimized` picks the blocked vs ref kernel.
  /// Accumulating kinds re-run on the same output (fine for timing: the
  /// float work is identical each pass); bitwise comparison below resets
  /// the buffers itself. Elementwise cases take the next rotation slot.
  void Run(const Case& c, bool optimized) {
    float* out = optimized ? out_opt.data() : out_ref.data();
    const size_t slot = static_cast<size_t>(turn);
    turn = (turn + 1) % kInputRotation;
    switch (c.kind) {
      case Kind::kGemmAdd:
        (optimized ? GemmAdd : ref::GemmAdd)(a.data(), b.data(), c.m, c.k, c.n,
                                             out);
        break;
      case Kind::kGemmTransA:
        (optimized ? GemmTransAAdd : ref::GemmTransAAdd)(a.data(), b.data(),
                                                         c.m, c.k, c.n, out);
        break;
      case Kind::kGemmTransB:
        (optimized ? GemmTransBAssign : ref::GemmTransBAssign)(
            a.data(), b.data(), c.m, c.n, c.k, out);
        break;
      case Kind::kConvFwd:
        std::memset(out, 0, out_ref.size() * sizeof(float));
        (optimized ? Conv2dForwardKernel : ref::Conv2dForwardKernel)(
            a.data(), b.data(), bias.data(), c.conv, out);
        break;
      case Kind::kConvBwd:
      case Kind::kConvBwdNoDx:
      case Kind::kConvDx: {
        // The references accumulate into zeroed outputs.
        const bool with_dx = c.kind != Kind::kConvBwdNoDx;
        const bool with_params = c.kind != Kind::kConvDx;
        std::memset(dx.data(), 0, dx.size() * sizeof(float));
        std::memset(dw.data(), 0, dw.size() * sizeof(float));
        std::memset(db.data(), 0, db.size() * sizeof(float));
        (optimized ? Conv2dBackwardKernel : ref::Conv2dBackwardKernel)(
            out_ref.data(), a.data(), b.data(), c.conv,
            with_dx ? dx.data() : nullptr, with_params ? dw.data() : nullptr,
            with_params ? db.data() : nullptr);
        break;
      }
      case Kind::kReluFwd:
        (optimized ? ReluKernel : ref::Relu)(xs[slot].data(),
                                             ActivationSize(c), out);
        break;
      case Kind::kReluBwd:
        (optimized ? ReluBackwardKernel : ref::ReluBackward)(
            gs[slot].data(), xs[slot].data(), ActivationSize(c), out);
        break;
      case Kind::kPoolFwd:
        // Both write every tap; the reference's taps equal the ones the
        // constructor recorded for this slot.
        (optimized ? MaxPool2x2ForwardKernel : ref::MaxPool2x2Forward)(
            xs[slot].data(), PoolRows(c), c.conv.width / 2, out,
            tapsets[slot].data());
        break;
      case Kind::kPoolBwd:
        (optimized ? MaxPool2x2BackwardKernel : ref::MaxPool2x2Backward)(
            gs[slot].data(), tapsets[slot].data(), PoolRows(c),
            c.conv.width / 2, out);
        break;
    }
  }

  /// Bit-identity check: runs ref then opt from zeroed outputs and
  /// memcmps. Conv backward compares dx/dw/db via two sequential Run
  /// passes (Run zeroes them itself), snapshotting between.
  bool Verify(const Case& c) {
    if (IsConvBackward(c.kind)) {
      Run(c, /*optimized=*/false);
      const std::vector<float> rdx = dx, rdw = dw, rdb = db;
      Run(c, /*optimized=*/true);
      return SameBits(rdx, dx) && SameBits(rdw, dw) && SameBits(rdb, db);
    }
    // Every rotation slot, ref then opt on the same slot.
    bool same = true;
    for (int slot = 0; slot < (IsElementwise(c.kind) ? kInputRotation : 1);
         ++slot) {
      std::fill(out_ref.begin(), out_ref.end(), 0.0f);
      std::fill(out_opt.begin(), out_opt.end(), 0.0f);
      turn = slot;
      Run(c, /*optimized=*/false);
      const std::vector<uint8_t> ref_taps =
          tapsets.empty() ? std::vector<uint8_t>() : tapsets[slot];
      turn = slot;
      Run(c, /*optimized=*/true);
      same = same &&
             std::memcmp(out_ref.data(), out_opt.data(),
                         out_ref.size() * sizeof(float)) == 0 &&
             (tapsets.empty() || tapsets[slot] == ref_taps);
    }
    turn = 0;
    return same;
  }
};

struct Timing {
  int threads;
  double ms;
  double spread_pct;  ///< WindowTimes::SpreadPct
  double gflops;  ///< Rate(): GB/s for the elementwise cases
  double speedup;
};

struct Result {
  Case c;
  double ref_ms = 0.0;
  double ref_spread_pct = 0.0;
  double ref_gflops = 0.0;  ///< Rate(), as Timing::gflops
  std::vector<Timing> opt;
};

void SetThreads(int threads) {
  KernelOptions o;
  o.threads = threads;
  SetKernelOptions(o);
}

void WriteJson(const std::string& path, const std::vector<Result>& results,
               double min_ms, const std::vector<int>& skipped_threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"baseline\": \"rfed::ref (canonical fused references)\",\n");
  std::fprintf(f,
               "  \"baseline_note\": \"the fused ref (std::fmaf per step) is "
               "several times slower than the pre-fusion naive loops, so "
               "speedup_vs_seed overstates historical wins; compare absolute "
               "gflops across revisions\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", KernelIsaName(ActiveKernelIsa()));
  std::fprintf(f, "  \"host_hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"skipped_threads\": [");
  for (size_t i = 0; i < skipped_threads.size(); ++i) {
    std::fprintf(f, "%s%d", i > 0 ? ", " : "", skipped_threads[i]);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"min_ms_per_timing\": %.0f,\n", min_ms);
  std::fprintf(f, "  \"windows_per_timing\": %d,\n", kWindows);
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n", r.c.name);
    std::fprintf(f, "      \"kind\": \"%s\",\n", KindName(r.c.kind));
    if (IsElementwise(r.c.kind)) {
      const ConvKernelShape& s = r.c.conv;
      std::fprintf(f,
                   "      \"shape\": {\"batch\": %lld, \"channels\": %lld, "
                   "\"h\": %lld, \"w\": %lld},\n",
                   static_cast<long long>(s.batch),
                   static_cast<long long>(s.in_channels),
                   static_cast<long long>(s.height),
                   static_cast<long long>(s.width));
    } else if (r.c.kind == Kind::kConvFwd || IsConvBackward(r.c.kind)) {
      const ConvKernelShape& s = r.c.conv;
      std::fprintf(f,
                   "      \"shape\": {\"batch\": %lld, \"cin\": %lld, \"h\": "
                   "%lld, \"w\": %lld, \"cout\": %lld, \"kernel\": %lld, "
                   "\"stride\": %lld, \"pad\": %lld},\n",
                   static_cast<long long>(s.batch),
                   static_cast<long long>(s.in_channels),
                   static_cast<long long>(s.height),
                   static_cast<long long>(s.width),
                   static_cast<long long>(s.out_channels),
                   static_cast<long long>(s.kernel),
                   static_cast<long long>(s.stride),
                   static_cast<long long>(s.pad));
    } else {
      std::fprintf(f, "      \"shape\": {\"m\": %lld, \"k\": %lld, \"n\": %lld},\n",
                   static_cast<long long>(r.c.m), static_cast<long long>(r.c.k),
                   static_cast<long long>(r.c.n));
    }
    // Elementwise rows measure memory traffic: "bytes" and GB/s where
    // the compute rows have "flops" and GFLOP/s.
    const bool bytes = IsElementwise(r.c.kind);
    const char* rate = bytes ? "gbps" : "gflops";
    std::fprintf(f, "      \"%s\": %lld,\n", bytes ? "bytes" : "flops",
                 static_cast<long long>(bytes ? CaseBytes(r.c)
                                              : CaseFlops(r.c)));
    std::fprintf(f,
                 "      \"ref_ms\": %.4f,\n      \"ref_spread_pct\": %.1f,\n"
                 "      \"ref_%s\": %.3f,\n",
                 r.ref_ms, r.ref_spread_pct, rate, r.ref_gflops);
    std::fprintf(f, "      \"acceptance_shape\": %s,\n",
                 r.c.acceptance ? "true" : "false");
    std::fprintf(f, "      \"opt\": [\n");
    for (size_t t = 0; t < r.opt.size(); ++t) {
      const Timing& ot = r.opt[t];
      std::fprintf(f,
                   "        {\"threads\": %d, \"ms\": %.4f, "
                   "\"spread_pct\": %.1f, \"%s\": %.3f, "
                   "\"speedup_vs_seed\": %.3f}%s\n",
                   ot.threads, ot.ms, ot.spread_pct, rate, ot.gflops,
                   ot.speedup,
                   t + 1 < r.opt.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const double min_ms = flags.GetDouble("min_ms", smoke ? 5.0 : 300.0);
  const std::string out = flags.GetString("out", smoke ? "" : "BENCH_kernels.json");

  // Timing at more threads than the host has measures oversubscription,
  // not the kernels: those counts are verified but not timed.
  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> timed_threads, skipped_threads;
  for (int threads : kThreadCounts) {
    (hw_threads > 0 && threads > hw_threads ? skipped_threads : timed_threads)
        .push_back(threads);
  }
  for (int threads : skipped_threads) {
    std::printf("skipping timing at threads=%d: host has %d hardware "
                "threads (bit-identity still checked)\n",
                threads, hw_threads);
  }

  std::vector<Result> results;
  int failures = 0;
  for (const Case& c : Sweep()) {
    if (smoke && !c.smoke) continue;
    Workbench wb(c);
    // Correctness gate: the optimized kernel must be bit-identical to
    // the seed reference at every thread count before it is timed.
    for (int threads : kThreadCounts) {
      SetThreads(threads);
      if (!wb.Verify(c)) {
        std::fprintf(stderr, "FAIL: %s not bit-identical at threads=%d\n",
                     c.name, threads);
        ++failures;
      }
    }
    Result r;
    r.c = c;
    SetThreads(1);
    const WindowTimes ref_times = TimeMs([&] { wb.Run(c, false); }, min_ms);
    r.ref_ms = ref_times.best;
    r.ref_spread_pct = ref_times.SpreadPct();
    r.ref_gflops = Rate(c, r.ref_ms);
    for (int threads : timed_threads) {
      SetThreads(threads);
      Timing t;
      t.threads = threads;
      const WindowTimes times = TimeMs([&] { wb.Run(c, true); }, min_ms);
      t.ms = times.best;
      t.spread_pct = times.SpreadPct();
      t.gflops = Rate(c, t.ms);
      t.speedup = r.ref_ms / t.ms;
      r.opt.push_back(t);
    }
    const char* unit = IsElementwise(c.kind) ? "GB/s" : "GF/s";
    std::printf("%-18s %-18s ref %8.3f ms (%6.2f %s)", c.name,
                KindName(c.kind), r.ref_ms, r.ref_gflops, unit);
    for (const Timing& t : r.opt) {
      std::printf("  t%d %8.3f ms (%5.2fx)", t.threads, t.ms, t.speedup);
    }
    std::printf("%s\n", c.acceptance ? "  [acceptance]" : "");
    results.push_back(std::move(r));
  }
  SetKernelOptions(KernelOptions{});

  if (!out.empty()) WriteJson(out, results, min_ms, skipped_threads);
  if (failures > 0) return 1;
  if (smoke) {
    std::printf("smoke OK: all cases bit-identical across threads {1,2,4}\n");
  }
  return 0;
}

}  // namespace
}  // namespace rfed

int main(int argc, char** argv) { return rfed::Main(argc, argv); }
