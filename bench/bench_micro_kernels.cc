// Kernel-layer benchmark sweep: times the SIMD blocked/threaded kernels
// (tensor/kernels.h) against the retained naive references (rfed::ref)
// on the GEMM and convolution shapes the paper's models actually hit,
// and writes the table as BENCH_kernels.json (GFLOP/s plus
// speedup-vs-seed per shape and thread count; see docs/KERNELS.md for
// how to read it). Every case first asserts the optimized kernel is
// bit-identical to its reference before any timing. Each case is also
// timed once with the per-shape autotuner live (single thread, enough
// warmup calls that every shape commits its winning tile before the
// measured windows), and the committed tile is recorded.
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

#include "tensor/autotune.h"
#include "tensor/kernels.h"
#include "util/flags.h"
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

/// Best-of-3 mean per-call milliseconds: one warmup call, then three
/// independent measurement windows of `min_ms` each; the fastest window
/// wins. Taking the minimum suppresses the frequency-scaling and
/// scheduling noise a shared single-core box produces.
template <typename F>
double TimeMs(const F& fn, double min_ms) {
  fn();
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    int iters = 0;
    Stopwatch sw;
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = sw.ElapsedMillis();
    } while (elapsed < min_ms);
    const double per_iter = elapsed / iters;
    if (window == 0 || per_iter < best) best = per_iter;
  }
  return best;
}

enum class Kind { kGemmAdd, kGemmTransA, kGemmTransB, kConvFwd, kConvBwd };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kGemmAdd: return "gemm_add";
    case Kind::kGemmTransA: return "gemm_transA_add";
    case Kind::kGemmTransB: return "gemm_transB_assign";
    case Kind::kConvFwd: return "conv2d_forward";
    case Kind::kConvBwd: return "conv2d_backward";
  }
  return "?";
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
  cases.push_back({"cnn_conv2_fwd", Kind::kConvFwd, 0, 0, 0,
                   {24, 4, 6, 6, 8, 5, 1, 2}});
  cases.push_back({"cnn_conv2_bwd", Kind::kConvBwd, 0, 0, 0,
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
  return cases;
}

int64_t CaseFlops(const Case& c) {
  switch (c.kind) {
    case Kind::kGemmAdd:
    case Kind::kGemmTransA:
      return 2 * c.m * c.k * c.n;
    case Kind::kGemmTransB:
      return 2 * c.m * c.k * c.n;  // m rows x k dots of length n
    case Kind::kConvFwd:
      return 2 * c.conv.batch * c.conv.out_channels * c.conv.Patch() *
             c.conv.OutArea();
    case Kind::kConvBwd:  // dx GEMM + dw GEMM (db is negligible)
      return 4 * c.conv.batch * c.conv.out_channels * c.conv.Patch() *
             c.conv.OutArea();
  }
  return 0;
}

/// One benchmark case's buffers plus ref/opt runners over them.
struct Workbench {
  std::vector<float> a, b, bias, out_ref, out_opt, dx, dw, db;

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
      case Kind::kConvBwd: {
        const ConvKernelShape& s = c.conv;
        a = Fill(s.batch * s.in_channels * s.height * s.width, 1.0f, 0.3f);
        b = Fill(s.out_channels * s.Patch(), 0.2f, 1.1f);
        bias = Fill(s.out_channels, 0.1f, 2.2f);
        out_ref.assign(
            static_cast<size_t>(s.batch * s.out_channels * s.OutArea()), 0.0f);
        if (c.kind == Kind::kConvBwd) {
          // out_ref doubles as grad_out for the backward case: nonzero
          // so the reference's zero-skip path never fires.
          out_ref = Fill(s.batch * s.out_channels * s.OutArea(), 0.4f, 1.7f);
          dx.assign(a.size(), 0.0f);
          dw.assign(b.size(), 0.0f);
          db.assign(bias.size(), 0.0f);
        }
        break;
      }
    }
    out_opt = out_ref;
  }

  /// Runs the case once; `optimized` picks the blocked vs ref kernel.
  /// Accumulating kinds re-run on the same output (fine for timing: the
  /// float work is identical each pass); bitwise comparison below resets
  /// the buffers itself.
  void Run(const Case& c, bool optimized) {
    float* out = optimized ? out_opt.data() : out_ref.data();
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
        std::memset(dx.data(), 0, dx.size() * sizeof(float));
        std::memset(dw.data(), 0, dw.size() * sizeof(float));
        std::memset(db.data(), 0, db.size() * sizeof(float));
        (optimized ? Conv2dBackwardKernel : ref::Conv2dBackwardKernel)(
            out_ref.data(), a.data(), b.data(), c.conv, dx.data(), dw.data(),
            db.data());
        break;
    }
  }

  /// Bit-identity check: runs ref then opt from zeroed outputs and
  /// memcmps. ConvBwd compares dx/dw/db via two sequential Run passes
  /// (Run zeroes them itself), snapshotting between.
  bool Verify(const Case& c) {
    if (c.kind == Kind::kConvBwd) {
      Run(c, /*optimized=*/false);
      std::vector<float> rdx = dx, rdw = dw, rdb = db;
      Run(c, /*optimized=*/true);
      return rdx == dx && rdw == dw && rdb == db;
    }
    std::fill(out_ref.begin(), out_ref.end(), 0.0f);
    std::fill(out_opt.begin(), out_opt.end(), 0.0f);
    Run(c, /*optimized=*/false);
    Run(c, /*optimized=*/true);
    return std::memcmp(out_ref.data(), out_opt.data(),
                       out_ref.size() * sizeof(float)) == 0;
  }
};

struct Timing {
  int threads;
  double ms;
  double gflops;
  double speedup;
};

struct Result {
  Case c;
  double ref_ms = 0.0;
  double ref_gflops = 0.0;
  std::vector<Timing> opt;
  // Single-thread timing with the autotuner's committed pick live, plus
  // that pick when the case maps to one tuned (op, shape) key. Conv
  // cases run fixed conv tiles the tuner does not touch, so they record
  // the timing but no tile.
  Timing tuned{};
  bool tuned_tile_known = false;
  TileConfig tuned_tile;
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
  std::fprintf(f, "  \"cases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n", r.c.name);
    std::fprintf(f, "      \"kind\": \"%s\",\n", KindName(r.c.kind));
    if (r.c.kind == Kind::kConvFwd || r.c.kind == Kind::kConvBwd) {
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
    std::fprintf(f, "      \"flops\": %lld,\n",
                 static_cast<long long>(CaseFlops(r.c)));
    std::fprintf(f, "      \"ref_ms\": %.4f,\n      \"ref_gflops\": %.3f,\n",
                 r.ref_ms, r.ref_gflops);
    std::fprintf(f, "      \"acceptance_shape\": %s,\n",
                 r.c.acceptance ? "true" : "false");
    std::fprintf(f, "      \"opt\": [\n");
    for (size_t t = 0; t < r.opt.size(); ++t) {
      const Timing& ot = r.opt[t];
      std::fprintf(f,
                   "        {\"threads\": %d, \"ms\": %.4f, \"gflops\": %.3f, "
                   "\"speedup_vs_seed\": %.3f}%s\n",
                   ot.threads, ot.ms, ot.gflops, ot.speedup,
                   t + 1 < r.opt.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::fprintf(f,
                 "      \"autotuned\": {\"threads\": 1, \"ms\": %.4f, "
                 "\"gflops\": %.3f, \"speedup_vs_seed\": %.3f, \"tile\": ",
                 r.tuned.ms, r.tuned.gflops, r.tuned.speedup);
    if (r.tuned_tile_known) {
      std::fprintf(f, "{\"block_m\": %d, \"block_k\": %d, \"block_n\": %d}}\n",
                   r.tuned_tile.block_m, r.tuned_tile.block_k,
                   r.tuned_tile.block_n);
    } else {
      std::fprintf(f, "null}\n");
    }
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
    r.ref_ms = TimeMs([&] { wb.Run(c, false); }, min_ms);
    const double flops = static_cast<double>(CaseFlops(c));
    r.ref_gflops = flops / (r.ref_ms * 1e6);
    for (int threads : timed_threads) {
      SetThreads(threads);
      Timing t;
      t.threads = threads;
      t.ms = TimeMs([&] { wb.Run(c, true); }, min_ms);
      t.gflops = flops / (t.ms * 1e6);
      t.speedup = r.ref_ms / t.ms;
      r.opt.push_back(t);
    }
    // Autotuned single-thread timing: fresh tuner, one sample per
    // candidate, and enough warmup calls that every (op, shape) this
    // case touches commits before the measured windows (pure GEMM cases
    // touch one key; conv cases touch none).
    {
      SetThreads(1);
      AutotuneConfig tune;
      tune.enabled = true;
      tune.samples_per_candidate = 1;
      SetAutotuneConfig(tune);
      ResetAutotuneForTest();
      const size_t warmups =
          2 + AutotuneCandidates(AutotuneOp::kGemmAdd).size() +
          AutotuneCandidates(AutotuneOp::kGemmTransB).size();
      for (size_t i = 0; i < warmups; ++i) wb.Run(c, true);
      r.tuned.threads = 1;
      r.tuned.ms = TimeMs([&] { wb.Run(c, true); }, min_ms);
      r.tuned.gflops = flops / (r.tuned.ms * 1e6);
      r.tuned.speedup = r.ref_ms / r.tuned.ms;
      // Read the committed pick back for the single-key GEMM cases.
      const char* isa = KernelIsaName(ActiveKernelIsa());
      AutotuneTrial trial = 1;
      if (c.kind == Kind::kGemmAdd) {
        r.tuned_tile =
            AutotunePick(AutotuneOp::kGemmAdd, isa, c.m, c.k, c.n, &trial);
      } else if (c.kind == Kind::kGemmTransA) {
        // TransA transposes then runs GemmAdd on (k, m, n).
        r.tuned_tile =
            AutotunePick(AutotuneOp::kGemmAdd, isa, c.k, c.m, c.n, &trial);
      } else if (c.kind == Kind::kGemmTransB) {
        r.tuned_tile =
            AutotunePick(AutotuneOp::kGemmTransB, isa, c.m, c.n, c.k, &trial);
      }
      r.tuned_tile_known =
          c.kind != Kind::kConvFwd && c.kind != Kind::kConvBwd && trial == 0;
      SetAutotuneConfig(AutotuneConfig{});
      ResetAutotuneForTest();
    }
    std::printf("%-18s %-18s ref %8.3f ms (%6.2f GF/s)", c.name,
                KindName(c.kind), r.ref_ms, r.ref_gflops);
    for (const Timing& t : r.opt) {
      std::printf("  t%d %8.3f ms (%5.2fx)", t.threads, t.ms, t.speedup);
    }
    std::printf("  tuned %8.3f ms (%6.2f GF/s)", r.tuned.ms, r.tuned.gflops);
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
