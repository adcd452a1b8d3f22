// Bit-identity suite for the blocked/threaded kernel layer
// (tensor/kernels.h). Every test compares the optimized kernels against
// the retained naive references with EXPECT_EQ on floats — not
// EXPECT_NEAR — because the layer's contract is *exact* equality for
// every block size and thread count (docs/KERNELS.md). The final test
// pins that contract end to end: a federated run's global model must be
// byte-identical across kernel_threads in {1, 2, 4}.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/fedavg.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "tensor/autotune.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace rfed {
namespace {

using ::rfed::testing::MaxGradCheckError;

Variable Leaf(Tensor t) { return Variable(std::move(t), true); }

/// Restores the default kernel options when the test ends, so option
/// overrides (tiny blocks, forced threading) never leak across tests.
class KernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetKernelOptions(KernelOptions{});
    SetAutotuneConfig(AutotuneConfig{});
    ResetAutotuneForTest();
  }
};

/// Options that force the blocked path (no naive fallback) with blocks
/// small enough that the {1, 7, 17, 64, 65} sizes exercise full tiles,
/// remainder rows/columns, and multiple KC slices.
KernelOptions TinyBlocks(int threads) {
  KernelOptions o;
  o.threads = threads;
  o.block_m = 8;
  o.block_k = 8;
  o.block_n = 16;
  o.blocked_min_flops = 0;
  o.parallel_min_flops = 0;
  return o;
}

std::vector<float> Pattern(int64_t n, float scale, float phase) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    // sin ramp: non-degenerate, mixed signs, a sprinkling of exact zeros
    // every 8th element to also cross the references' zero-skip path.
    v[static_cast<size_t>(i)] =
        (i % 8 == 3) ? 0.0f
                     : scale * std::sin(0.7f * static_cast<float>(i) + phase);
  }
  return v;
}

constexpr int64_t kSizes[] = {1, 7, 17, 64, 65};
constexpr int kThreadCounts[] = {1, 2, 4};

TEST_F(KernelTest, GemmAddMatchesReferenceBitwise) {
  for (int threads : kThreadCounts) {
    SetKernelOptions(TinyBlocks(threads));
    for (int64_t m : kSizes) {
      for (int64_t k : kSizes) {
        for (int64_t n : kSizes) {
          const auto a = Pattern(m * k, 1.0f, 0.1f);
          const auto b = Pattern(k * n, 0.5f, 1.3f);
          // Nonzero initial C: the kernel accumulates, never assigns.
          auto c_ref = Pattern(m * n, 0.25f, 2.7f);
          auto c_opt = c_ref;
          ref::GemmAdd(a.data(), b.data(), m, k, n, c_ref.data());
          GemmAdd(a.data(), b.data(), m, k, n, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "threads=" << threads << " m=" << m << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
}

TEST_F(KernelTest, GemmTransAAddMatchesReferenceBitwise) {
  for (int threads : kThreadCounts) {
    SetKernelOptions(TinyBlocks(threads));
    for (int64_t m : kSizes) {
      for (int64_t k : kSizes) {
        for (int64_t n : kSizes) {
          const auto a = Pattern(m * k, 0.8f, 0.4f);
          const auto b = Pattern(m * n, 0.6f, 1.9f);
          auto c_ref = Pattern(k * n, 0.3f, 3.1f);
          auto c_opt = c_ref;
          ref::GemmTransAAdd(a.data(), b.data(), m, k, n, c_ref.data());
          GemmTransAAdd(a.data(), b.data(), m, k, n, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "threads=" << threads << " m=" << m << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
}

TEST_F(KernelTest, GemmTransBAssignMatchesReferenceBitwise) {
  for (int threads : kThreadCounts) {
    SetKernelOptions(TinyBlocks(threads));
    for (int64_t m : kSizes) {
      for (int64_t n : kSizes) {
        for (int64_t k : kSizes) {
          const auto a = Pattern(m * n, 0.9f, 0.2f);
          const auto b = Pattern(k * n, 0.7f, 1.1f);
          // Assign semantics: garbage in C must be overwritten.
          auto c_ref = Pattern(m * k, 99.0f, 0.0f);
          auto c_opt = Pattern(m * k, -37.0f, 1.0f);
          ref::GemmTransBAssign(a.data(), b.data(), m, n, k, c_ref.data());
          GemmTransBAssign(a.data(), b.data(), m, n, k, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "threads=" << threads << " m=" << m << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

TEST_F(KernelTest, DefaultOptionsAlsoMatchReference) {
  // Same check at production block sizes (the tiny blocks above stress
  // edges; this covers the shipped configuration on a mid-size product).
  for (int threads : kThreadCounts) {
    KernelOptions o;
    o.threads = threads;
    o.blocked_min_flops = 0;
    o.parallel_min_flops = 0;
    SetKernelOptions(o);
    const int64_t m = 65, k = 131, n = 197;  // off every block boundary
    const auto a = Pattern(m * k, 1.0f, 0.5f);
    const auto b = Pattern(k * n, 1.0f, 1.5f);
    auto c_ref = Pattern(m * n, 0.1f, 2.5f);
    auto c_opt = c_ref;
    ref::GemmAdd(a.data(), b.data(), m, k, n, c_ref.data());
    GemmAdd(a.data(), b.data(), m, k, n, c_opt.data());
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                             c_ref.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

// ---- SIMD dispatch: every ISA x tile candidate x thread count ----

/// The ISA tables under test: the portable baseline always, plus the
/// AVX2 table when this machine can run it. Forcing kAvx2 on a machine
/// without the ISA aborts, so the list is probed at runtime.
std::vector<KernelIsa> TestableIsas() {
  std::vector<KernelIsa> isas{KernelIsa::kGeneric};
  if (KernelAvx2Available()) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

TEST_F(KernelTest, EveryIsaTileCandidateAndThreadCountMatchesReference) {
  // The full cross product the autotuner is allowed to roam over:
  // each ISA table x each candidate TileConfig x threads {1, 2, 4}
  // must reproduce the reference bytes exactly. Shapes are chosen off
  // every tile boundary (odd m/k/n) plus the microkernel-exact 64 row
  // count, so full tiles, padded remainder rows, and remainder columns
  // all execute.
  struct Case { int64_t m, k, n; };
  const Case cases[] = {{64, 75, 130}, {65, 131, 197}, {6, 16, 33}};
  for (KernelIsa isa : TestableIsas()) {
    for (const TileConfig& tile : AutotuneCandidates(AutotuneOp::kGemmAdd)) {
      for (int threads : kThreadCounts) {
        KernelOptions o;
        o.threads = threads;
        o.isa = isa;
        o.block_m = tile.block_m;
        o.block_k = tile.block_k;
        o.block_n = tile.block_n;
        o.blocked_min_flops = 0;
        o.parallel_min_flops = 0;
        SetKernelOptions(o);
        for (const Case& cs : cases) {
          const auto a = Pattern(cs.m * cs.k, 1.0f, 0.2f);
          const auto b = Pattern(cs.k * cs.n, 0.7f, 1.4f);
          auto c_ref = Pattern(cs.m * cs.n, 0.3f, 2.2f);
          auto c_opt = c_ref;
          ref::GemmAdd(a.data(), b.data(), cs.m, cs.k, cs.n, c_ref.data());
          GemmAdd(a.data(), b.data(), cs.m, cs.k, cs.n, c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "GemmAdd isa=" << KernelIsaName(isa) << " tile="
              << tile.block_m << "/" << tile.block_k << "/" << tile.block_n
              << " threads=" << threads << " m=" << cs.m << " k=" << cs.k
              << " n=" << cs.n;
        }
      }
    }
    for (const TileConfig& tile :
         AutotuneCandidates(AutotuneOp::kGemmTransB)) {
      for (int threads : kThreadCounts) {
        KernelOptions o;
        o.threads = threads;
        o.isa = isa;
        o.block_m = tile.block_m;
        o.block_k = tile.block_k;
        o.block_n = tile.block_n;
        o.blocked_min_flops = 0;
        o.parallel_min_flops = 0;
        SetKernelOptions(o);
        for (const Case& cs : cases) {
          // TransB shape triple is (m, n, k): m rows of A[m,n], k rows
          // of B[k,n], C[m,k] assigned.
          const auto a = Pattern(cs.m * cs.n, 0.9f, 0.5f);
          const auto b = Pattern(cs.k * cs.n, 0.6f, 1.8f);
          auto c_ref = Pattern(cs.m * cs.k, 55.0f, 0.0f);
          auto c_opt = Pattern(cs.m * cs.k, -11.0f, 1.0f);
          ref::GemmTransBAssign(a.data(), b.data(), cs.m, cs.n, cs.k,
                                c_ref.data());
          GemmTransBAssign(a.data(), b.data(), cs.m, cs.n, cs.k,
                           c_opt.data());
          ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                   c_ref.size() * sizeof(float)))
              << "GemmTransB isa=" << KernelIsaName(isa) << " tile="
              << tile.block_m << "/" << tile.block_k << "/" << tile.block_n
              << " threads=" << threads << " m=" << cs.m << " n=" << cs.n
              << " k=" << cs.k;
        }
      }
    }
  }
}

TEST_F(KernelTest, GemmTransAAddMatchesReferenceOnEveryIsa) {
  for (KernelIsa isa : TestableIsas()) {
    for (int threads : kThreadCounts) {
      KernelOptions o = TinyBlocks(threads);
      o.isa = isa;
      SetKernelOptions(o);
      const int64_t m = 33, k = 14, n = 65;
      const auto a = Pattern(m * k, 0.8f, 0.4f);
      const auto b = Pattern(m * n, 0.6f, 1.9f);
      auto c_ref = Pattern(k * n, 0.3f, 3.1f);
      auto c_opt = c_ref;
      ref::GemmTransAAdd(a.data(), b.data(), m, k, n, c_ref.data());
      GemmTransAAdd(a.data(), b.data(), m, k, n, c_opt.data());
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                               c_ref.size() * sizeof(float)))
          << "isa=" << KernelIsaName(isa) << " threads=" << threads;
    }
  }
}

TEST_F(KernelTest, IsaDispatchReportsActiveTable) {
  // kAuto resolves to the best table the machine supports; forcing
  // kGeneric always works and reports as such.
  KernelOptions o;
  o.isa = KernelIsa::kGeneric;
  SetKernelOptions(o);
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kGeneric);
  EXPECT_STREQ(KernelIsaName(ActiveKernelIsa()), "generic");
  SetKernelOptions(KernelOptions{});  // kAuto
  if (KernelAvx2Available()) {
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kAvx2);
    EXPECT_STREQ(KernelIsaName(ActiveKernelIsa()), "avx2");
  } else {
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kGeneric);
  }
}

// ---- Convolution ----

std::vector<ConvKernelShape> ConvCases() {
  std::vector<ConvKernelShape> cases;
  // batch, cin, h, w, cout, kernel, stride, pad
  cases.push_back({2, 1, 8, 8, 3, 3, 1, 1});   // MNIST-ish same-pad
  cases.push_back({3, 2, 7, 9, 4, 3, 2, 0});   // strided, non-square, valid
  cases.push_back({1, 3, 11, 11, 2, 5, 1, 2}); // 5x5 kernel, wide pad
  cases.push_back({4, 2, 6, 6, 1, 1, 1, 0});   // pointwise 1x1
  cases.push_back({2, 1, 5, 5, 2, 3, 3, 1});   // stride > 1 with pad
  cases.push_back({2, 2, 9, 9, 9, 7, 1, 3});   // k > 6 splits kx, cout 9
  // The workload CNN's two layers (experiment_cli: 12x12 inputs, 3->4->8
  // channels, 5x5 kernels, pad 2) at the local-step batch (24), the
  // evaluation batch (64), the map_sync batch (256), one image, and a
  // batch that is not a multiple of the conv chunk.
  for (int64_t batch : {int64_t{1}, int64_t{24}, int64_t{64}, int64_t{256},
                        kConvChunkImages * 3 + 1}) {
    cases.push_back({batch, 3, 12, 12, 4, 5, 1, 2});  // conv1
    cases.push_back({batch, 4, 6, 6, 8, 5, 1, 2});    // conv2
  }
  return cases;
}

/// A conv input as the CNN produces it after ReLU + max-pool: runs of
/// exact zeros, plus a sprinkling of -0.0f.
std::vector<float> ReluLikeInput(int64_t n, float phase) {
  std::vector<float> v = Pattern(n, 1.0f, phase);
  for (int64_t i = 0; i < n; ++i) {
    float& e = v[static_cast<size_t>(i)];
    if (e < 0.0f) e = 0.0f;
    if (i % 11 == 5) e = -0.0f;
  }
  return v;
}

/// The inputs every conv bit-identity case runs: a signed ramp (the
/// normalized images the first layer sees) and a ReLU-like one (what the
/// second layer sees).
struct ConvInput {
  const char* name;
  std::vector<float> x;
};

std::vector<ConvInput> ConvInputs(int64_t n, float phase) {
  return {{"signed", Pattern(n, 1.0f, phase)},
          {"relu-like", ReluLikeInput(n, phase)}};
}

std::string ConvCaseName(const ConvKernelShape& s, const ConvInput& in,
                         KernelIsa isa, int threads) {
  return std::string("x=") + in.name + " isa=" + KernelIsaName(isa) +
         " threads=" + std::to_string(threads) +
         " batch=" + std::to_string(s.batch) +
         " cin=" + std::to_string(s.in_channels) +
         " cout=" + std::to_string(s.out_channels) +
         " k=" + std::to_string(s.kernel) +
         " stride=" + std::to_string(s.stride) +
         " pad=" + std::to_string(s.pad);
}

TEST_F(KernelTest, Conv2dForwardMatchesReferenceBitwise) {
  for (const ConvKernelShape& s : ConvCases()) {
    const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 1.7f);
    const auto bias = Pattern(s.out_channels, 0.2f, 0.9f);
    for (const ConvInput& in :
         ConvInputs(s.batch * s.in_channels * s.height * s.width, 0.3f)) {
      std::vector<float> out_ref(
          static_cast<size_t>(s.batch * s.out_channels * s.OutArea()), 0.0f);
      ref::Conv2dForwardKernel(in.x.data(), w.data(), bias.data(), s,
                               out_ref.data());
      for (KernelIsa isa : TestableIsas()) {
        for (int threads : kThreadCounts) {
          KernelOptions o = TinyBlocks(threads);
          o.isa = isa;
          SetKernelOptions(o);
          std::vector<float> out_opt(out_ref.size(), 0.0f);
          Conv2dForwardKernel(in.x.data(), w.data(), bias.data(), s,
                              out_opt.data());
          ASSERT_EQ(0, std::memcmp(out_ref.data(), out_opt.data(),
                                   out_ref.size() * sizeof(float)))
              << ConvCaseName(s, in, isa, threads);
        }
      }
    }
  }
}

TEST_F(KernelTest, Conv2dBackwardMatchesReferenceBitwise) {
  for (const ConvKernelShape& s : ConvCases()) {
    const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 2.1f);
    auto go = Pattern(s.batch * s.out_channels * s.OutArea(), 0.4f, 1.2f);
    for (size_t i = 7; i < go.size(); i += 17) go[i] = -0.0f;
    const size_t dx_size =
        static_cast<size_t>(s.batch * s.in_channels * s.height * s.width);
    const size_t dw_size = static_cast<size_t>(s.out_channels * s.Patch());
    const size_t db_size = static_cast<size_t>(s.out_channels);
    for (const ConvInput& in :
         ConvInputs(s.batch * s.in_channels * s.height * s.width, 0.6f)) {
      std::vector<float> dx_ref(dx_size, 0.0f);
      std::vector<float> dw_ref(dw_size, 0.0f);
      std::vector<float> db_ref(db_size, 0.0f);
      ref::Conv2dBackwardKernel(go.data(), in.x.data(), w.data(), s,
                                dx_ref.data(), dw_ref.data(), db_ref.data());
      for (KernelIsa isa : TestableIsas()) {
        for (int threads : kThreadCounts) {
          KernelOptions o = TinyBlocks(threads);
          o.isa = isa;
          SetKernelOptions(o);
          // dx requested and skipped (the first conv layer's input needs
          // no gradient): dw/db must not depend on it.
          for (bool with_dx : {true, false}) {
            std::vector<float> dx_opt(dx_size, 0.0f);
            std::vector<float> dw_opt(dw_size, 0.0f);
            std::vector<float> db_opt(db_size, 0.0f);
            Conv2dBackwardKernel(go.data(), in.x.data(), w.data(), s,
                                 with_dx ? dx_opt.data() : nullptr,
                                 dw_opt.data(), db_opt.data());
            const std::string name = ConvCaseName(s, in, isa, threads) +
                                     (with_dx ? " dx" : " no-dx");
            if (with_dx) {
              ASSERT_EQ(0, std::memcmp(dx_ref.data(), dx_opt.data(),
                                       dx_size * sizeof(float)))
                  << "dx " << name;
            }
            ASSERT_EQ(0, std::memcmp(dw_ref.data(), dw_opt.data(),
                                     dw_size * sizeof(float)))
                << "dw " << name;
            ASSERT_EQ(0, std::memcmp(db_ref.data(), db_opt.data(),
                                     db_size * sizeof(float)))
                << "db " << name;
          }
        }
      }
    }
  }
}

/// Scratch bytes one fresh thread allocates running the workload's conv2
/// layer forward and backward at `batch` (single-threaded kernels, so
/// every buffer lands in that thread's arena).
int64_t ConvScratchGrowth(int64_t batch) {
  const ConvKernelShape s{batch, 4, 6, 6, 8, 5, 1, 2};
  const auto x = ReluLikeInput(s.batch * s.in_channels * s.height * s.width,
                               0.1f);
  const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 0.2f);
  const auto bias = Pattern(s.out_channels, 0.2f, 0.3f);
  const auto go = Pattern(s.batch * s.out_channels * s.OutArea(), 0.4f, 0.4f);
  std::vector<float> out(static_cast<size_t>(s.batch * s.out_channels *
                                             s.OutArea()), 0.0f);
  std::vector<float> dx(x.size(), 0.0f), dw(w.size(), 0.0f),
      db(bias.size(), 0.0f);
  int64_t growth = 0;
  std::thread worker([&] {
    ScratchArena::ResetPeak();
    const int64_t base = ScratchArena::PeakBytes();
    Conv2dForwardKernel(x.data(), w.data(), bias.data(), s, out.data());
    Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, dx.data(),
                         dw.data(), db.data());
    growth = ScratchArena::PeakBytes() - base;
  });
  worker.join();
  return growth;
}

TEST_F(KernelTest, ConvScratchIsBoundedByOneChunk) {
  // map_sync forwards 256 examples at once: the conv scratch must stay
  // what one chunk of kConvChunkImages needs, not grow with the batch.
  SetKernelOptions(KernelOptions{});
  const int64_t chunk = ConvScratchGrowth(kConvChunkImages);
  EXPECT_GT(chunk, 0);
  EXPECT_LE(ConvScratchGrowth(256), chunk);
  EXPECT_LE(ConvScratchGrowth(kConvChunkImages * 3 + 1), chunk);
}

TEST_F(KernelTest, Conv2dBackwardHandlesNullOutputs) {
  SetKernelOptions(TinyBlocks(4));
  const ConvKernelShape s{2, 2, 6, 6, 3, 3, 1, 1};
  const auto x = Pattern(s.batch * s.in_channels * s.height * s.width, 1.0f,
                         0.0f);
  const auto w = Pattern(s.out_channels * s.Patch(), 0.5f, 1.0f);
  const auto go = Pattern(s.batch * s.out_channels * s.OutArea(), 0.4f, 2.0f);
  const size_t dw_size = static_cast<size_t>(s.out_channels * s.Patch());
  std::vector<float> dw_ref(dw_size, 0.0f), dw_opt(dw_size, 0.0f);
  // dx and db skipped entirely.
  ref::Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr,
                            dw_ref.data(), nullptr);
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr,
                       dw_opt.data(), nullptr);
  EXPECT_EQ(0, std::memcmp(dw_ref.data(), dw_opt.data(),
                           dw_size * sizeof(float)));
  // All three null: must be a no-op, not a crash.
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr, nullptr,
                       nullptr);
}

TEST_F(KernelTest, Im2ColRoundTripAgainstStridedWindow) {
  // Both strides must produce the textbook patch layout.
  for (int64_t stride : {int64_t{1}, int64_t{2}}) {
    const int64_t cin = 2, h = 5, w = 6, kernel = 3, pad = 1;
    const Im2ColSpec spec{kernel, stride, pad};
    const int64_t ho = (h + 2 * pad - kernel) / stride + 1;
    const int64_t wo = (w + 2 * pad - kernel) / stride + 1;
    const auto x = Pattern(cin * h * w, 1.0f, 0.8f);
    std::vector<float> cols(
        static_cast<size_t>(cin * kernel * kernel * ho * wo), -1.0f);
    Im2Col(x.data(), cin, h, w, spec, cols.data());
    for (int64_t c = 0; c < cin; ++c) {
      for (int64_t ky = 0; ky < kernel; ++ky) {
        for (int64_t kx = 0; kx < kernel; ++kx) {
          for (int64_t oy = 0; oy < ho; ++oy) {
            for (int64_t ox = 0; ox < wo; ++ox) {
              const int64_t iy = oy * stride + ky - pad;
              const int64_t ix = ox * stride + kx - pad;
              const float expected =
                  (iy < 0 || iy >= h || ix < 0 || ix >= w)
                      ? 0.0f
                      : x[static_cast<size_t>((c * h + iy) * w + ix)];
              const int64_t row = (c * kernel + ky) * kernel + kx;
              ASSERT_EQ(expected,
                        cols[static_cast<size_t>(row * ho * wo + oy * wo + ox)])
                  << "stride=" << stride << " c=" << c << " ky=" << ky
                  << " kx=" << kx << " oy=" << oy << " ox=" << ox;
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelTest, GradCheckThroughBlockedConvPath) {
  // Finite-difference check of the full autograd conv path while the
  // blocked kernels (tiny blocks, 2 threads) are live underneath.
  SetKernelOptions(TinyBlocks(2));
  Rng rng(23);
  Conv2dSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 3,
                  .stride = 2, .pad = 1};
  Variable x = Leaf(Tensor::Normal(Shape{2, 2, 5, 5}, 0, 1, &rng));
  Variable w = Leaf(Tensor::Normal(Shape{3, 18}, 0, 0.5f, &rng));
  Variable b = Leaf(Tensor::Normal(Shape{3}, 0, 0.5f, &rng));
  auto loss = [&] { return ag::Sum(ag::Tanh(ag::Conv2d(x, w, b, spec))); };
  EXPECT_LT(MaxGradCheckError(loss, {&x, &w, &b}, 5e-3), 0.1);
}

// ---- Scratch arena ----

TEST_F(KernelTest, ScratchArenaGrowsAndTracksPeak) {
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchArena::ResetPeak();
  float* p = arena.Buffer(7, 100);
  ASSERT_NE(p, nullptr);
  p[0] = 1.0f;
  p[99] = 2.0f;
  EXPECT_GE(ScratchArena::PeakBytes(),
            static_cast<int64_t>(100 * sizeof(float)));
  // Same slot, smaller request: pointer is stable, no growth.
  const int64_t peak_before = ScratchArena::PeakBytes();
  EXPECT_EQ(p, arena.Buffer(7, 50));
  EXPECT_EQ(ScratchArena::PeakBytes(), peak_before);
  // Larger request grows the slot and raises the peak.
  float* q = arena.Buffer(7, 1000);
  ASSERT_NE(q, nullptr);
  q[999] = 3.0f;
  EXPECT_GT(ScratchArena::PeakBytes(), peak_before);
}

TEST_F(KernelTest, BlockedGemmReportsScratchUse) {
  KernelOptions o;
  o.blocked_min_flops = 0;
  SetKernelOptions(o);
  ScratchArena::ResetPeak();
  const int64_t m = 32, k = 32, n = 32;
  const auto a = Pattern(m * k, 1.0f, 0.0f);
  const auto b = Pattern(k * n, 1.0f, 1.0f);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  GemmAdd(a.data(), b.data(), m, k, n, c.data());
  EXPECT_GT(ScratchArena::PeakBytes(), 0);
}

// ---- End-to-end federated bit-identity across kernel_threads ----

Tensor RunTinyFedAvg(int kernel_threads, bool autotune = false) {
  Rng rng(1234);
  auto data = GenerateImageData(MnistLikeProfile(), 120, 60, &rng);
  auto split = SimilarityPartition(data.train, 3, 0.5, &rng);
  std::vector<ClientView> views;
  for (auto& idx : split.client_indices) views.push_back({idx, {}});
  CnnConfig mc;
  mc.conv1_channels = 2;
  mc.conv2_channels = 4;
  mc.feature_dim = 8;
  FlConfig config;
  config.local_steps = 2;
  config.batch_size = 8;
  config.lr = 0.05;
  config.seed = 77;
  config.max_examples_per_pass = 64;
  config.kernel_threads = kernel_threads;
  config.kernel_autotune = autotune;
  FedAvg algo(config, &data.train, views, MakeCnnFactory(mc));
  TrainerOptions options;
  options.eval_max_examples = 60;
  FederatedTrainer trainer(&algo, &data.test, options);
  RunHistory history = trainer.Run(2);
  EXPECT_GE(history.rounds.back().peak_scratch_bytes, 0);
  return algo.global_state();
}

TEST_F(KernelTest, FederatedRunBitIdenticalAcrossKernelThreads) {
  const Tensor base = RunTinyFedAvg(1);
  for (int threads : {2, 4}) {
    SetKernelOptions(KernelOptions{});  // the run sets its own threads
    const Tensor other = RunTinyFedAvg(threads);
    ASSERT_EQ(base.size(), other.size());
    for (int64_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(base.at(i), other.at(i))
          << "threads=" << threads << " element " << i;
    }
  }
}

// ---- Autotuner ----

/// Index of `tile` in the candidate set of `op`, or -1.
int CandidateIndex(AutotuneOp op, const TileConfig& tile) {
  const auto& candidates = AutotuneCandidates(op);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].block_m == tile.block_m &&
        candidates[i].block_k == tile.block_k &&
        candidates[i].block_n == tile.block_n) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().GetCounter(name)->value();
}

TEST_F(KernelTest, AutotunerExploresEveryCandidateThenCommitsArgmin) {
  AutotuneConfig cfg;
  cfg.enabled = true;
  cfg.samples_per_candidate = 2;
  SetAutotuneConfig(cfg);
  ResetAutotuneForTest();
  const auto& candidates = AutotuneCandidates(AutotuneOp::kGemmAdd);
  const int64_t trials_before = CounterValue("kernel.autotune.trials");
  const int64_t hits_before = CounterValue("kernel.autotune.cache_hits");
  // Exploration: every candidate must be issued exactly
  // samples_per_candidate times before the shape commits. Feed fake
  // timings that make candidate 2 the unambiguous winner.
  std::vector<int> issued(candidates.size(), 0);
  for (size_t i = 0; i < 2 * candidates.size(); ++i) {
    AutotuneTrial trial = 0;
    const TileConfig tile =
        AutotunePick(AutotuneOp::kGemmAdd, "testisa", 64, 75, 130, &trial);
    ASSERT_NE(trial, 0u) << "pick " << i << " should still be exploring";
    const int idx = CandidateIndex(AutotuneOp::kGemmAdd, tile);
    ASSERT_GE(idx, 0) << "pick returned a tile outside the candidate set";
    issued[static_cast<size_t>(idx)] += 1;
    AutotuneReport(trial, idx == 2 ? 0.5 : 5.0 + idx);
  }
  for (size_t i = 0; i < issued.size(); ++i) {
    EXPECT_EQ(issued[i], 2) << "candidate " << i;
  }
  EXPECT_EQ(CounterValue("kernel.autotune.trials") - trials_before,
            static_cast<int64_t>(2 * candidates.size()));
  // Committed: the winner comes back with no trial token, and each such
  // answer counts as a cache hit.
  for (int i = 0; i < 3; ++i) {
    AutotuneTrial trial = 99;
    const TileConfig tile =
        AutotunePick(AutotuneOp::kGemmAdd, "testisa", 64, 75, 130, &trial);
    EXPECT_EQ(trial, 0u);
    EXPECT_EQ(CandidateIndex(AutotuneOp::kGemmAdd, tile), 2);
  }
  EXPECT_EQ(CounterValue("kernel.autotune.cache_hits") - hits_before, 3);
  // A different shape is an independent key and starts exploring again.
  AutotuneTrial trial = 0;
  AutotunePick(AutotuneOp::kGemmAdd, "testisa", 64, 75, 131, &trial);
  EXPECT_NE(trial, 0u);
}

TEST_F(KernelTest, AutotunerDefaultCandidateIsTheStaticDefault) {
  // Candidate 0 of each op must equal the KernelOptions defaults, so a
  // tuned run can always fall back to exactly the untuned blocking.
  const KernelOptions defaults;
  for (AutotuneOp op : {AutotuneOp::kGemmAdd, AutotuneOp::kGemmTransB}) {
    const TileConfig& first = AutotuneCandidates(op)[0];
    EXPECT_EQ(first.block_m, defaults.block_m) << AutotuneOpName(op);
    EXPECT_EQ(first.block_k, defaults.block_k) << AutotuneOpName(op);
    EXPECT_EQ(first.block_n, defaults.block_n) << AutotuneOpName(op);
  }
}

TEST_F(KernelTest, AutotuneFileCachePersistsWinnerAcrossReset) {
  const std::string path = ::testing::TempDir() + "autotune_persist.cache";
  std::remove(path.c_str());
  AutotuneConfig cfg;
  cfg.enabled = true;
  cfg.samples_per_candidate = 1;
  cfg.cache_file = path;
  SetAutotuneConfig(cfg);
  ResetAutotuneForTest();
  const auto& candidates = AutotuneCandidates(AutotuneOp::kGemmTransB);
  for (size_t i = 0; i < candidates.size(); ++i) {
    AutotuneTrial trial = 0;
    const TileConfig tile =
        AutotunePick(AutotuneOp::kGemmTransB, "testisa", 8, 96, 24, &trial);
    ASSERT_NE(trial, 0u);
    const int idx = CandidateIndex(AutotuneOp::kGemmTransB, tile);
    AutotuneReport(trial, idx == 1 ? 1.0 : 9.0);
  }
  // Committed and written. Drop every byte of in-process state: the
  // next pick must come back committed straight from the file.
  ResetAutotuneForTest();
  AutotuneTrial trial = 99;
  const TileConfig tile =
      AutotunePick(AutotuneOp::kGemmTransB, "testisa", 8, 96, 24, &trial);
  EXPECT_EQ(trial, 0u);
  EXPECT_EQ(CandidateIndex(AutotuneOp::kGemmTransB, tile), 1);
  // The file itself is the documented format: header + one line.
  std::ifstream in(path);
  std::string header, line;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "rfed-autotune v1");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "gemm_transb testisa 8 96 24 16 256 1024");
  std::remove(path.c_str());
}

TEST_F(KernelTest, AutotuneCacheRewriteKeepsForeignIsaLines) {
  // A cache written on another machine (different ISA) must survive
  // this machine committing its own picks into the same file.
  const std::string path = ::testing::TempDir() + "autotune_foreign.cache";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "rfed-autotune v1\n";
    out << "gemm_add othermachine 1 2 3 96 384 512\n";
  }
  AutotuneConfig cfg;
  cfg.enabled = true;
  cfg.samples_per_candidate = 1;
  cfg.cache_file = path;
  SetAutotuneConfig(cfg);
  ResetAutotuneForTest();
  const auto& candidates = AutotuneCandidates(AutotuneOp::kGemmAdd);
  for (size_t i = 0; i < candidates.size(); ++i) {
    AutotuneTrial trial = 0;
    AutotunePick(AutotuneOp::kGemmAdd, "testisa", 4, 5, 6, &trial);
    ASSERT_NE(trial, 0u);
    AutotuneReport(trial, 1.0);
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("gemm_add othermachine 1 2 3 96 384 512"),
            std::string::npos);
  EXPECT_NE(content.find("gemm_add testisa 4 5 6"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(KernelTest, CorruptAutotuneCacheAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir();
  auto pick_with_cache = [](const std::string& path) {
    AutotuneConfig cfg;
    cfg.enabled = true;
    cfg.cache_file = path;
    SetAutotuneConfig(cfg);
    ResetAutotuneForTest();
    AutotuneTrial trial = 0;
    AutotunePick(AutotuneOp::kGemmAdd, "testisa", 1, 2, 3, &trial);
  };
  {
    // Wrong header: a cache from an incompatible version.
    const std::string path = dir + "autotune_badheader.cache";
    std::ofstream(path, std::ios::trunc) << "rfed-autotune v0\n";
    EXPECT_DEATH(pick_with_cache(path), "bad header");
    std::remove(path.c_str());
  }
  {
    // Unknown op name: stale schema.
    const std::string path = dir + "autotune_badop.cache";
    std::ofstream(path, std::ios::trunc)
        << "rfed-autotune v1\ngemm_bogus testisa 1 2 3 64 256 1024\n";
    EXPECT_DEATH(pick_with_cache(path), "unknown op");
    std::remove(path.c_str());
  }
  {
    // Truncated line: torn write.
    const std::string path = dir + "autotune_torn.cache";
    std::ofstream(path, std::ios::trunc)
        << "rfed-autotune v1\ngemm_add testisa 1 2\n";
    EXPECT_DEATH(pick_with_cache(path), "unparseable line");
    std::remove(path.c_str());
  }
}

TEST_F(KernelTest, FederatedRunBitIdenticalWithAutotuneOn) {
  // The pinned-pick contract end to end: whatever tiles the tuner
  // happens to measure and commit mid-run, the trained global model
  // must be byte-identical to the untuned run, because every candidate
  // computes the canonical summation order.
  const Tensor base = RunTinyFedAvg(1, /*autotune=*/false);
  SetKernelOptions(KernelOptions{});
  ResetAutotuneForTest();
  const Tensor tuned = RunTinyFedAvg(1, /*autotune=*/true);
  ASSERT_EQ(base.size(), tuned.size());
  for (int64_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base.at(i), tuned.at(i)) << "element " << i;
  }
  // And the tuner really ran: exploration trials were recorded.
  EXPECT_GT(CounterValue("kernel.autotune.trials"), 0);
}

}  // namespace
}  // namespace rfed
