// Bit-identity suite for the blocked/threaded kernel layer
// (tensor/kernels.h). Every test compares the optimized kernels against
// the retained naive references with EXPECT_EQ on floats — not
// EXPECT_NEAR — because the layer's contract is *exact* equality for
// every block size and thread count (docs/KERNELS.md). The final test
// pins that contract end to end: a federated run's global model must be
// byte-identical across kernel_threads in {1, 2, 4}.

#include <cmath>
#include <cstring>
#include <limits>
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
  }
};

/// Options that force the blocked path (no naive fallback) with blocks
/// small enough that the {1, 7, 17, 64, 65} sizes exercise full tiles,
/// remainder rows/columns, and multiple KC slices.
KernelOptions TinyBlocks(int threads) {
  KernelOptions o;
  o.threads = threads;
  o.tile = TileConfig{8, 8, 16};
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
  // Each ISA table x each tile below x threads {1, 2, 4} must reproduce
  // the reference bytes exactly: blocking only reorders which output
  // elements are in flight, never the summation within one. The tiles
  // span narrow and wide MC/KC/NC, including a KC (75) that splits the
  // contraction off any SIMD boundary. Shapes are chosen off
  // every tile boundary (odd m/k/n) plus the microkernel-exact 64 row
  // count, so full tiles, padded remainder rows, and remainder columns
  // all execute.
  struct Case { int64_t m, k, n; };
  const Case cases[] = {{64, 75, 130}, {65, 131, 197}, {6, 16, 33}};
  const TileConfig gemm_add_tiles[] = {{64, 256, 1024}, {64, 128, 2048},
                                       {32, 256, 4096}, {96, 384, 512},
                                       {64, 75, 8192}};
  const TileConfig transb_tiles[] = {
      {64, 256, 1024}, {16, 256, 1024}, {256, 256, 1024}};
  for (KernelIsa isa : TestableIsas()) {
    for (const TileConfig& tile : gemm_add_tiles) {
      for (int threads : kThreadCounts) {
        KernelOptions o;
        o.threads = threads;
        o.isa = isa;
        o.tile = tile;
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
    for (const TileConfig& tile : transb_tiles) {
      for (int threads : kThreadCounts) {
        KernelOptions o;
        o.threads = threads;
        o.isa = isa;
        o.tile = tile;
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

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::vector<ConvKernelShape> ConvCases() {
  std::vector<ConvKernelShape> cases;
  // batch, cin, h, w, cout, kernel, stride, pad
  cases.push_back({2, 1, 8, 8, 3, 3, 1, 1});   // MNIST-ish same-pad
  cases.push_back({3, 2, 7, 9, 4, 3, 2, 0});   // strided, non-square, valid
  cases.push_back({1, 3, 11, 11, 2, 5, 1, 2}); // 5x5 kernel, wide pad
  cases.push_back({4, 2, 6, 6, 1, 1, 1, 0});   // pointwise 1x1
  cases.push_back({2, 1, 5, 5, 2, 3, 3, 1});   // stride > 1 with pad
  cases.push_back({2, 2, 9, 9, 9, 7, 1, 3});   // k > 6 splits kx, cout 9
  // Shapes for the tiles: dx rows of 9, 12 and 17 lanes (ragged and
  // multi-vector), input channels that are not a multiple of the dx
  // channel block, heights that are not a multiple of its row block,
  // forward outputs at wo <= 8 (row tiles, with a 1-row tail at ho = 7)
  // and wo > 8, pad >= k (no grad_out border), and a strided fallback.
  cases.push_back({2, 5, 9, 9, 3, 3, 1, 1});    // cin 5, w 9, wo 9
  cases.push_back({2, 1, 10, 17, 4, 7, 1, 3});  // cin 1, k 7, w 17
  cases.push_back({3, 3, 5, 12, 5, 3, 1, 3});   // pad 3 >= k 3, wo 16
  cases.push_back({2, 5, 6, 3, 4, 3, 1, 3});    // pad >= k, wo 7
  cases.push_back({2, 3, 9, 9, 2, 1, 1, 0});    // k 1, w 9
  cases.push_back({2, 4, 7, 6, 8, 5, 1, 2});    // ho 7: row-tile tail
  cases.push_back({2, 3, 11, 12, 6, 3, 2, 1});  // stride 2, cin 3
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
          // The kernel overwrites out: NaN left anywhere fails the memcmp.
          std::vector<float> out_opt(out_ref.size(), kNaN);
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
          // The kernel overwrites every requested output, so they start
          // as NaN.
          for (bool with_dx : {true, false}) {
            std::vector<float> dx_opt(dx_size, kNaN);
            std::vector<float> dw_opt(dw_size, kNaN);
            std::vector<float> db_opt(db_size, kNaN);
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
  std::vector<float> dw_ref(dw_size, 0.0f), dw_opt(dw_size, kNaN);
  // dx and db skipped entirely.
  ref::Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr,
                            dw_ref.data(), nullptr);
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr,
                       dw_opt.data(), nullptr);
  EXPECT_EQ(0, std::memcmp(dw_ref.data(), dw_opt.data(),
                           dw_size * sizeof(float)));
  // db alone.
  const size_t db_size = static_cast<size_t>(s.out_channels);
  std::vector<float> db_ref(db_size, 0.0f), db_opt(db_size, kNaN);
  ref::Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr,
                            nullptr, db_ref.data());
  Conv2dBackwardKernel(go.data(), x.data(), w.data(), s, nullptr, nullptr,
                       db_opt.data());
  EXPECT_EQ(0, std::memcmp(db_ref.data(), db_opt.data(),
                           db_size * sizeof(float)));
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

// ---- Elementwise: ReLU, max-pool, plus-zero ----

float BitsToFloat(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// The values the elementwise kernels must treat exactly as the
/// references do: quiet NaNs with payloads of both signs, signed zeros,
/// infinities, denormals of both signs, the extremes of the normal
/// range, and values a rounding away from zero.
std::vector<float> EdgeValues() {
  return {BitsToFloat(0x7fc00001u),  BitsToFloat(0xffc12345u),
          BitsToFloat(0x7fffffffu),  0.0f,
          -0.0f,                     std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          BitsToFloat(0x007fffffu),  BitsToFloat(0x807fffffu),
          std::numeric_limits<float>::max(),
          -std::numeric_limits<float>::max(),
          std::numeric_limits<float>::min(),
          -std::numeric_limits<float>::min(),
          1.0f,                      -1.0f};
}

/// n sign-random values with every edge value spliced in at a stride
/// that walks them across all SIMD lane positions.
std::vector<float> ElementwiseInput(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& e : v) e = static_cast<float>(rng.Normal(0.0, 1.0));
  const std::vector<float> edge = EdgeValues();
  for (int64_t i = 0, k = 0; i < n; i += 3, ++k) {
    v[static_cast<size_t>(i)] = edge[static_cast<size_t>(k) % edge.size()];
  }
  return v;
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

// Lengths around the 8- and 32-float vector steps plus the workload's
// conv1 ReLU (24 x 4 x 12 x 12) and a length past the evaluation batch's
// (150 x 4 x 12 x 12) that ends on a scalar tail.
constexpr int64_t kElementwiseSizes[] = {1, 7, 8, 9, 13824, 86403};
constexpr int64_t kUnalignedStarts[] = {0, 1, 3};

TEST_F(KernelTest, ReluForwardAndBackwardMatchReferenceBitwise) {
  for (int64_t n : kElementwiseSizes) {
    for (int64_t start : kUnalignedStarts) {
      const std::vector<float> xbuf = ElementwiseInput(n + start, 31);
      const std::vector<float> gbuf = ElementwiseInput(n + start, 32);
      const float* x = xbuf.data() + start;
      const float* g = gbuf.data() + start;
      std::vector<float> y_ref(static_cast<size_t>(n));
      std::vector<float> dx_ref(static_cast<size_t>(n));
      ref::Relu(x, n, y_ref.data());
      ref::ReluBackward(g, x, n, dx_ref.data());
      for (KernelIsa isa : TestableIsas()) {
        KernelOptions o;
        o.isa = isa;
        SetKernelOptions(o);
        const std::string name = std::string("isa=") + KernelIsaName(isa) +
                                 " n=" + std::to_string(n) +
                                 " start=" + std::to_string(start);
        std::vector<float> out(static_cast<size_t>(n + start), 7.0f);
        ReluKernel(x, n, out.data() + start);
        EXPECT_TRUE(SameBits(y_ref.data(), out.data() + start, n))
            << "relu " << name;
        // In place, as Relu runs it on its output copy.
        std::vector<float> inplace = xbuf;
        ReluKernel(inplace.data() + start, n, inplace.data() + start);
        EXPECT_TRUE(SameBits(y_ref.data(), inplace.data() + start, n))
            << "relu in place " << name;
        ReluBackwardKernel(g, x, n, out.data() + start);
        EXPECT_TRUE(SameBits(dx_ref.data(), out.data() + start, n))
            << "relu_backward " << name;
        inplace = gbuf;
        ReluBackwardKernel(inplace.data() + start, x, n,
                           inplace.data() + start);
        EXPECT_TRUE(SameBits(dx_ref.data(), inplace.data() + start, n))
            << "relu_backward in place " << name;
      }
    }
  }
}

TEST_F(KernelTest, PlusZeroMatchesReferenceBitwise) {
  for (int64_t n : kElementwiseSizes) {
    for (int64_t start : kUnalignedStarts) {
      const std::vector<float> in = ElementwiseInput(n + start, 33);
      std::vector<float> want = in;
      ref::PlusZero(want.data() + start, n);
      for (KernelIsa isa : TestableIsas()) {
        KernelOptions o;
        o.isa = isa;
        SetKernelOptions(o);
        std::vector<float> got = in;
        PlusZeroKernel(got.data() + start, n);
        EXPECT_TRUE(SameBits(want.data(), got.data(), n + start))
            << "isa=" << KernelIsaName(isa) << " n=" << n
            << " start=" << start;
      }
    }
  }
}

TEST_F(KernelTest, FillScaleAxpyMatchReferenceBitwise) {
  const float nan_payload = BitsToFloat(0x7fc0beefu);
  for (int64_t n : kElementwiseSizes) {
    for (int64_t start : kUnalignedStarts) {
      const std::vector<float> x = ElementwiseInput(n + start, 34);
      // y's edge values sit one slot off x's, so no add pairs two NaNs.
      const std::vector<float> ybase = ElementwiseInput(n + start + 1, 35);
      const std::vector<float> y(ybase.begin() + 1, ybase.end());
      for (KernelIsa isa : TestableIsas()) {
        KernelOptions o;
        o.isa = isa;
        SetKernelOptions(o);
        const std::string name = std::string("isa=") + KernelIsaName(isa) +
                                 " n=" + std::to_string(n) +
                                 " start=" + std::to_string(start);
        for (float value : {1.5f, -0.0f, nan_payload}) {
          std::vector<float> want = x, got = x;
          ref::Fill(want.data() + start, n, value);
          FillKernel(got.data() + start, n, value);
          EXPECT_TRUE(SameBits(want.data(), got.data(), n + start))
              << "fill " << value << " " << name;
        }
        for (float s : {-1.75f, 0.0f, 3e38f}) {
          std::vector<float> want = x, got = x;
          ref::Scale(want.data() + start, n, s);
          ScaleKernel(got.data() + start, n, s);
          EXPECT_TRUE(SameBits(want.data(), got.data(), n + start))
              << "scale " << s << " " << name;
        }
        for (float a : {-0.37f, 0.0f, 2e38f}) {
          std::vector<float> want = y, got = y;
          ref::Axpy(a, x.data() + start, n, want.data() + start);
          AxpyKernel(a, x.data() + start, n, got.data() + start);
          EXPECT_TRUE(SameBits(want.data(), got.data(), n + start))
              << "axpy " << a << " " << name;
        }
      }
    }
  }
}

/// A pool input whose windows cycle through the cases the tap order
/// decides: four equal taps, +0/-0 ties both ways round, a NaN in each
/// tap position (alone, and against a larger value), two NaNs, infinite
/// and denormal windows, equal maxima in two taps — and sign-random
/// windows with edge values between them.
std::vector<float> PoolInput(int64_t rows, int64_t wo, uint64_t seed) {
  const int64_t w = 2 * wo;
  std::vector<float> x = ElementwiseInput(rows * 2 * w, seed);
  const float nan = BitsToFloat(0x7fc00abcu);
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const std::vector<std::vector<float>> windows = {
      {1.5f, 1.5f, 1.5f, 1.5f},  {0.0f, -0.0f, 0.0f, -0.0f},
      {-0.0f, 0.0f, -0.0f, 0.0f}, {nan, 1.0f, 2.0f, 3.0f},
      {1.0f, nan, 2.0f, 3.0f},   {1.0f, 2.0f, nan, 3.0f},
      {1.0f, 2.0f, 3.0f, nan},   {3.0f, nan, nan, 5.0f},
      {-inf, -inf, inf, inf},    {den, -den, 0.0f, den},
      {-2.0f, 4.0f, -1.0f, 4.0f}, {-3.0f, -1.0f, -1.0f, -2.0f},
  };
  // Every other window gets a case, so each case lands in every SIMD lane
  // and at row ends (wo = 3, 6) as the window index advances.
  for (int64_t o = 0, k = 0; o < rows * wo; o += 2, ++k) {
    const std::vector<float>& v = windows[static_cast<size_t>(k) % windows.size()];
    float* top = x.data() + (o / wo) * 2 * w + 2 * (o % wo);
    top[0] = v[0];
    top[1] = v[1];
    top[w] = v[2];
    top[w + 1] = v[3];
  }
  return x;
}

TEST_F(KernelTest, MaxPoolForwardAndBackwardMatchReferenceBitwise) {
  struct PoolShape {
    int64_t batch, channels, h, w;
  };
  // The workload's two pools at the local-step batch, conv1's at the
  // evaluation batch, then row widths wo = 1, 2, 4, 5, 8 (each step and
  // tail path) and single-row tensors.
  const PoolShape shapes[] = {{24, 4, 12, 12}, {24, 8, 6, 6}, {150, 4, 12, 12},
                              {3, 2, 4, 2},    {2, 3, 2, 4},  {1, 2, 6, 8},
                              {2, 1, 4, 10},   {1, 3, 2, 16}, {1, 1, 2, 6},
                              {1, 1, 2, 2}};
  for (const PoolShape& ps : shapes) {
    const int64_t rows = ps.batch * ps.channels * ps.h / 2, wo = ps.w / 2;
    const int64_t windows = rows * wo, n = windows * 4;
    for (int64_t start : {int64_t{0}, int64_t{1}}) {
      std::vector<float> xbuf(static_cast<size_t>(start), 0.0f);
      const std::vector<float> body = PoolInput(rows, wo, 41);
      xbuf.insert(xbuf.end(), body.begin(), body.end());
      const float* x = xbuf.data() + start;
      std::vector<float> grad = ElementwiseInput(windows, 42);
      std::vector<float> out_ref(static_cast<size_t>(windows));
      std::vector<uint8_t> tap_ref(static_cast<size_t>(windows));
      ref::MaxPool2x2Forward(x, rows, wo, out_ref.data(), tap_ref.data());
      std::vector<float> dx_ref(static_cast<size_t>(n));
      ref::MaxPool2x2Backward(grad.data(), tap_ref.data(), rows, wo,
                              dx_ref.data());
      for (KernelIsa isa : TestableIsas()) {
        KernelOptions o;
        o.isa = isa;
        SetKernelOptions(o);
        const std::string name =
            std::string("isa=") + KernelIsaName(isa) +
            " shape=" + std::to_string(ps.batch) + "x" +
            std::to_string(ps.channels) + "x" + std::to_string(ps.h) + "x" +
            std::to_string(ps.w) + " start=" + std::to_string(start);
        std::vector<float> out(static_cast<size_t>(windows), 9.0f);
        std::vector<uint8_t> tap(static_cast<size_t>(windows), 0xff);
        MaxPool2x2ForwardKernel(x, rows, wo, out.data(), tap.data());
        EXPECT_TRUE(SameBits(out_ref.data(), out.data(), windows))
            << "pool forward " << name;
        EXPECT_EQ(tap_ref, tap) << "pool taps " << name;
        // dx starts as garbage: the kernel must write every element.
        std::vector<float> dx(static_cast<size_t>(n),
                              BitsToFloat(0x7f800001u));
        MaxPool2x2BackwardKernel(grad.data(), tap_ref.data(), rows, wo,
                                 dx.data());
        EXPECT_TRUE(SameBits(dx_ref.data(), dx.data(), n))
            << "pool backward " << name;
      }
    }
  }
}

TEST_F(KernelTest, ElementwiseEdgeSemanticsArePinned) {
  // The references' semantics, spelled out (docs/KERNELS.md
  // "Elementwise"); every ISA table must land on them.
  const float nan = BitsToFloat(0x7fc00abcu);
  for (KernelIsa isa : TestableIsas()) {
    KernelOptions o;
    o.isa = isa;
    SetKernelOptions(o);
    SCOPED_TRACE(KernelIsaName(isa));
    const float x[4] = {-0.0f, nan, -2.0f, 3.0f};
    float y[4];
    ReluKernel(x, 4, y);
    EXPECT_EQ(FloatBits(y[0]), 0u);  // -0 -> +0
    EXPECT_EQ(FloatBits(y[1]), 0u);  // NaN -> +0
    EXPECT_EQ(FloatBits(y[2]), 0u);
    EXPECT_EQ(y[3], 3.0f);
    const float g[4] = {5.0f, 6.0f, 7.0f, -0.0f};
    float dx[4];
    ReluBackwardKernel(g, x, 4, dx);
    EXPECT_EQ(FloatBits(dx[0]), 0u);  // x = -0 <= 0 masks
    EXPECT_EQ(dx[1], 6.0f);           // NaN x passes its gradient
    EXPECT_EQ(FloatBits(dx[2]), 0u);
    EXPECT_EQ(FloatBits(dx[3]), FloatBits(-0.0f));  // passed through as is

    // One row of three windows: a tie keeps the first tap, a NaN at tap 0
    // wins, a NaN later never does.
    const float px[12] = {2.0f, 2.0f, nan, 1.0f, 1.0f, nan,    // top row
                          2.0f, 1.0f, 5.0f, 6.0f, 4.0f, 0.0f};  // bottom row
    float out[3];
    uint8_t tap[3];
    MaxPool2x2ForwardKernel(px, 1, 3, out, tap);
    EXPECT_EQ(out[0], 2.0f);
    EXPECT_EQ(tap[0], 0);
    EXPECT_EQ(FloatBits(out[1]), FloatBits(nan));
    EXPECT_EQ(tap[1], 0);
    EXPECT_EQ(out[2], 4.0f);
    EXPECT_EQ(tap[2], 2);
    const float pg[3] = {-0.0f, 1.5f, -2.5f};
    float pdx[12];
    MaxPool2x2BackwardKernel(pg, tap, 1, 3, pdx);
    for (int i = 0; i < 12; ++i) {
      const float want = i == 2 ? 1.5f : i == 10 ? -2.5f : 0.0f;
      EXPECT_EQ(FloatBits(pdx[i]), FloatBits(want)) << "dx " << i;  // -0 g -> +0
    }

    float z[3] = {-0.0f, 0.0f, -1.0f};
    PlusZeroKernel(z, 3);
    EXPECT_EQ(FloatBits(z[0]), 0u);
    EXPECT_EQ(FloatBits(z[1]), 0u);
    EXPECT_EQ(z[2], -1.0f);
  }
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

Tensor RunTinyFedAvg(int kernel_threads) {
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

}  // namespace
}  // namespace rfed
