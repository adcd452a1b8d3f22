#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/rng.h"

namespace rfed {
namespace {

using ::rfed::testing::PatternTensor;

TEST(ElementwiseTest, AddSubMulScale) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {4, 5, 6});
  EXPECT_TRUE(AllClose(Add(a, b), Tensor(Shape{3}, {5, 7, 9}), 0.0f));
  EXPECT_TRUE(AllClose(Sub(a, b), Tensor(Shape{3}, {-3, -3, -3}), 0.0f));
  EXPECT_TRUE(AllClose(Mul(a, b), Tensor(Shape{3}, {4, 10, 18}), 0.0f));
  EXPECT_TRUE(AllClose(Scale(a, 2.0f), Tensor(Shape{3}, {2, 4, 6}), 0.0f));
  EXPECT_TRUE(AllClose(AddScalar(a, 1.0f), Tensor(Shape{3}, {2, 3, 4}), 0.0f));
}

TEST(ActivationTest, ReluClampsNegatives) {
  Tensor x(Shape{4}, {-1, 0, 2, -3});
  Tensor y = Relu(x);
  EXPECT_TRUE(AllClose(y, Tensor(Shape{4}, {0, 0, 2, 0}), 0.0f));
}

TEST(ActivationTest, ReluBackwardMasks) {
  Tensor x(Shape{4}, {-1, 0, 2, 3});
  Tensor g(Shape{4}, {1, 1, 1, 1});
  Tensor dx = ReluBackward(g, x);
  EXPECT_TRUE(AllClose(dx, Tensor(Shape{4}, {0, 0, 1, 1}), 0.0f));
}

TEST(ActivationTest, TanhAndSigmoidValues) {
  Tensor x(Shape{2}, {0.0f, 1.0f});
  Tensor th = Tanh(x);
  EXPECT_NEAR(th.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(th.at(1), std::tanh(1.0f), 1e-6f);
  Tensor sg = Sigmoid(x);
  EXPECT_NEAR(sg.at(0), 0.5f, 1e-6f);
  EXPECT_NEAR(sg.at(1), 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
}

TEST(MatMulTest, HandComputed) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor(Shape{2, 2}, {58, 64, 139, 154}), 1e-4f));
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Rng rng(1);
  Tensor a = Tensor::Normal(Shape{4, 5}, 0, 1, &rng);
  Tensor b = Tensor::Normal(Shape{4, 6}, 0, 1, &rng);
  // MatMulTransA(a, b) == a^T b.
  Tensor expected = MatMul(Transpose2d(a), b);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), expected, 1e-4f));
  Tensor c = Tensor::Normal(Shape{6, 5}, 0, 1, &rng);
  // MatMulTransB(a, c) == a c^T with a [4,5], c [6,5].
  Tensor expected2 = MatMul(a, Transpose2d(c));
  EXPECT_TRUE(AllClose(MatMulTransB(a, c), expected2, 1e-4f));
}

TEST(MatMulTest, IdentityPreserves) {
  Tensor eye(Shape{3, 3});
  for (int i = 0; i < 3; ++i) eye.at2(i, i) = 1.0f;
  Tensor a = PatternTensor(Shape{3, 3});
  EXPECT_TRUE(AllClose(MatMul(eye, a), a, 1e-6f));
}

TEST(BroadcastTest, AddRowBroadcast) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3}, {10, 20, 30});
  Tensor y = AddRowBroadcast(x, b);
  EXPECT_TRUE(
      AllClose(y, Tensor(Shape{2, 3}, {11, 22, 33, 14, 25, 36}), 0.0f));
}

TEST(ReductionTest, SumRowsAndMeanRows) {
  Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(SumRows(x), Tensor(Shape{3}, {5, 7, 9}), 1e-6f));
  EXPECT_TRUE(AllClose(MeanRows(x), Tensor(Shape{3}, {2.5, 3.5, 4.5}), 1e-6f));
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(2);
  Tensor logits = Tensor::Normal(Shape{5, 7}, 0, 3, &rng);
  Tensor p = SoftmaxRows(logits);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 7; ++c) {
      sum += p.at2(r, c);
      EXPECT_GT(p.at2(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, InvariantToRowShift) {
  Tensor a(Shape{1, 3}, {1, 2, 3});
  Tensor b(Shape{1, 3}, {101, 102, 103});
  EXPECT_TRUE(AllClose(SoftmaxRows(a), SoftmaxRows(b), 1e-6f));
}

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits(Shape{2, 4});
  const float loss = SoftmaxCrossEntropy(logits, {0, 3}, nullptr);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5f);
}

TEST(CrossEntropyTest, GradientSumsToZeroPerRow) {
  Rng rng(3);
  Tensor logits = Tensor::Normal(Shape{3, 5}, 0, 1, &rng);
  Tensor dlogits;
  SoftmaxCrossEntropy(logits, {1, 4, 0}, &dlogits);
  for (int64_t r = 0; r < 3; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 5; ++c) sum += dlogits.at2(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(CrossEntropyTest, PerfectPredictionLossNearZero) {
  Tensor logits(Shape{1, 3}, {100.0f, 0.0f, 0.0f});
  EXPECT_NEAR(SoftmaxCrossEntropy(logits, {0}, nullptr), 0.0f, 1e-5f);
}

TEST(Conv2dTest, IdentityKernelCopiesInput) {
  // 1x1 kernel with weight 1 reproduces the input.
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 1,
                  .stride = 1, .pad = 0};
  Tensor x = PatternTensor(Shape{2, 1, 4, 4});
  Tensor w(Shape{1, 1}, {1.0f});
  Tensor b(Shape{1});
  Tensor y = Conv2dForward(x, w, b, spec);
  EXPECT_TRUE(AllClose(y, x, 1e-6f));
}

TEST(Conv2dTest, HandComputed3x3) {
  // One 3x3 input, 3x3 averaging kernel, no pad: output = mean * 9.
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                  .stride = 1, .pad = 0};
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::Full(Shape{1, 9}, 1.0f);
  Tensor b(Shape{1}, {0.5f});
  Tensor y = Conv2dForward(x, w, b, spec);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_NEAR(y.at(0), 45.5f, 1e-5f);
}

TEST(Conv2dTest, PaddingKeepsSize) {
  Conv2dSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 5,
                  .stride = 1, .pad = 2};
  Rng rng(4);
  Tensor x = Tensor::Normal(Shape{2, 2, 8, 8}, 0, 1, &rng);
  Tensor w = Tensor::Normal(Shape{3, 2 * 25}, 0, 0.1f, &rng);
  Tensor b(Shape{3});
  Tensor y = Conv2dForward(x, w, b, spec);
  EXPECT_EQ(y.shape(), Shape({2, 3, 8, 8}));
}

TEST(Conv2dTest, StrideReducesSize) {
  Conv2dSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3,
                  .stride = 2, .pad = 1};
  Tensor x(Shape{1, 1, 8, 8});
  Tensor w(Shape{1, 9});
  Tensor b(Shape{1});
  EXPECT_EQ(Conv2dForward(x, w, b, spec).shape(), Shape({1, 1, 4, 4}));
}

TEST(Conv2dTest, BackwardMatchesFiniteDifferences) {
  Conv2dSpec spec{.in_channels = 2, .out_channels = 2, .kernel = 3,
                  .stride = 1, .pad = 1};
  Rng rng(5);
  Tensor x = Tensor::Normal(Shape{1, 2, 4, 4}, 0, 1, &rng);
  Tensor w = Tensor::Normal(Shape{2, 18}, 0, 0.5f, &rng);
  Tensor b = Tensor::Normal(Shape{2}, 0, 0.5f, &rng);
  // Loss = sum(conv(x, w, b)); upstream grad = ones.
  Tensor y = Conv2dForward(x, w, b, spec);
  Tensor grad_out = Tensor::Full(y.shape(), 1.0f);
  Tensor dx, dw, db;
  Conv2dBackward(grad_out, x, w, spec, &dx, &dw, &db);

  auto loss_at = [&](Tensor* target, int64_t i, float eps) {
    const float original = target->at(i);
    target->at(i) = original + eps;
    const float value = Conv2dForward(x, w, b, spec).Sum();
    target->at(i) = original;
    return value;
  };
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.size(); i += 7) {
    const float numeric =
        (loss_at(&x, i, eps) - loss_at(&x, i, -eps)) / (2 * eps);
    EXPECT_NEAR(dx.at(i), numeric, 2e-2f) << "dx[" << i << "]";
  }
  for (int64_t i = 0; i < w.size(); i += 5) {
    const float numeric =
        (loss_at(&w, i, eps) - loss_at(&w, i, -eps)) / (2 * eps);
    EXPECT_NEAR(dw.at(i), numeric, 2e-2f) << "dw[" << i << "]";
  }
  for (int64_t i = 0; i < b.size(); ++i) {
    const float numeric =
        (loss_at(&b, i, eps) - loss_at(&b, i, -eps)) / (2 * eps);
    EXPECT_NEAR(db.at(i), numeric, 2e-2f) << "db[" << i << "]";
  }
}

TEST(MaxPoolTest, ForwardSelectsMax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  std::vector<uint8_t> argmax;
  Tensor y = MaxPool2x2Forward(x, &argmax);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_EQ(y.at(0), 5.0f);
  EXPECT_EQ(argmax[0], 1);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  std::vector<uint8_t> argmax;
  Tensor y = MaxPool2x2Forward(x, &argmax);
  Tensor grad_out(Shape{1, 1, 1, 1}, {2.5f});
  Tensor dx = MaxPool2x2Backward(grad_out, x.shape(), argmax);
  EXPECT_TRUE(AllClose(dx, Tensor(Shape{1, 1, 2, 2}, {0, 2.5f, 0, 0}), 0.0f));
}

TEST(MaxPoolTest, BackwardIgnoresGarbageInRecycledStorage) {
  // dx comes from uninitialized storage the kernel overwrites in full:
  // a recycled buffer full of NaNs must give the zero-filled
  // reference's bits.
  Rng rng(41);
  const Shape in_shape{3, 2, 6, 8};
  Tensor x = Tensor::Normal(in_shape, 0, 1, &rng);
  std::vector<uint8_t> taps;
  Tensor y = MaxPool2x2Forward(x, &taps);
  Tensor grad_out = Tensor::Normal(y.shape(), 0, 1, &rng);
  Tensor want(in_shape);
  ref::MaxPool2x2Backward(grad_out.data(), taps.data(), 3 * 2 * 3, 4,
                          want.data());

  BufferPool::Scope scope;
  const float* garbage_storage = nullptr;
  {
    Tensor garbage(in_shape, std::numeric_limits<float>::quiet_NaN());
    garbage_storage = garbage.data();
  }  // donated to the pool's freelist
  Tensor dx = MaxPool2x2Backward(grad_out, in_shape, taps);
  ASSERT_EQ(dx.data(), garbage_storage) << "dx did not reuse the buffer";
  EXPECT_EQ(0, std::memcmp(dx.data(), want.data(),
                           static_cast<size_t>(want.size()) * sizeof(float)));
}

TEST(GatherScatterTest, GatherRowsSelects) {
  Tensor table(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = GatherRows(table, {2, 0, 2});
  EXPECT_TRUE(AllClose(out, Tensor(Shape{3, 2}, {5, 6, 1, 2, 5, 6}), 0.0f));
}

TEST(GatherScatterTest, ScatterAddAccumulatesDuplicates) {
  Tensor grad(Shape{3, 2}, {1, 1, 2, 2, 3, 3});
  Tensor table_grad(Shape{3, 2});
  ScatterAddRows(grad, {2, 0, 2}, &table_grad);
  EXPECT_TRUE(AllClose(table_grad,
                       Tensor(Shape{3, 2}, {2, 2, 0, 0, 4, 4}), 0.0f));
}

TEST(SliceConcatTest, SliceRowsExtracts) {
  Tensor x(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(SliceRows(x, 1, 3),
                       Tensor(Shape{2, 2}, {3, 4, 5, 6}), 0.0f));
}

TEST(SliceConcatTest, ConcatRowsStacks) {
  Tensor a(Shape{1, 2}, {1, 2});
  Tensor b(Shape{2, 2}, {3, 4, 5, 6});
  EXPECT_TRUE(AllClose(ConcatRows(a, b),
                       Tensor(Shape{3, 2}, {1, 2, 3, 4, 5, 6}), 0.0f));
}

TEST(TransposeTest, TwiceIsIdentity) {
  Tensor a = PatternTensor(Shape{3, 5});
  EXPECT_TRUE(AllClose(Transpose2d(Transpose2d(a)), a, 0.0f));
}

}  // namespace
}  // namespace rfed
