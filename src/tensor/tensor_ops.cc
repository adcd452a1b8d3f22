#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/check.h"

namespace rfed {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  RFED_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << " vs " << b.shape().ToString();
}

ConvKernelShape ToKernelShape(const Conv2dSpec& spec, int64_t batch,
                              int64_t h, int64_t w) {
  ConvKernelShape s;
  s.batch = batch;
  s.in_channels = spec.in_channels;
  s.height = h;
  s.width = w;
  s.out_channels = spec.out_channels;
  s.kernel = spec.kernel;
  s.stride = spec.stride;
  s.pad = spec.pad;
  return s;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  out.SubInPlace(b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out = a;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) *= b.at(i);
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a;
  out.MulInPlace(s);
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out = a;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) += s;
  return out;
}

Tensor Relu(const Tensor& x) {
  Tensor out = Tensor::Uninitialized(x.shape());
  ReluKernel(x.data(), x.size(), out.data());
  return out;
}

Tensor ReluBackward(const Tensor& grad, const Tensor& x) {
  CheckSameShape(grad, x);
  Tensor out = Tensor::Uninitialized(grad.shape());
  ReluBackwardKernel(grad.data(), x.data(), grad.size(), out.data());
  return out;
}

Tensor Tanh(const Tensor& x) {
  Tensor out = x;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) = std::tanh(out.at(i));
  return out;
}

Tensor TanhBackwardFromOutput(const Tensor& grad, const Tensor& y) {
  CheckSameShape(grad, y);
  Tensor out = grad;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.at(i) *= 1.0f - y.at(i) * y.at(i);
  }
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  Tensor out = x;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.at(i) = 1.0f / (1.0f + std::exp(-out.at(i)));
  }
  return out;
}

Tensor SigmoidBackwardFromOutput(const Tensor& grad, const Tensor& y) {
  CheckSameShape(grad, y);
  Tensor out = grad;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.at(i) *= y.at(i) * (1.0f - y.at(i));
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{m, n});
  GemmAdd(a.data(), b.data(), m, k, n, c.data());
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{k, n});
  // c[p, j] = sum_i a[i, p] * b[i, j]
  GemmTransAAdd(a.data(), b.data(), m, k, n, c.data());
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  Tensor c(Shape{m, k});
  // c[i, p] = sum_j a[i, j] * b[p, j]  (dot of contiguous rows)
  GemmTransBAssign(a.data(), b.data(), m, n, k, c.data());
  return c;
}

Tensor Transpose2d(const Tensor& a) {
  RFED_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out(Shape{n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out.at2(j, i) = a.at2(i, j);
  }
  return out;
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  RFED_CHECK_EQ(x.rank(), 2);
  RFED_CHECK_EQ(bias.rank(), 1);
  RFED_CHECK_EQ(x.dim(1), bias.dim(0));
  Tensor out = x;
  const int64_t rows = x.dim(0), cols = x.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += bias.at(c);
  }
  return out;
}

Tensor MulRowBroadcast(const Tensor& x, const Tensor& scale) {
  RFED_CHECK_EQ(x.rank(), 2);
  RFED_CHECK_EQ(scale.rank(), 1);
  RFED_CHECK_EQ(x.dim(1), scale.dim(0));
  Tensor out = x;
  const int64_t rows = x.dim(0), cols = x.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] *= scale.at(c);
  }
  return out;
}

Tensor SumRows(const Tensor& x) {
  RFED_CHECK_EQ(x.rank(), 2);
  Tensor out(Shape{x.dim(1)});
  AccumulateRows(x, &out);
  return out;
}

void AccumulateRows(const Tensor& x, Tensor* sum) {
  RFED_CHECK_EQ(x.rank(), 2);
  const int64_t rows = x.dim(0), cols = x.dim(1);
  RFED_CHECK(sum->shape() == Shape({cols}))
      << sum->shape().ToString() << " vs " << x.shape().ToString();
  float* out = sum->data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x.data() + r * cols;
    for (int64_t c = 0; c < cols; ++c) out[c] += row[c];
  }
}

Tensor LinearBiasReluForward(const Tensor& x, const Tensor& w,
                             const Tensor& bias) {
  RFED_CHECK_EQ(x.rank(), 2);
  RFED_CHECK_EQ(w.rank(), 2);
  RFED_CHECK_EQ(bias.rank(), 1);
  RFED_CHECK_EQ(x.dim(1), w.dim(0));
  RFED_CHECK_EQ(w.dim(1), bias.dim(0));
  const int64_t m = x.dim(0), k = x.dim(1), n = w.dim(1);
  Tensor y(Shape{m, n});
  GemmAdd(x.data(), w.data(), m, k, n, y.data());
  // Epilogue in the unfused chain's order: add the bias, then clamp with
  // the ReLU kernel — float-identical to AddRowBroadcast then Relu.
  for (int64_t r = 0; r < m; ++r) {
    float* row = y.data() + r * n;
    for (int64_t c = 0; c < n; ++c) row[c] += bias.at(c);
  }
  ReluKernel(y.data(), y.size(), y.data());
  return y;
}

void LinearBiasReluBackward(const Tensor& grad, const Tensor& y,
                            const Tensor& x, const Tensor& w, Tensor* dx,
                            Tensor* dw, Tensor* db) {
  // ReluBackward masked by the output: y = max(0, pre) makes `y <= 0`
  // the exact set of clamped elements.
  Tensor g_pre = ReluBackward(grad, y);
  if (dx != nullptr) *dx = MatMulTransB(g_pre, w);
  if (dw != nullptr) *dw = MatMulTransA(x, g_pre);
  if (db != nullptr) *db = SumRows(g_pre);
}

Tensor MeanRows(const Tensor& x) {
  RFED_CHECK_GT(x.dim(0), 0);
  Tensor out = SumRows(x);
  out.MulInPlace(1.0f / static_cast<float>(x.dim(0)));
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  RFED_CHECK_EQ(logits.rank(), 2);
  const int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out = logits;
  for (int64_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * cols;
    float max_v = row[0];
    for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < cols; ++c) row[c] *= inv;
  }
  return out;
}

float SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                          Tensor* dlogits) {
  RFED_CHECK_EQ(logits.rank(), 2);
  const int64_t rows = logits.dim(0), cols = logits.dim(1);
  RFED_CHECK_EQ(static_cast<int64_t>(labels.size()), rows);
  Tensor probs = SoftmaxRows(logits);
  double loss = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    const int label = labels[static_cast<size_t>(r)];
    RFED_CHECK_GE(label, 0);
    RFED_CHECK_LT(label, cols);
    loss -= std::log(std::max(probs.at2(r, label), 1e-12f));
  }
  loss /= static_cast<double>(rows);
  if (dlogits != nullptr) {
    *dlogits = probs;
    const float inv_rows = 1.0f / static_cast<float>(rows);
    for (int64_t r = 0; r < rows; ++r) {
      dlogits->at2(r, labels[static_cast<size_t>(r)]) -= 1.0f;
      for (int64_t c = 0; c < cols; ++c) dlogits->at2(r, c) *= inv_rows;
    }
  }
  return static_cast<float>(loss);
}

Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& b,
                     const Conv2dSpec& spec) {
  RFED_CHECK_EQ(x.rank(), 4);
  const int64_t batch = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  RFED_CHECK_EQ(cin, spec.in_channels);
  const int64_t patch = cin * spec.kernel * spec.kernel;
  RFED_CHECK(w.shape() == Shape({spec.out_channels, patch}))
      << w.shape().ToString();
  RFED_CHECK_EQ(b.dim(0), spec.out_channels);
  const int64_t ho = spec.OutDim(h), wo = spec.OutDim(wd);
  RFED_CHECK_GT(ho, 0);
  RFED_CHECK_GT(wo, 0);
  // The kernel writes every element of out (kernels.h).
  Tensor out = Tensor::Uninitialized(Shape{batch, spec.out_channels, ho, wo});
  Conv2dForwardKernel(x.data(), w.data(), b.data(),
                      ToKernelShape(spec, batch, h, wd), out.data());
  return out;
}

void Conv2dBackward(const Tensor& grad_out, const Tensor& x, const Tensor& w,
                    const Conv2dSpec& spec, Tensor* dx, Tensor* dw,
                    Tensor* db) {
  const int64_t batch = x.dim(0), h = x.dim(2), wd = x.dim(3);
  const int64_t ho = spec.OutDim(h), wo = spec.OutDim(wd);
  RFED_CHECK(grad_out.shape() == Shape({batch, spec.out_channels, ho, wo}));

  // The kernel overwrites every requested gradient (kernels.h).
  if (dx != nullptr) *dx = Tensor::Uninitialized(x.shape());
  if (dw != nullptr) *dw = Tensor::Uninitialized(w.shape());
  if (db != nullptr) *db = Tensor::Uninitialized(Shape{spec.out_channels});

  Conv2dBackwardKernel(grad_out.data(), x.data(), w.data(),
                       ToKernelShape(spec, batch, h, wd),
                       dx != nullptr ? dx->data() : nullptr,
                       dw != nullptr ? dw->data() : nullptr,
                       db != nullptr ? db->data() : nullptr);
}

Tensor MaxPool2x2Forward(const Tensor& x, std::vector<uint8_t>* taps) {
  RFED_CHECK_EQ(x.rank(), 4);
  const int64_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  RFED_CHECK_EQ(h % 2, 0);
  RFED_CHECK_EQ(w % 2, 0);
  const int64_t ho = h / 2, wo = w / 2;
  Tensor out(Shape{batch, ch, ho, wo});
  taps->resize(static_cast<size_t>(out.size()));
  MaxPool2x2ForwardKernel(x.data(), batch * ch * ho, wo, out.data(),
                          taps->data());
  return out;
}

Tensor MaxPool2x2Backward(const Tensor& grad_out, const Shape& input_shape,
                          const std::vector<uint8_t>& taps) {
  RFED_CHECK_EQ(grad_out.rank(), 4);
  const int64_t batch = grad_out.dim(0), ch = grad_out.dim(1);
  const int64_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  RFED_CHECK(input_shape == Shape({batch, ch, 2 * ho, 2 * wo}))
      << input_shape.ToString() << " vs " << grad_out.shape().ToString();
  RFED_CHECK_EQ(static_cast<int64_t>(taps.size()), grad_out.size());
  // The kernel writes every element of dx (kernels.h), so no zero fill.
  Tensor dx = Tensor::Uninitialized(input_shape);
  MaxPool2x2BackwardKernel(grad_out.data(), taps.data(), batch * ch * ho, wo,
                           dx.data());
  return dx;
}

Tensor GatherRows(const Tensor& table, const std::vector<int>& ids) {
  RFED_CHECK_EQ(table.rank(), 2);
  const int64_t cols = table.dim(1);
  Tensor out(Shape{static_cast<int64_t>(ids.size()), cols});
  for (size_t i = 0; i < ids.size(); ++i) {
    RFED_CHECK_GE(ids[i], 0);
    RFED_CHECK_LT(ids[i], table.dim(0));
    const float* src = table.data() + static_cast<int64_t>(ids[i]) * cols;
    std::copy(src, src + cols, out.data() + static_cast<int64_t>(i) * cols);
  }
  return out;
}

void ScatterAddRows(const Tensor& grad, const std::vector<int>& ids,
                    Tensor* table_grad) {
  RFED_CHECK_EQ(grad.rank(), 2);
  RFED_CHECK_EQ(table_grad->rank(), 2);
  RFED_CHECK_EQ(grad.dim(0), static_cast<int64_t>(ids.size()));
  RFED_CHECK_EQ(grad.dim(1), table_grad->dim(1));
  const int64_t cols = grad.dim(1);
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* src = grad.data() + static_cast<int64_t>(i) * cols;
    float* dst = table_grad->data() + static_cast<int64_t>(ids[i]) * cols;
    for (int64_t c = 0; c < cols; ++c) dst[c] += src[c];
  }
}

Tensor SliceRows(const Tensor& x, int64_t begin, int64_t end) {
  RFED_CHECK_EQ(x.rank(), 2);
  RFED_CHECK_GE(begin, 0);
  RFED_CHECK_LE(end, x.dim(0));
  RFED_CHECK_LE(begin, end);
  const int64_t cols = x.dim(1);
  Tensor out(Shape{end - begin, cols});
  std::copy(x.data() + begin * cols, x.data() + end * cols, out.data());
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  RFED_CHECK_EQ(a.rank(), 2);
  RFED_CHECK_EQ(b.rank(), 2);
  RFED_CHECK_EQ(a.dim(1), b.dim(1));
  Tensor out(Shape{a.dim(0) + b.dim(0), a.dim(1)});
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
  return out;
}

}  // namespace rfed
