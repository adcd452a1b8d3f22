#include "autograd/variable.h"

#include <unordered_set>
#include <utility>

#include "autograd/tape.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "util/check.h"

namespace rfed {

Tensor& GraphNode::grad() {
  if (!has_grad_) {
    grad_ = Tensor(value_shape());
    has_grad_ = true;
  }
  return grad_;
}

void GraphNode::AccumulateGrad(const Tensor& g) {
  RFED_CHECK(g.shape() == value_shape())
      << g.shape().ToString() << " vs " << value_shape().ToString();
  grad().AddInPlace(g);
}

void GraphNode::AccumulateGrad(Tensor&& g) {
  if (has_grad_) {
    AccumulateGrad(static_cast<const Tensor&>(g));
    return;
  }
  RFED_CHECK(g.shape() == value_shape())
      << g.shape().ToString() << " vs " << value_shape().ToString();
  grad_ = std::move(g);
  has_grad_ = true;
  PlusZeroKernel(grad_.data(), grad_.size());
}

void GraphNode::ZeroGrad() {
  if (has_grad_) grad_.Fill(0.0f);
}

void GraphNode::ReleaseValue() {
  if (value_dropped) return;
  dropped_shape_ = value_.shape();
  value_ = Tensor();
  value_dropped = true;
}

void GraphNode::ReleaseGrad() {
  grad_ = Tensor();
  has_grad_ = false;
}

void Variable::Backward() {
  RFED_CHECK(valid());
  RFED_CHECK_EQ(node_->value().size(), 1)
      << "Backward() must start from a scalar";
  obs::TraceSpan trace_span("backward");

  ag::TapeSession* session = ag::internal::ActiveSession();
  // A replayed step reuses the execution order captured when its graph
  // was recorded — bit-identical by construction, and O(1) bookkeeping.
  if (session != nullptr && session->TryCachedBackward(node_.get())) return;

  // Iterative post-order DFS for a reverse topological order.
  std::vector<GraphNode*> order;
  std::unordered_set<GraphNode*> visited;
  struct Frame {
    GraphNode* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  if (visited.insert(node_.get()).second) {
    stack.push_back({node_.get(), 0});
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_input < frame.node->inputs.size()) {
      GraphNode* child = frame.node->inputs[frame.next_input++].get();
      if (visited.insert(child).second) stack.push_back({child, 0});
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  ag::internal::RunBackwardPass(node_.get(), order, session);
  if (session != nullptr) {
    session->OnBackwardOrderComputed(node_.get(), std::move(order));
  }
}

}  // namespace rfed
