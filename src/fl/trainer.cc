#include "fl/trainer.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "autograd/tape.h"
#include "fl/checkpoint.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/logging.h"

namespace rfed {

FederatedTrainer::FederatedTrainer(FederatedAlgorithm* algorithm,
                                   const Dataset* test_data,
                                   const TrainerOptions& options)
    : algorithm_(algorithm), test_data_(test_data), options_(options) {
  RFED_CHECK(algorithm_ != nullptr);
  RFED_CHECK(test_data_ != nullptr);
  RFED_CHECK_GE(options_.eval_every, 1);
  const int64_t n = test_data_->size();
  int64_t take = n;
  if (options_.eval_max_examples > 0) {
    take = std::min(take, options_.eval_max_examples);
  }
  // Deterministic stride subsample of the test set.
  eval_indices_.reserve(static_cast<size_t>(take));
  const double stride = static_cast<double>(n) / static_cast<double>(take);
  for (int64_t i = 0; i < take; ++i) {
    eval_indices_.push_back(static_cast<int>(
        std::min<double>(i * stride, static_cast<double>(n - 1))));
  }
}

double FederatedTrainer::EvaluateOn(const Dataset* data,
                                    const std::vector<int>& indices) {
  RFED_CHECK(!indices.empty());
  FeatureModel* model = algorithm_->GlobalModel();
  ag::NoGradScope no_grad;
  int64_t correct = 0;
  for (size_t begin = 0; begin < indices.size();
       begin += static_cast<size_t>(options_.eval_batch_size)) {
    const size_t end = std::min(
        begin + static_cast<size_t>(options_.eval_batch_size), indices.size());
    std::vector<int> chunk(indices.begin() + static_cast<int64_t>(begin),
                           indices.begin() + static_cast<int64_t>(end));
    Batch batch = data->GetBatch(chunk);
    ModelOutput out = model->Forward(batch);
    const std::vector<int> pred = ArgmaxRows(out.logits.value());
    for (size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] == batch.labels[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(indices.size());
}

double FederatedTrainer::EvaluateGlobal() {
  return EvaluateOn(test_data_, eval_indices_);
}

std::vector<double> FederatedTrainer::PerClientAccuracy(
    const Dataset* client_test_data, const std::vector<ClientView>& views) {
  std::vector<double> out;
  out.reserve(views.size());
  for (const auto& view : views) {
    if (view.test_indices.empty()) {
      out.push_back(std::nan(""));
    } else {
      out.push_back(EvaluateOn(client_test_data, view.test_indices));
    }
  }
  return out;
}

RunHistory FederatedTrainer::Run(int rounds, const RunCheckpoint* resume) {
  RunHistory history;
  history.algorithm = algorithm_->name();
  int start_round = 0;
  if (resume != nullptr) {
    RFED_CHECK_LE(resume->next_round, rounds)
        << "checkpoint is past the requested round count";
    algorithm_->LoadRunState(resume->algorithm_state);
    history = resume->history;
    start_round = resume->next_round;
  }
  history.rounds.reserve(static_cast<size_t>(rounds));
  // Per-round registry deltas are taken against the snapshot at entry,
  // so a second Run() in the same process (the registry is global and
  // cumulative) still reports only its own rounds.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Gauge* scratch_gauge = registry.GetGauge("kernel.scratch_peak_bytes");
  // High-water mark of outstanding tape/pool tensor bytes across every
  // training thread (tensor/buffer_pool.h). Registered here, next to the
  // kernel scratch peak, so the CSV column exists from round 0.
  obs::Gauge* tape_peak_gauge = registry.GetGauge("autograd.tape_peak_bytes");
  std::vector<obs::MetricSample> prev_snapshot = registry.Snapshot();
  for (int round = start_round; round < rounds; ++round) {
    RoundResult result = [&] {
      obs::TraceSpan trace_span("round");
      return algorithm_->RunRound(round);
    }();
    RoundMetrics metrics;
    metrics.round = round;
    metrics.train_loss = result.train_loss;
    metrics.round_seconds = result.seconds;
    metrics.round_bytes = algorithm_->comm().round_bytes();
    const ChannelStats& ch =
        std::as_const(*algorithm_).channel().stats();
    metrics.delivered_messages = ch.round_delivered;
    metrics.dropped_messages = ch.round_dropped;
    metrics.retried_messages = ch.round_retried;
    metrics.virtual_ms = result.virtual_ms;
    metrics.client_p50_ms = result.client_p50_ms;
    metrics.client_p95_ms = result.client_p95_ms;
    metrics.stragglers_cut = result.stragglers_cut;
    metrics.mean_staleness = result.mean_staleness;
    metrics.peak_scratch_bytes = ScratchArena::PeakBytes();
    scratch_gauge->Set(static_cast<double>(metrics.peak_scratch_bytes));
    tape_peak_gauge->Set(static_cast<double>(BufferPool::PeakBytes()));
    std::vector<obs::MetricSample> snapshot = registry.Snapshot();
    metrics.metrics = obs::SnapshotDelta(prev_snapshot, snapshot);
    prev_snapshot = std::move(snapshot);
    const bool eval_now =
        (round % options_.eval_every == 0) || round == rounds - 1;
    if (eval_now) {
      obs::TraceSpan trace_span("evaluate");
      metrics.test_accuracy = EvaluateGlobal();
    } else {
      metrics.test_accuracy = std::nan("");
    }
    if (options_.verbose && eval_now) {
      RFED_LOG(Info) << algorithm_->name() << " round " << round
                     << " loss=" << metrics.train_loss
                     << " acc=" << metrics.test_accuracy;
    }
    history.rounds.push_back(metrics);
    const bool stop_now =
        options_.stop_requested != nullptr &&
        options_.stop_requested->load(std::memory_order_relaxed);
    const bool cadence_hit = options_.checkpoint_every > 0 &&
                             (round + 1) % options_.checkpoint_every == 0;
    // A stop request flushes a checkpoint even off-cadence, so a resumed
    // run continues from exactly the round boundary the signal landed on.
    if (!options_.checkpoint_path.empty() && (cadence_hit || stop_now)) {
      obs::TraceSpan trace_span("checkpoint");
      RunCheckpoint ck;
      ck.next_round = round + 1;
      ck.history = history;
      algorithm_->SaveRunState(&ck.algorithm_state);
      ck.Save(options_.checkpoint_path);
    }
    if (stop_now) {
      if (options_.verbose) {
        RFED_LOG(Info) << algorithm_->name() << " stop requested after round "
                       << round;
      }
      break;
    }
  }
  return history;
}

}  // namespace rfed
