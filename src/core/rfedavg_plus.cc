#include "core/rfedavg.h"

#include "core/mmd.h"
#include "fl/checkpoint.h"
#include "obs/trace.h"
#include "util/check.h"

namespace rfed {

RFedAvgPlus::RFedAvgPlus(const FlConfig& config, const RegularizerOptions& reg,
                         const Dataset* train_data,
                         std::vector<ClientView> clients,
                         const ModelFactory& model_factory)
    : FederatedAlgorithm("rFedAvg+", config, train_data, std::move(clients),
                         model_factory),
      reg_(reg),
      store_(num_clients(), reg.regularize_logits
                                ? raw_model()->num_classes()
                                : raw_model()->feature_dim()),
      noise_rng_(config.seed ^ 0x7f4a7c159e3779b9ULL) {
  RFED_CHECK_GE(reg_.lambda, 0.0);
}

RFedAvgPlus::RFedAvgPlus(const FlConfig& config, const RegularizerOptions& reg,
                         const ClientPool* pool,
                         const ModelFactory& model_factory)
    : FederatedAlgorithm("rFedAvg+", config, pool, model_factory),
      reg_(reg),
      store_(DeltaMapStore::Sparse(num_clients(),
                                   reg.regularize_logits
                                       ? raw_model()->num_classes()
                                       : raw_model()->feature_dim())),
      noise_rng_(config.seed ^ 0x7f4a7c159e3779b9ULL) {
  RFED_CHECK_GE(reg_.lambda, 0.0);
}

void RFedAvgPlus::OnRoundStart(int round, const std::vector<int>& selected) {
  // Server ships each sampled client only its leave-one-out averaged map
  // δ̄^{-k} (Algorithm 2, line 10 input): one map per client, O(d N)
  // total instead of rFedAvg's O(d N^2). A client whose copy is lost
  // trains without the regularizer this round.
  obs::TraceSpan trace_span("map_broadcast");
  map_received_.clear();
  for (int k : selected) {
    if (channel().Download(store_.BroadcastBytesAveraged(),
                           channel_kind::kMap)) {
      map_received_.insert(k);
    }
  }
}

Variable RFedAvgPlus::ExtraLoss(int client, const ModelOutput& output,
                                const Batch& batch) {
  if (reg_.lambda == 0.0) return Variable();
  // On a worker replica the context blob carries the delivery flag and
  // leave-one-out mean the server-side store would have provided.
  const bool received =
      ctx_active_ ? ctx_received_
                  : map_received_.find(client) != map_received_.end();
  if (!received) return Variable();
  obs::TraceSpan trace_span("mmd_penalty");
  const Variable& rep =
      reg_.regularize_logits ? output.logits : output.features;
  Variable r = AveragedMmdRegularizer(
      rep, ctx_active_ ? ctx_loo_ : store_.LeaveOneOutMean(client));
  return ag::Scale(r, static_cast<float>(reg_.lambda));
}

void RFedAvgPlus::EncodeTrainContext(int round, int client,
                                     CheckpointWriter* writer) const {
  const bool received = map_received_.find(client) != map_received_.end();
  writer->WriteBool(received);
  if (received) writer->WriteTensor(store_.LeaveOneOutMean(client));
}

void RFedAvgPlus::DecodeTrainContext(int round, int client,
                                     CheckpointReader* reader) {
  ctx_active_ = true;
  ctx_received_ = reader->ReadBool();
  if (ctx_received_) ctx_loo_ = reader->ReadTensor();
}

void RFedAvgPlus::OnRoundEnd(int round, const std::vector<int>& selected) {
  // Second synchronization (Algorithm 2, lines 13-16): the server sends
  // the freshly aggregated global model back; every surviving client
  // recomputes its map with that *consistent* model and uploads it. Both
  // legs ride the fault channel: a client that never receives the new
  // model cannot recompute, and a map upload lost in flight leaves the
  // store holding that client's previous map — the server's averaged map
  // is always the mean of the maps it actually *received*.
  //
  // Speculative compute, in-order commit: every survivor's map is
  // computed first, where its data lives (MAP jobs on the serve workers,
  // the thread pool in the sim), and the channel legs, DP noise and
  // screen then run in cohort order — the fault channel's RNG and the
  // noise stream are drawn exactly as a one-client-at-a-time loop would.
  obs::TraceSpan trace_span("map_sync");
  std::vector<Tensor> deltas =
      ComputeCohortDeltas(round, selected, reg_.regularize_logits);
  for (size_t i = 0; i < selected.size(); ++i) {
    const int k = selected[i];
    // A lost download drops the map computed ahead of it.
    if (!ChargeModelDownload()) continue;
    Tensor delta = std::move(deltas[i]);
    ApplyDpNoise(reg_.dp, &delta, &noise_rng_);
    // Arriving maps pass the server's non-finite screen before entering
    // the store (a poisoned global model — possible with validation off
    // — would otherwise spread NaN maps to every client).
    if (channel().Upload(store_.MapBytes(), channel_kind::kMap) &&
        ScreenMap(k, delta)) {
      store_.Update(k, std::move(delta));
    }
  }
}

void RFedAvgPlus::SaveExtraState(CheckpointWriter* writer) const {
  if (store_.sparse()) {
    // Pool-mode checkpoints save only the touched maps (ascending id);
    // everything else is the implicit zero δ_0.
    const std::vector<int> ids = store_.TouchedClients();
    writer->WriteU32(static_cast<uint32_t>(ids.size()));
    for (int id : ids) {
      writer->WriteI32(id);
      writer->WriteTensor(store_.Get(id));
    }
  } else {
    writer->WriteU32(static_cast<uint32_t>(store_.num_clients()));
    for (const Tensor& delta : store_.All()) writer->WriteTensor(delta);
  }
  writer->WriteRng(noise_rng_.SaveState());
}

void RFedAvgPlus::LoadExtraState(CheckpointReader* reader) {
  const uint32_t count = reader->ReadU32();
  if (store_.sparse()) {
    store_.Reset();
    for (uint32_t i = 0; i < count; ++i) {
      const int id = reader->ReadI32();
      RFED_CHECK(id >= 0 && id < store_.num_clients())
          << "checkpoint names client id " << id << " outside the pool of "
          << store_.num_clients() << " clients";
      store_.Update(id, reader->ReadTensor());
    }
  } else {
    RFED_CHECK_EQ(count, static_cast<uint32_t>(store_.num_clients()))
        << "checkpoint is for a different client count";
    for (int k = 0; k < store_.num_clients(); ++k) {
      store_.Update(k, reader->ReadTensor());
    }
  }
  noise_rng_.LoadState(reader->ReadRng());
}

}  // namespace rfed
