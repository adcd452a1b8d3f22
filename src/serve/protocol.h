#ifndef RFED_SERVE_PROTOCOL_H_
#define RFED_SERVE_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "fl/message.h"

namespace rfed {
namespace serve {

/// Payload bodies of the serve protocol's frames (net/frame.h carries
/// them). Encoding rides the CheckpointWriter/Reader codec — the same
/// bounds-checked fixed-width encoding run checkpoints use — and model
/// tensors travel as embedded FlMessage envelopes, so the bytes a worker
/// receives are exactly the bytes the simulator's ledger charges for the
/// corresponding transfer (plus FlMessage framing, accounted separately
/// as comm.wire_overhead_bytes).

/// Worker -> server, once per connection: who am I, how many peers do I
/// expect, and a fingerprint of the scenario I was launched with. The
/// server aborts the handshake on any mismatch — a worker building a
/// different model would silently corrupt the run.
struct HelloMessage {
  int32_t worker_id = 0;
  int32_t num_workers = 0;
  uint64_t fingerprint = 0;

  std::vector<uint8_t> Encode() const;
  static HelloMessage Decode(const std::vector<uint8_t>& payload);
};

/// Server -> worker, completing the handshake: the algorithm state blob
/// (SaveRunState) the worker replica restores before serving jobs — this
/// is how resumed runs and fresh runs alike put every replica at the
/// server's exact RNG/batcher positions.
struct HelloAckMessage {
  std::vector<uint8_t> state;

  std::vector<uint8_t> Encode() const;
  static HelloAckMessage Decode(const std::vector<uint8_t>& payload);
};

/// Server -> worker: one job for `client` in `round`. `seq` is the
/// executor's job sequence number (unique per run, starting at 1), which
/// the RESULT echoes: it tells a round's MAP job for client k apart from
/// the same round's training job for k, so a late duplicate of one can
/// never complete the other. `context` is the algorithm's blob — its
/// first word names the job kind (training or MAP; see
/// FederatedAlgorithm::ExecuteJob), the rest is the kind's payload
/// (SCAFFOLD controls, rFedAvg maps; the MAP layer choice).
/// `batcher_base` is a training job's batcher-stream state at the job's
/// start (EncodeBatcherBaseFor, empty for MAP jobs), making the job
/// self-contained — any worker replica can execute it from a cold cache,
/// which is what permits reassignment after a worker death; `download`
/// is a kModelDownload FlMessage carrying the broadcast state.
struct JobMessage {
  uint64_t seq = 0;
  int32_t round = 0;
  int32_t client = 0;
  std::vector<uint8_t> context;
  std::vector<uint8_t> batcher_base;
  FlMessage download;

  std::vector<uint8_t> Encode() const;
  static JobMessage Decode(const std::vector<uint8_t>& payload);
};

/// Worker -> server: one completed job, echoing its JOB's `seq`, round
/// and client. The kModelUpload FlMessage carries the trained flat state
/// and `loss` the mean local loss (training job), or the client's δ map
/// and 0 (MAP job).
struct ResultMessage {
  uint64_t seq = 0;
  int32_t round = 0;
  int32_t client = 0;
  double loss = 0.0;
  FlMessage upload;

  std::vector<uint8_t> Encode() const;
  static ResultMessage Decode(const std::vector<uint8_t>& payload);
};

/// Worker -> server, replacing HELLO when a restarted (or reconnecting)
/// rfed_worker re-handshakes mid-run: the same identity triple plus the
/// last round it completed a RESULT for (-1 if none), so the server can
/// log where the replica left off. The server validates exactly as it
/// does HELLO, charges the restart budget, and replies with a fresh
/// HELLO_ACK image.
struct HelloRejoinMessage {
  int32_t worker_id = 0;
  int32_t num_workers = 0;
  uint64_t fingerprint = 0;
  int32_t last_round = -1;

  std::vector<uint8_t> Encode() const;
  static HelloRejoinMessage Decode(const std::vector<uint8_t>& payload);
};

/// Payload of PING and PONG frames: a sequence number the PONG echoes,
/// so a late echo cannot satisfy a newer probe.
struct PingMessage {
  uint32_t seq = 0;

  std::vector<uint8_t> Encode() const;
  static PingMessage Decode(const std::vector<uint8_t>& payload);
};

}  // namespace serve
}  // namespace rfed

#endif  // RFED_SERVE_PROTOCOL_H_
