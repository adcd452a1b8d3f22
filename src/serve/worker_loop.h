#ifndef RFED_SERVE_WORKER_LOOP_H_
#define RFED_SERVE_WORKER_LOOP_H_

#include <cstdint>

#include "fl/algorithm.h"
#include "net/socket.h"

namespace rfed {
namespace serve {

/// How one pass of the worker service loop ended: cleanly (SHUTDOWN
/// frame) or with a lost connection, plus the last round this replica
/// completed a RESULT for (-1 if none) — what a reconnect attempt
/// reports in its HELLO_REJOIN.
struct WorkerLoopResult {
  bool clean_shutdown = false;
  int last_round = -1;
};

/// The rfed_worker service loop: handshakes on `conn` (HELLO — or
/// HELLO_REJOIN when `rejoin_round` >= 0, i.e. this is a reconnect after
/// a lost connection — carrying worker_id / num_workers / fingerprint;
/// HELLO_ACK restoring the server's run state into `algorithm`), then
/// serves JOB frames — FederatedAlgorithm::ExecuteJob runs the training
/// or MAP job the context names, and the RESULT echoes the JOB's
/// sequence number — and answers PING probes with PONG, until SHUTDOWN
/// or EOF. Jobs are
/// self-contained, so the loop executes whatever client the server
/// routed here, including jobs reassigned from a dead peer. Also the
/// in-process loopback harness of the serve tests: it runs unchanged on
/// a std::thread against a localhost connection.
WorkerLoopResult RunWorkerLoop(FederatedAlgorithm* algorithm,
                               net::TcpConnection* conn, int worker_id,
                               int num_workers, uint64_t fingerprint,
                               int rejoin_round = -1);

}  // namespace serve
}  // namespace rfed

#endif  // RFED_SERVE_WORKER_LOOP_H_
