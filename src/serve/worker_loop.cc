#include "serve/worker_loop.h"

#include <utility>

#include "net/frame.h"
#include "serve/protocol.h"
#include "util/check.h"

namespace rfed {
namespace serve {

WorkerLoopResult RunWorkerLoop(FederatedAlgorithm* algorithm,
                               net::TcpConnection* conn, int worker_id,
                               int num_workers, uint64_t fingerprint,
                               int rejoin_round) {
  RFED_CHECK(algorithm != nullptr);
  RFED_CHECK(conn->valid());
  WorkerLoopResult out;
  out.last_round = rejoin_round;
  if (rejoin_round >= 0) {
    HelloRejoinMessage hello;
    hello.worker_id = worker_id;
    hello.num_workers = num_workers;
    hello.fingerprint = fingerprint;
    hello.last_round = rejoin_round;
    if (!net::SendFrame(conn, net::FrameType::kHelloRejoin, hello.Encode())) {
      return out;
    }
  } else {
    HelloMessage hello;
    hello.worker_id = worker_id;
    hello.num_workers = num_workers;
    hello.fingerprint = fingerprint;
    if (!net::SendFrame(conn, net::FrameType::kHello, hello.Encode())) {
      return out;
    }
  }
  net::FrameAssembler assembler;
  net::Frame frame;
  if (!net::RecvFrame(conn, &assembler, &frame)) return out;
  if (frame.type == net::FrameType::kShutdown) {
    // The run ended while this replica was (re)connecting.
    out.clean_shutdown = true;
    return out;
  }
  RFED_CHECK(frame.type == net::FrameType::kHelloAck)
      << "expected HELLO_ACK, got frame type "
      << static_cast<uint32_t>(frame.type);
  const HelloAckMessage ack = HelloAckMessage::Decode(frame.payload);
  // Adopt the server's run state: every RNG stream position and batcher
  // cursor as of the image. Each JOB then carries its own batcher base,
  // so the replica need not (and after a rejoin, cannot) stay in
  // lockstep with the server's Skip() mirror between jobs.
  algorithm->LoadRunState(ack.state);
  while (true) {
    if (!net::RecvFrame(conn, &assembler, &frame)) {
      // EOF without SHUTDOWN: the server died, or declared this worker
      // dead and severed the link. The caller decides whether to
      // reconnect.
      return out;
    }
    if (frame.type == net::FrameType::kShutdown) {
      out.clean_shutdown = true;
      return out;
    }
    if (frame.type == net::FrameType::kPing) {
      // Echo the sequence number; the server measures the round trip.
      if (!net::SendFrame(conn, net::FrameType::kPong, frame.payload)) {
        return out;
      }
      continue;
    }
    RFED_CHECK(frame.type == net::FrameType::kJob)
        << "expected JOB, got frame type "
        << static_cast<uint32_t>(frame.type);
    JobMessage job = JobMessage::Decode(frame.payload);
    RFED_CHECK_EQ(job.download.payload.size(), 1u);
    auto [state, loss] = algorithm->ExecuteJob(
        job.round, job.client, std::move(job.download.payload[0]),
        job.context, job.batcher_base);
    ResultMessage result;
    result.seq = job.seq;
    result.round = job.round;
    result.client = job.client;
    result.loss = loss;
    result.upload.kind = FlMessage::Kind::kModelUpload;
    result.upload.round = job.round;
    result.upload.sender = job.client;
    result.upload.payload.push_back(std::move(state));
    if (!net::SendFrame(conn, net::FrameType::kResult, result.Encode())) {
      return out;
    }
    out.last_round = job.round;
  }
}

}  // namespace serve
}  // namespace rfed
