// rfed_worker — hosts a shard of the client population for rfed_server
// (docs/DEPLOYMENT.md). Connects (with deterministic backoff, so it can
// be launched before the server), builds the identical scenario from the
// same flags, handshakes, restores the server's run state, and serves
// local-training jobs until the server shuts it down.
//
//   ./build/src/rfed_worker --connect 127.0.0.1:7710 --worker_id 0 \
//       --workers 2 --method Scaffold --clients 4 --rounds 5

#include <csignal>
#include <cstdio>
#include <string>

#include "net/socket.h"
#include "serve/scenario.h"
#include "serve/worker_loop.h"
#include "util/backoff.h"
#include "util/flags.h"

namespace {

using namespace rfed;

constexpr const char* kUsage = R"(usage: rfed_worker [--flag value | --flag=value ...]

Hosts the clients with id modulo --workers == --worker_id and runs their
local training on behalf of an rfed_server. Must be launched with the
same scenario flags as the server (the handshake verifies a fingerprint
over them).

Deployment:
  --connect host:port of the rfed_server (127.0.0.1:7710)
  --worker_id this worker's id in [0, --workers) (0)
  --workers total number of workers in the deployment (1)
  --connect_attempts connection retries with exponential backoff,
      50ms doubling to a 1s cap (120)
  --rejoin_attempts reconnect + HELLO_REJOIN handshakes attempted after
      the server connection is lost mid-run; the server must budget for
      them via --max_worker_restarts (0)
  --help print this message and exit

)";

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    std::fputs(serve::ScenarioUsage(), stdout);
    return 0;
  }

  const HostPort connect = flags.GetHostPort("connect", "127.0.0.1:7710");
  const int num_workers = flags.GetIntInRange("workers", 1, 1, 1024);
  const int worker_id =
      flags.GetIntInRange("worker_id", 0, 0, num_workers - 1);
  const int connect_attempts =
      flags.GetIntInRange("connect_attempts", 120, 1, 100000);
  const int rejoin_attempts =
      flags.GetIntInRange("rejoin_attempts", 0, 0, 100000);

  serve::Scenario scenario = serve::BuildScenario(flags);
  for (const std::string& key : flags.UnreadKeys()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", key.c_str());
    return 1;
  }

  BackoffPolicy backoff;
  backoff.initial_ms = 50.0;
  backoff.multiplier = 2.0;
  backoff.max_ms = 1000.0;
  net::TcpConnection conn = net::TcpConnection::ConnectWithRetryOrDie(
      connect.host, connect.port, connect_attempts, backoff);
  std::printf("rfed_worker %d/%d connected to %s:%d (%s, %d clients)\n",
              worker_id, num_workers, connect.host.c_str(), connect.port,
              scenario.method.c_str(),
              static_cast<int>(scenario.views.size()));
  std::fflush(stdout);

  serve::WorkerLoopResult result = serve::RunWorkerLoop(
      scenario.algorithm.get(), &conn, worker_id, num_workers,
      scenario.fingerprint);
  // A lost connection mid-run may mean the server died — or that it
  // declared this worker dead (a stall, a severed link) and moved on.
  // With a rejoin budget, reconnect and re-handshake with HELLO_REJOIN;
  // the server replies with a fresh state image and resumes routing
  // jobs here.
  for (int attempt = 1;
       !result.clean_shutdown && attempt <= rejoin_attempts; ++attempt) {
    conn.Close();
    std::printf("rfed_worker %d: connection lost, rejoin attempt %d/%d\n",
                worker_id, attempt, rejoin_attempts);
    std::fflush(stdout);
    conn = net::TcpConnection::ConnectWithRetry(connect.host, connect.port,
                                                connect_attempts, backoff);
    if (!conn.valid()) break;
    result = serve::RunWorkerLoop(scenario.algorithm.get(), &conn, worker_id,
                                  num_workers, scenario.fingerprint,
                                  /*rejoin_round=*/result.last_round);
  }
  std::printf("rfed_worker %d: %s\n", worker_id,
              result.clean_shutdown ? "shutdown complete"
                                    : "server connection closed");
  return result.clean_shutdown ? 0 : 2;
}
