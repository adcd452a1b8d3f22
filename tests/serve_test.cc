// Differential tests of the multi-process deployment (docs/DEPLOYMENT.md):
// rfed_server + rfed_worker processes over localhost TCP must reproduce
// the in-process simulator byte for byte. The sim-oracle contract: the
// final model tensors are byte-identical and every per-round CSV column
// matches exactly, except the process-local compute-effort columns
// (round_seconds, peak_scratch_bytes, kernel.*, autograd.*, serve.*) whose
// values depend on which process happened to run the flops — the server
// delegates local training to workers, so its tape/arena accounting
// legitimately differs from the oracle's — and the serve.* fault-handling
// counters exist only where a RemoteExecutor does.
//
// The oracle replays each scenario with a plain FederatedTrainer in a
// fork()ed child of this harness (a fresh process keeps the process-global
// metrics registry clean, so the oracle CSV carries exactly the columns a
// standalone run would).

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <chrono>

#include "fl/checkpoint.h"
#include "fl/trainer.h"
#include "net/fault_proxy.h"
#include "net/frame.h"
#include "net/socket.h"
#include "serve/protocol.h"
#include "serve/remote_executor.h"
#include "serve/scenario.h"
#include "serve/worker_loop.h"
#include "util/backoff.h"
#include "util/flags.h"

#ifndef RFED_SERVER_BIN
#define RFED_SERVER_BIN "rfed_server"
#endif
#ifndef RFED_WORKER_BIN
#define RFED_WORKER_BIN "rfed_worker"
#endif

namespace rfed {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "serve_test_" + name;
}

/// The tiny scenario every differential case runs: small enough that a
/// full server+workers+oracle matrix stays in single-digit seconds, big
/// enough that every client trains and the model moves each round.
std::vector<std::string> TinyScenarioFlags(const std::string& method,
                                           int rounds) {
  return {"--dataset",        "mnist",  "--model",         "mlp",
          "--method",         method,   "--clients",       "4",
          "--rounds",         std::to_string(rounds),
          "--train_examples", "96",     "--test_examples", "48",
          "--batch",          "8",      "--local_steps",   "2",
          "--sample_ratio",   "1.0",    "--eval_every",    "1",
          "--seed",           "3"};
}

serve::Scenario BuildFromArgs(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"serve_test"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  return serve::BuildScenario(flags);
}

// ---- subprocess plumbing ----

pid_t Spawn(const std::string& binary, const std::vector<std::string>& args,
            const std::string& log_path) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  int fd = open(log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd >= 0) {
    dup2(fd, 1);
    dup2(fd, 2);
    close(fd);
  }
  std::vector<std::string> full = {binary};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  execv(binary.c_str(), argv.data());
  _exit(127);
}

/// Waits for `pid` with a deadline; SIGKILLs on timeout. Returns the
/// exit code, 128+signal for a signalled exit, or -1 on timeout.
int WaitForExit(pid_t pid, int timeout_ms = 60000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return -1;
    }
    usleep(10 * 1000);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return -1;
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Polls `port_file` (written by rfed_server under --listen port 0)
/// until it holds the bound port.
int AwaitPortFile(const std::string& port_file, int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    const std::string text = ReadFileText(port_file);
    if (!text.empty() && text.find('\n') != std::string::npos) {
      return std::stoi(text);
    }
    usleep(20 * 1000);
  }
  return -1;
}

bool AwaitLogContains(const std::string& log_path, const std::string& needle,
                      int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    if (ReadFileText(log_path).find(needle) != std::string::npos) return true;
    usleep(10 * 1000);
  }
  return false;
}

// ---- the sim oracle ----

/// Replays the scenario with the plain in-process trainer in a forked
/// child (fresh metrics registry), mirroring rfed_server's trainer
/// options, and writes the oracle CSV + final model.
void RunOracle(const std::vector<std::string>& args,
               const std::string& csv_path, const std::string& model_path) {
  pid_t pid = fork();
  if (pid == 0) {
    serve::Scenario scenario = BuildFromArgs(args);
    FederatedTrainer trainer(scenario.algorithm.get(), scenario.test.get(),
                             scenario.trainer);
    RunHistory history = trainer.Run(scenario.rounds);
    SaveHistoryCsv(history, csv_path);
    SaveTensorToFile(scenario.algorithm->global_state(), model_path);
    _exit(0);
  }
  ASSERT_EQ(WaitForExit(pid), 0) << "oracle run failed";
}

// ---- masked CSV comparison (the sim-oracle contract) ----

bool MaskedColumn(const std::string& name) {
  return name == "round_seconds" || name == "peak_scratch_bytes" ||
         name.rfind("kernel.", 0) == 0 || name.rfind("autograd.", 0) == 0 ||
         name.rfind("serve.", 0) == 0;
}

std::vector<std::vector<std::string>> ParseCsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream ls(line);
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    if (!line.empty() && line.back() == ',') cells.push_back("");
    rows.push_back(std::move(cells));
  }
  return rows;
}

/// Asserts the two runs agree on every trajectory-bearing cell: the
/// non-masked column names must match in order, and each of their cells
/// must be byte-identical. Masked columns are process-local effort
/// accounting and may differ in value or (for kernel.*) presence.
void ExpectCsvEquivalent(const std::string& got_path,
                         const std::string& want_path) {
  const auto got = ParseCsv(got_path);
  const auto want = ParseCsv(want_path);
  ASSERT_GE(got.size(), 2u) << got_path << " is empty";
  ASSERT_EQ(got.size(), want.size()) << "row count mismatch";
  std::vector<size_t> got_cols, want_cols;
  for (size_t c = 0; c < got[0].size(); ++c) {
    if (!MaskedColumn(got[0][c])) got_cols.push_back(c);
  }
  for (size_t c = 0; c < want[0].size(); ++c) {
    if (!MaskedColumn(want[0][c])) want_cols.push_back(c);
  }
  ASSERT_EQ(got_cols.size(), want_cols.size())
      << "column sets differ: " << got_path << " vs " << want_path;
  for (size_t k = 0; k < got_cols.size(); ++k) {
    ASSERT_EQ(got[0][got_cols[k]], want[0][want_cols[k]])
        << "column name mismatch at index " << k;
  }
  for (size_t r = 1; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), got[0].size()) << "ragged row " << r;
    ASSERT_EQ(want[r].size(), want[0].size()) << "ragged row " << r;
    for (size_t k = 0; k < got_cols.size(); ++k) {
      EXPECT_EQ(got[r][got_cols[k]], want[r][want_cols[k]])
          << "row " << r << " column " << got[0][got_cols[k]];
    }
  }
}

void ExpectFilesIdentical(const std::string& got, const std::string& want) {
  const std::string a = ReadFileText(got);
  const std::string b = ReadFileText(want);
  ASSERT_FALSE(a.empty()) << got << " is empty";
  EXPECT_TRUE(a == b) << got << " differs from " << want << " ("
                      << a.size() << " vs " << b.size() << " bytes)";
}

// ---- the deployment harness ----

struct DeploymentResult {
  std::string csv;
  std::string model;
};

/// Launches rfed_server (+--listen port 0) and `num_workers` rfed_worker
/// processes over localhost, waits for a clean exit everywhere, and
/// returns the run's CSV + final-model paths.
DeploymentResult RunDeployment(const std::string& tag,
                               const std::vector<std::string>& scenario,
                               int num_workers,
                               std::vector<std::string> extra_server_args =
                                   {}) {
  DeploymentResult out;
  out.csv = TempPath(tag + "_server.csv");
  out.model = TempPath(tag + "_server.model");
  const std::string port_file = TempPath(tag + ".port");
  std::remove(port_file.c_str());
  std::vector<std::string> server_args = scenario;
  server_args.insert(server_args.end(),
                     {"--listen", "127.0.0.1:0", "--port_file", port_file,
                      "--workers", std::to_string(num_workers), "--csv_out",
                      out.csv, "--model_out", out.model});
  server_args.insert(server_args.end(), extra_server_args.begin(),
                     extra_server_args.end());
  const pid_t server =
      Spawn(RFED_SERVER_BIN, server_args, TempPath(tag + "_server.log"));
  const int port = AwaitPortFile(port_file);
  EXPECT_GT(port, 0) << "server never published its port";
  std::vector<pid_t> workers;
  for (int w = 0; w < num_workers; ++w) {
    std::vector<std::string> worker_args = scenario;
    worker_args.insert(worker_args.end(),
                       {"--connect", "127.0.0.1:" + std::to_string(port),
                        "--worker_id", std::to_string(w), "--workers",
                        std::to_string(num_workers)});
    workers.push_back(Spawn(RFED_WORKER_BIN, worker_args,
                            TempPath(tag + "_worker" + std::to_string(w) +
                                     ".log")));
  }
  EXPECT_EQ(WaitForExit(server), 0) << "server exited uncleanly; log:\n"
                                    << ReadFileText(TempPath(tag +
                                                             "_server.log"));
  for (int w = 0; w < num_workers; ++w) {
    EXPECT_EQ(WaitForExit(workers[static_cast<size_t>(w)]), 0)
        << "worker " << w << " exited uncleanly; log:\n"
        << ReadFileText(TempPath(tag + "_worker" + std::to_string(w) +
                                 ".log"));
  }
  return out;
}

// The acceptance matrix: stateless (FedAvg), stateful with control
// variates (Scaffold), and the paper's flagship (rFedAvg+), each against
// two workers. rfed_server always pipelines; SCAFFOLD's row covers the
// lockstep fallback the algorithm picks for it.
TEST(ServeDifferential, MatrixMatchesOracle) {
  const struct {
    const char* method;
    const char* tag;
  } kMethods[] = {
      {"FedAvg", "fedavg"}, {"Scaffold", "scaffold"}, {"rFedAvg+", "rfedavgp"}};
  for (const auto& m : kMethods) {
    const std::vector<std::string> scenario = TinyScenarioFlags(m.method, 3);
    const std::string oracle_csv = TempPath(std::string(m.tag) + "_oracle.csv");
    const std::string oracle_model =
        TempPath(std::string(m.tag) + "_oracle.model");
    RunOracle(scenario, oracle_csv, oracle_model);
    SCOPED_TRACE(m.method);
    const DeploymentResult run =
        RunDeployment(m.tag, scenario, /*num_workers=*/2);
    ExpectCsvEquivalent(run.csv, oracle_csv);
    ExpectFilesIdentical(run.model, oracle_model);
  }
}

// SIGTERM mid-run flushes an off-cadence checkpoint; a fresh deployment
// resuming from it reproduces the uninterrupted oracle byte for byte.
TEST(ServeDifferential, SigtermCheckpointThenResumeMatchesOracle) {
  const int kRounds = 6;
  const std::vector<std::string> scenario =
      TinyScenarioFlags("rFedAvg+", kRounds);
  const std::string oracle_csv = TempPath("sigterm_oracle.csv");
  const std::string oracle_model = TempPath("sigterm_oracle.model");
  RunOracle(scenario, oracle_csv, oracle_model);

  const std::string ck = TempPath("sigterm.ck");
  std::remove(ck.c_str());

  // Phase 1: deploy, let it pass round 1, SIGTERM the server. It must
  // finish the round in flight, write the checkpoint, release the
  // workers, and exit 0.
  {
    const std::string port_file = TempPath("sigterm1.port");
    const std::string server_log = TempPath("sigterm1_server.log");
    std::remove(port_file.c_str());
    std::vector<std::string> server_args = scenario;
    server_args.insert(server_args.end(),
                       {"--listen", "127.0.0.1:0", "--port_file", port_file,
                        "--workers", "2", "--checkpoint_path", ck});
    const pid_t server = Spawn(RFED_SERVER_BIN, server_args, server_log);
    const int port = AwaitPortFile(port_file);
    ASSERT_GT(port, 0);
    std::vector<pid_t> workers;
    for (int w = 0; w < 2; ++w) {
      std::vector<std::string> worker_args = scenario;
      worker_args.insert(worker_args.end(),
                         {"--connect", "127.0.0.1:" + std::to_string(port),
                          "--worker_id", std::to_string(w), "--workers",
                          "2"});
      workers.push_back(Spawn(RFED_WORKER_BIN, worker_args,
                              TempPath("sigterm1_worker" +
                                       std::to_string(w) + ".log")));
    }
    ASSERT_TRUE(AwaitLogContains(server_log, " round 1 "))
        << "server never reached round 1; log:\n" << ReadFileText(server_log);
    kill(server, SIGTERM);
    EXPECT_EQ(WaitForExit(server), 0)
        << "server log:\n" << ReadFileText(server_log);
    for (pid_t w : workers) EXPECT_EQ(WaitForExit(w), 0);
    ASSERT_FALSE(ReadFileText(ck).empty())
        << "no checkpoint written on SIGTERM";
    const RunCheckpoint saved = RunCheckpoint::Load(ck);
    EXPECT_GT(saved.next_round, 0);
    EXPECT_LT(saved.next_round, kRounds)
        << "server finished before the signal landed — nothing resumed";
  }

  // Phase 2: a brand-new deployment resumes from the checkpoint; its
  // full history (checkpointed prefix + resumed rounds) and final model
  // must match the uninterrupted oracle.
  const DeploymentResult resumed =
      RunDeployment("sigterm2", scenario, /*num_workers=*/2,
                    {"--resume_from", ck});
  ExpectCsvEquivalent(resumed.csv, oracle_csv);
  ExpectFilesIdentical(resumed.model, oracle_model);
}

// ---- fault tolerance (the chaos differential) ----
//
// Declared before the in-process loopback test for the same ordering
// reason noted there: RunOracle's fork must happen while the
// process-global metrics registry is still clean, or the oracle CSV
// inherits columns (e.g. SCAFFOLD's comm.*.control) that the fresh
// rfed_server process never registers.

net::TcpConnection RetryConnect(int port) {
  BackoffPolicy policy;
  policy.initial_ms = 1.0;
  policy.max_ms = 10.0;
  return net::TcpConnection::ConnectWithRetry("127.0.0.1", port, 200, policy);
}

// The chaos differential: three workers behind a seeded FaultProxy whose
// plans sever two of the connections mid-run (after their 2nd and 3rd
// worker->server frames, i.e. during the early rounds). The killed
// workers' processes see EOF and rejoin through the proxy; the server
// reassigns whatever jobs the dead connections still owed. The final
// model and the masked CSV must STILL be byte-identical to the fault-free
// in-process oracle — worker death is invisible to the trajectory.
//
// Workers are started one at a time, so worker w owns connection w and
// the plans are deterministic. With 4 clients on 3 workers, workers 1
// and 2 host only clients 1 and 2, so in round 0 their links carry
// HELLO, one training RESULT, then (rFedAvg+) one MAP RESULT. The
// chaos_rfp_map row kills worker 1 once its training RESULT is through,
// with its MAP JOB still to come, and kills worker 2 on the MAP RESULT
// frame itself, leaving any other MAP job it held to be reassigned.
TEST(ServeChaos, WorkerKillsMatrixMatchesOracle) {
  const struct {
    const char* method;
    const char* tag;
    int64_t kill_after_frames[3];  ///< per connection; -1 = no kill
  } kMethods[] = {{"FedAvg", "chaos_fedavg", {2, 3, -1}},
                  {"rFedAvg+", "chaos_rfp", {2, 3, -1}},
                  {"rFedAvg+", "chaos_rfp_map", {-1, 2, 3}}};
  for (const auto& m : kMethods) {
    const std::vector<std::string> scenario = TinyScenarioFlags(m.method, 3);
    const std::string oracle_csv = TempPath(std::string(m.tag) + "_oracle.csv");
    const std::string oracle_model =
        TempPath(std::string(m.tag) + "_oracle.model");
    RunOracle(scenario, oracle_csv, oracle_model);
    SCOPED_TRACE(m.tag);
    const std::string tag = m.tag;
    const std::string csv = TempPath(tag + "_server.csv");
    const std::string model = TempPath(tag + "_server.model");
    const std::string port_file = TempPath(tag + ".port");
    const std::string server_log = TempPath(tag + "_server.log");
    std::remove(port_file.c_str());
    std::vector<std::string> server_args = scenario;
    server_args.insert(
        server_args.end(),
        {"--listen", "127.0.0.1:0", "--port_file", port_file, "--workers",
         "3", "--csv_out", csv, "--model_out", model,
         "--worker_timeout_ms", "10000", "--max_worker_restarts", "8"});
    const pid_t server = Spawn(RFED_SERVER_BIN, server_args, server_log);
    const int port = AwaitPortFile(port_file);
    ASSERT_GT(port, 0) << "server never published its port";

    net::FaultProxy proxy("127.0.0.1", port);
    // Kill plans: worker w dies after forwarding kill_after_frames[w]
    // frames (HELLO included). Rejoin connections get fresh indices
    // with no plan and survive.
    for (int c = 0; c < 3; ++c) {
      if (m.kill_after_frames[c] < 0) continue;
      net::FaultPlan kill;
      kill.kill_after_frames = m.kill_after_frames[c];
      proxy.SetPlan(c, kill);
    }

    std::vector<pid_t> workers;
    for (int w = 0; w < 3; ++w) {
      if (w > 0) {
        // Worker w-1 has connected: the next accept index is w's.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (proxy.accepted_connections() < w &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ASSERT_GE(proxy.accepted_connections(), w)
            << "worker " << w - 1 << " never connected";
      }
      std::vector<std::string> worker_args = scenario;
      worker_args.insert(
          worker_args.end(),
          {"--connect", "127.0.0.1:" + std::to_string(proxy.listen_port()),
           "--worker_id", std::to_string(w), "--workers", "3",
           "--rejoin_attempts", "10"});
      workers.push_back(Spawn(RFED_WORKER_BIN, worker_args,
                              TempPath(tag + "_worker" + std::to_string(w) +
                                       ".log")));
    }
    EXPECT_EQ(WaitForExit(server), 0)
        << "server exited uncleanly; log:\n" << ReadFileText(server_log);
    for (int w = 0; w < 3; ++w) {
      EXPECT_EQ(WaitForExit(workers[static_cast<size_t>(w)]), 0)
          << "worker " << w << " exited uncleanly; log:\n"
          << ReadFileText(TempPath(tag + "_worker" + std::to_string(w) +
                                   ".log"));
    }
    proxy.Stop();
    EXPECT_EQ(proxy.killed_connections(), 2) << "chaos plan did not fire";
    const std::string log = ReadFileText(server_log);
    EXPECT_NE(log.find("lost"), std::string::npos)
        << "server never observed a worker death; log:\n" << log;
    EXPECT_NE(log.find("rejoined"), std::string::npos)
        << "no worker rejoined; log:\n" << log;
    ExpectCsvEquivalent(csv, oracle_csv);
    ExpectFilesIdentical(model, oracle_model);
  }
}

// In-process loopback: RemoteExecutor on the server side, RunWorkerLoop
// on a std::thread, real localhost sockets in between — the whole serve
// path under this binary's sanitizers, no fork/exec. Ordering note: the
// oracle trains first so the process-global metrics registry holds the
// identical column set when each run's CSV is written.
TEST(ServeLoopback, InProcessWorkerThreadMatchesOracle) {
  const std::vector<std::string> flags = TinyScenarioFlags("Scaffold", 3);
  TrainerOptions options;
  options.eval_every = 1;
  options.eval_max_examples = 400;

  serve::Scenario oracle = BuildFromArgs(flags);
  FederatedTrainer oracle_trainer(oracle.algorithm.get(), oracle.test.get(),
                                  options);
  RunHistory oracle_history = oracle_trainer.Run(oracle.rounds);

  serve::Scenario server_side = BuildFromArgs(flags);
  serve::Scenario worker_side = BuildFromArgs(flags);
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::thread worker([&] {
    BackoffPolicy policy;
    policy.initial_ms = 1.0;
    policy.max_ms = 10.0;
    net::TcpConnection conn =
        net::TcpConnection::ConnectWithRetry("127.0.0.1", port, 100, policy);
    if (!conn.valid()) {
      ADD_FAILURE() << "worker thread could not connect";
      return;
    }
    EXPECT_TRUE(serve::RunWorkerLoop(worker_side.algorithm.get(), &conn,
                                     /*worker_id=*/0, /*num_workers=*/1,
                                     worker_side.fingerprint)
                    .clean_shutdown);
  });
  serve::RemoteExecutor executor(/*pipelined=*/true);
  executor.AcceptWorkers(&listener, /*num_workers=*/1,
                         server_side.fingerprint, state_blob);
  server_side.algorithm->set_train_executor(&executor);
  FederatedTrainer serve_trainer(server_side.algorithm.get(),
                                 server_side.test.get(), options);
  RunHistory serve_history = serve_trainer.Run(server_side.rounds);
  executor.Shutdown();
  worker.join();

  EXPECT_GT(executor.stats().jobs_sent, 0);
  EXPECT_EQ(executor.stats().jobs_sent, executor.stats().results_received);

  const std::string oracle_csv = TempPath("loopback_oracle.csv");
  const std::string serve_csv = TempPath("loopback_serve.csv");
  SaveHistoryCsv(oracle_history, oracle_csv);
  SaveHistoryCsv(serve_history, serve_csv);
  ExpectCsvEquivalent(serve_csv, oracle_csv);

  const std::string oracle_model = TempPath("loopback_oracle.model");
  const std::string serve_model = TempPath("loopback_serve.model");
  SaveTensorToFile(oracle.algorithm->global_state(), oracle_model);
  SaveTensorToFile(server_side.algorithm->global_state(), serve_model);
  ExpectFilesIdentical(serve_model, oracle_model);
}

// rFedAvg+'s second synchronization runs on the workers that hold the
// data: a server whose training set is labels-only — GetBatch aborts —
// still produces the sim oracle's trajectory byte for byte, over two
// in-process workers.
TEST(ServeLoopback, LabelsOnlyServerMatchesOracle) {
  const std::vector<std::string> flags = TinyScenarioFlags("rFedAvg+", 3);
  TrainerOptions options;
  options.eval_every = 1;
  options.eval_max_examples = 400;

  serve::Scenario oracle = BuildFromArgs(flags);
  FederatedTrainer oracle_trainer(oracle.algorithm.get(), oracle.test.get(),
                                  options);
  RunHistory oracle_history = oracle_trainer.Run(oracle.rounds);

  serve::Scenario server_side = BuildFromArgs(flags);
  // The algorithm reads the training set through this object.
  *server_side.train = server_side.train->LabelsOnly();
  constexpr int kWorkers = 2;
  std::vector<serve::Scenario> worker_sides;
  for (int w = 0; w < kWorkers; ++w) {
    worker_sides.push_back(BuildFromArgs(flags));
  }
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      net::TcpConnection conn = RetryConnect(port);
      if (!conn.valid()) {
        ADD_FAILURE() << "worker thread " << w << " could not connect";
        return;
      }
      EXPECT_TRUE(serve::RunWorkerLoop(
                      worker_sides[static_cast<size_t>(w)].algorithm.get(),
                      &conn, w, kWorkers,
                      worker_sides[static_cast<size_t>(w)].fingerprint)
                      .clean_shutdown);
    });
  }
  serve::RemoteExecutor executor(/*pipelined=*/true);
  executor.AcceptWorkers(&listener, kWorkers, server_side.fingerprint,
                         state_blob);
  server_side.algorithm->set_train_executor(&executor);
  FederatedTrainer serve_trainer(server_side.algorithm.get(),
                                 server_side.test.get(), options);
  RunHistory serve_history = serve_trainer.Run(server_side.rounds);
  executor.Shutdown();
  for (std::thread& t : workers) t.join();

  // A training job and a MAP job per client per round.
  EXPECT_EQ(executor.stats().jobs_sent, 2 * 4 * server_side.rounds);
  EXPECT_EQ(executor.stats().results_received, executor.stats().jobs_sent);

  const std::string oracle_csv = TempPath("labels_only_oracle.csv");
  const std::string serve_csv = TempPath("labels_only_serve.csv");
  SaveHistoryCsv(oracle_history, oracle_csv);
  SaveHistoryCsv(serve_history, serve_csv);
  ExpectCsvEquivalent(serve_csv, oracle_csv);

  const std::string oracle_model = TempPath("labels_only_oracle.model");
  const std::string serve_model = TempPath("labels_only_serve.model");
  SaveTensorToFile(oracle.algorithm->global_state(), oracle_model);
  SaveTensorToFile(server_side.algorithm->global_state(), serve_model);
  ExpectFilesIdentical(serve_model, oracle_model);
}

// ---- duplicate RESULTs ----

/// A hand-driven worker 0 of 1: handshakes with `fingerprint`, then
/// answers every JOB by echoing its state in one RESULT per entry of
/// `losses` (the copies differ only in the loss they report), until
/// SHUTDOWN or EOF.
void RunScriptedWorker(int port, uint64_t fingerprint,
                       const std::vector<double>& losses) {
  net::TcpConnection conn = RetryConnect(port);
  if (!conn.valid()) return;
  serve::HelloMessage hello;
  hello.worker_id = 0;
  hello.num_workers = 1;
  hello.fingerprint = fingerprint;
  net::SendFrame(&conn, net::FrameType::kHello, hello.Encode());
  net::FrameAssembler assembler;
  net::Frame frame;
  net::RecvFrame(&conn, &assembler, &frame);  // HELLO_ACK
  while (net::RecvFrame(&conn, &assembler, &frame) &&
         frame.type == net::FrameType::kJob) {
    const serve::JobMessage job = serve::JobMessage::Decode(frame.payload);
    for (double loss : losses) {
      serve::ResultMessage result;
      result.seq = job.seq;
      result.round = job.round;
      result.client = job.client;
      result.loss = loss;
      result.upload.kind = FlMessage::Kind::kModelUpload;
      result.upload.round = job.round;
      result.upload.sender = job.client;
      result.upload.payload.push_back(job.download.payload[0]);
      net::SendFrame(&conn, net::FrameType::kResult, result.Encode());
    }
  }
}

// Each job is answered twice with identical bytes. The late copy of
// round 0's first job for client 3 arrives while the executor waits on
// the second job for the same (round, client) — the shape of a training
// job's duplicate racing that round's MAP job. It is checked and
// dropped; the second job completes only with its own RESULT.
TEST(ServeDuplicates, IdenticalDuplicateIsDroppedAndCompletesNoOtherJob) {
  constexpr uint64_t kFingerprint = 42;
  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::thread worker(
      [port] { RunScriptedWorker(port, kFingerprint, {0.5, 0.5}); });
  serve::RemoteExecutor executor(/*pipelined=*/false);
  executor.AcceptWorkers(&listener, 1, kFingerprint, {});
  executor.Submit(0, 3, Tensor(Shape{4}, 1.0f), {}, {});
  const auto first = executor.Collect(0, 3);
  executor.Submit(0, 3, Tensor(Shape{4}, 2.0f), {}, {});
  const auto second = executor.Collect(0, 3);
  executor.Shutdown();
  worker.join();
  EXPECT_EQ(first.first.at(0), 1.0f);
  EXPECT_EQ(second.first.at(0), 2.0f);
  EXPECT_EQ(first.second, 0.5);
  EXPECT_EQ(executor.stats().jobs_sent, 2);
  EXPECT_EQ(executor.stats().results_received, 2);
}

// A duplicate whose bytes differ from the accepted copy means a replica
// computed something else for the same job: abort, naming it.
TEST(ServeDuplicatesDeathTest, MismatchingDuplicateAborts) {
  EXPECT_DEATH(
      {
        constexpr uint64_t kFingerprint = 42;
        net::TcpListener listener("127.0.0.1", 0);
        const int port = listener.bound_port();
        std::thread worker(
            [port] { RunScriptedWorker(port, kFingerprint, {0.5, 0.25}); });
        serve::RemoteExecutor executor(/*pipelined=*/false);
        executor.AcceptWorkers(&listener, 1, kFingerprint, {});
        executor.Submit(0, 3, Tensor(Shape{4}, 1.0f), {}, {});
        executor.Collect(0, 3);
        executor.Submit(1, 3, Tensor(Shape{4}, 2.0f), {}, {});
        executor.Collect(1, 3);
        worker.join();
      },
      "duplicate RESULT for round 0 client 3 .* from worker 0 differs");
}

// A worker whose scenario flags differ (here: a different seed) must be
// rejected at the handshake — the fingerprints disagree, and letting it
// in would corrupt the run silently.
TEST(ServeHandshakeDeathTest, FingerprintMismatchAborts) {
  serve::Scenario ours = BuildFromArgs(TinyScenarioFlags("FedAvg", 2));
  serve::Scenario theirs = BuildFromArgs(
      [] {
        auto f = TinyScenarioFlags("FedAvg", 2);
        f.back() = "4";  // --seed 4
        return f;
      }());
  ASSERT_NE(ours.fingerprint, theirs.fingerprint);
  EXPECT_DEATH(
      {
        std::vector<uint8_t> blob;
        ours.algorithm->SaveRunState(&blob);
        net::TcpListener listener("127.0.0.1", 0);
        const int port = listener.bound_port();
        std::thread worker([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::RunWorkerLoop(theirs.algorithm.get(), &conn, 0, 1,
                               theirs.fingerprint);
        });
        serve::RemoteExecutor executor(false);
        executor.AcceptWorkers(&listener, 1, ours.fingerprint, blob);
        worker.join();
      },
      "different scenario");
}

// ---- scenario vocabulary and fingerprint ----

// One valid non-default value per flag BuildScenario reads, plus any
// companion flags that value needs; exempt entries must leave the
// fingerprint alone, every other entry must change it.
struct FlagVariant {
  std::string key;
  std::string value;
  std::vector<std::string> companions;
  bool exempt = false;
};

std::vector<FlagVariant> FlagVariants() {
  const std::string ck = TempPath("variant.ck");
  return {
      {"dataset", "cifar"},          {"method", "FedProx"},
      {"clients", "3"},              {"similarity", "0.5"},
      {"rounds", "3"},               {"train_examples", "120"},
      {"test_examples", "40"},       {"seed", "4"},
      {"model", "cnn"},              {"local_steps", "3"},
      {"batch", "6"},                {"sample_ratio", "0.5"},
      {"lr", "0.05"},                {"lambda", "0.01"},
      {"dp_sigma", "0.5"},           {"compressor", "q8"},
      {"selection", "loss"},         {"eval_every", "2"},
      {"drop", "0.1"},               {"corrupt", "0.1"},
      {"duplicate", "0.1"},          {"delay", "0.1"},
      {"mean_delay_ms", "20"},       {"timeout_ms", "100"},
      {"retries", "1"},              {"sim_mode", "async"},
      {"compute_model", "lognormal"}, {"compute_ms", "1"},
      {"compute_sigma", "0.5"},      {"compute_drift", "0.1"},
      {"compute_spread", "0.5"},     {"down_bw", "100"},
      {"up_bw", "100"},              {"base_latency_ms", "5"},
      {"deadline_ms", "100"},        {"async_buffer", "3"},
      {"adversary", "nan"},          {"adversary_frac", "0.5"},
      {"adversary_scale", "10"},     {"adversary_sigma", "2"},
      {"aggregator", "median"},      {"trim_fraction", "0.1"},
      {"clip_multiplier", "2"},      {"validate", "false"},
      {"shard_fanout", "2"},
      {"stream_chunk", "2", {"--shard_fanout", "2"}},
      {"csv_out", TempPath("variant.csv"), {}, true},
      {"checkpoint_path", ck, {}, true},
      {"checkpoint_every", "2", {"--checkpoint_path", ck}, true},
      {"resume_from", ck, {}, true},
      {"num_threads", "2", {}, true},
      {"kernel_threads", "2", {}, true},
      {"autograd_static", "false", {}, true},
      {"grad_checkpoint", "true", {}, true},
      {"worker_timeout_ms", "1000", {}, true},
      {"max_worker_restarts", "2", {}, true},
  };
}

// The help text and the flags BuildScenario reads are one vocabulary:
// no flag is read undocumented, and no documented flag goes unread.
TEST(ScenarioVocabulary, UsageListsExactlyTheFlagsRead) {
  const char* argv[] = {"serve_test"};
  FlagParser flags(1, argv);
  serve::BuildScenario(flags);
  std::set<std::string> read;
  for (const auto& r : flags.reads()) read.insert(r.first);

  const std::string usage = serve::ScenarioUsage();
  const std::regex token("--([a-z][a-z0-9_]*)");
  std::set<std::string> documented;
  for (auto it = std::sregex_iterator(usage.begin(), usage.end(), token);
       it != std::sregex_iterator(); ++it) {
    documented.insert((*it)[1]);
  }
  EXPECT_EQ(read, documented);

  std::set<std::string> covered;
  for (const FlagVariant& v : FlagVariants()) covered.insert(v.key);
  EXPECT_EQ(read, covered) << "FlagVariants() needs one entry per flag";
}

// Every flag outside the exempt list is fingerprinted: a deployment whose
// processes disagree on it is refused at HELLO. Exempt flags never are.
TEST(ScenarioVocabulary, FingerprintCoversExactlyTheNonExemptFlags) {
  for (const FlagVariant& v : FlagVariants()) {
    std::vector<std::string> args = TinyScenarioFlags("FedAvg", 2);
    args.insert(args.end(), v.companions.begin(), v.companions.end());
    const uint64_t base = BuildFromArgs(args).fingerprint;
    args.push_back("--" + v.key);
    args.push_back(v.value);
    const uint64_t changed = BuildFromArgs(args).fingerprint;
    if (v.exempt) {
      EXPECT_EQ(changed, base) << "--" << v.key << " is fingerprint-exempt";
    } else {
      EXPECT_NE(changed, base) << "--" << v.key << " is not fingerprinted";
    }
  }
  // Leave the process-global kernel settings at their defaults.
  BuildFromArgs(TinyScenarioFlags("FedAvg", 2));
}

// Unknown enumerated values abort rather than fall back to a default:
// --dataset cifar10 must not run MNIST under the name "cifar10".
TEST(ScenarioDeathTest, UnknownEnumValuesAbort) {
  EXPECT_DEATH(BuildFromArgs({"--dataset", "cifar10"}),
               "unknown --dataset cifar10");
  EXPECT_DEATH(BuildFromArgs({"--model", "resnet"}), "unknown --model resnet");
  EXPECT_DEATH(BuildFromArgs({"--dataset", "sent140", "--model", "lstm"}),
               "unknown --model lstm");
  EXPECT_DEATH(BuildFromArgs({"--selection", "greedy"}),
               "unknown --selection greedy");
  EXPECT_DEATH(BuildFromArgs({"--checkpoint_every", "2"}),
               "--checkpoint_every needs --checkpoint_path");
}

// A worker that accepts jobs but never answers (black-holed link) must be
// declared dead by the recv deadline and its outstanding jobs stolen by
// the survivor — with no trace in the trajectory.
TEST(ServeFault, BlackHoledWorkerJobsReassigned) {
  const std::vector<std::string> flags = TinyScenarioFlags("FedAvg", 2);
  TrainerOptions options;
  options.eval_every = 1;
  options.eval_max_examples = 400;

  serve::Scenario oracle = BuildFromArgs(flags);
  FederatedTrainer oracle_trainer(oracle.algorithm.get(), oracle.test.get(),
                                  options);
  RunHistory oracle_history = oracle_trainer.Run(oracle.rounds);

  serve::Scenario server_side = BuildFromArgs(flags);
  serve::Scenario worker_side = BuildFromArgs(flags);
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::thread black_hole([&] {
    net::TcpConnection conn = RetryConnect(port);
    ASSERT_TRUE(conn.valid());
    serve::HelloMessage hello;
    hello.worker_id = 0;
    hello.num_workers = 2;
    hello.fingerprint = server_side.fingerprint;
    EXPECT_TRUE(net::SendFrame(&conn, net::FrameType::kHello, hello.Encode()));
    net::FrameAssembler assembler;
    net::Frame frame;
    EXPECT_TRUE(net::RecvFrame(&conn, &assembler, &frame));  // HELLO_ACK
    // Swallow every JOB without answering until the server, convinced by
    // the silence, severs the link.
    while (net::RecvFrame(&conn, &assembler, &frame)) {
    }
  });
  std::thread worker([&] {
    net::TcpConnection conn = RetryConnect(port);
    ASSERT_TRUE(conn.valid());
    EXPECT_TRUE(serve::RunWorkerLoop(worker_side.algorithm.get(), &conn,
                                     /*worker_id=*/1, /*num_workers=*/2,
                                     worker_side.fingerprint)
                    .clean_shutdown);
  });
  serve::ExecutorOptions eo;
  eo.worker_timeout_ms = 300;
  serve::RemoteExecutor executor(eo);
  executor.AcceptWorkers(&listener, /*num_workers=*/2,
                         server_side.fingerprint, state_blob);
  server_side.algorithm->set_train_executor(&executor);
  FederatedTrainer trainer(server_side.algorithm.get(),
                           server_side.test.get(), options);
  RunHistory serve_history = trainer.Run(server_side.rounds);
  executor.Shutdown();
  worker.join();
  black_hole.join();

  EXPECT_GT(executor.stats().jobs_reassigned, 0);

  const std::string oracle_csv = TempPath("blackhole_oracle.csv");
  const std::string serve_csv = TempPath("blackhole_serve.csv");
  SaveHistoryCsv(oracle_history, oracle_csv);
  SaveHistoryCsv(serve_history, serve_csv);
  ExpectCsvEquivalent(serve_csv, oracle_csv);
  const std::string oracle_model = TempPath("blackhole_oracle.model");
  const std::string serve_model = TempPath("blackhole_serve.model");
  SaveTensorToFile(oracle.algorithm->global_state(), oracle_model);
  SaveTensorToFile(server_side.algorithm->global_state(), serve_model);
  ExpectFilesIdentical(serve_model, oracle_model);
}

// In-process rejoin under the sanitizers: the single worker's connection
// is severed by a FaultProxy right after round 0's results; the worker
// re-handshakes with HELLO_REJOIN straight at the server, restores the
// fresh state image, and finishes the run — byte-identical to the
// oracle, with the restart counted.
TEST(ServeFault, KilledWorkerRejoinsAndRunMatchesOracle) {
  const std::vector<std::string> flags = TinyScenarioFlags("rFedAvg+", 3);
  TrainerOptions options;
  options.eval_every = 1;
  options.eval_max_examples = 400;

  serve::Scenario oracle = BuildFromArgs(flags);
  FederatedTrainer oracle_trainer(oracle.algorithm.get(), oracle.test.get(),
                                  options);
  RunHistory oracle_history = oracle_trainer.Run(oracle.rounds);

  serve::Scenario server_side = BuildFromArgs(flags);
  serve::Scenario worker_side = BuildFromArgs(flags);
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  net::FaultProxy proxy("127.0.0.1", listener.bound_port());
  net::FaultPlan plan;
  plan.kill_after_frames = 5;  // HELLO + round 0's four RESULTs
  proxy.SetPlan(0, plan);

  std::thread worker([&] {
    net::TcpConnection conn = RetryConnect(proxy.listen_port());
    ASSERT_TRUE(conn.valid());
    const serve::WorkerLoopResult first = serve::RunWorkerLoop(
        worker_side.algorithm.get(), &conn, /*worker_id=*/0,
        /*num_workers=*/1, worker_side.fingerprint);
    EXPECT_FALSE(first.clean_shutdown);
    EXPECT_EQ(first.last_round, 0);
    conn.Close();
    // worker_main's rejoin path, inlined: reconnect (here straight at
    // the server, skipping the proxy) and re-handshake with
    // HELLO_REJOIN carrying the last completed round.
    net::TcpConnection again = RetryConnect(listener.bound_port());
    ASSERT_TRUE(again.valid());
    EXPECT_TRUE(serve::RunWorkerLoop(worker_side.algorithm.get(), &again,
                                     /*worker_id=*/0, /*num_workers=*/1,
                                     worker_side.fingerprint,
                                     /*rejoin_round=*/first.last_round)
                    .clean_shutdown);
  });
  serve::ExecutorOptions eo;
  eo.max_worker_restarts = 1;
  serve::RemoteExecutor executor(eo);
  executor.AcceptWorkers(&listener, /*num_workers=*/1,
                         server_side.fingerprint, state_blob);
  FederatedAlgorithm* algorithm = server_side.algorithm.get();
  executor.set_state_provider([algorithm] {
    std::vector<uint8_t> blob;
    algorithm->SaveRunState(&blob);
    return blob;
  });
  server_side.algorithm->set_train_executor(&executor);
  FederatedTrainer trainer(server_side.algorithm.get(),
                           server_side.test.get(), options);
  RunHistory serve_history = trainer.Run(server_side.rounds);
  executor.Shutdown();
  worker.join();
  proxy.Stop();

  EXPECT_EQ(executor.stats().worker_restarts, 1);
  EXPECT_EQ(proxy.killed_connections(), 1);

  const std::string oracle_csv = TempPath("rejoin_oracle.csv");
  const std::string serve_csv = TempPath("rejoin_serve.csv");
  SaveHistoryCsv(oracle_history, oracle_csv);
  SaveHistoryCsv(serve_history, serve_csv);
  ExpectCsvEquivalent(serve_csv, oracle_csv);
  const std::string oracle_model = TempPath("rejoin_oracle.model");
  const std::string serve_model = TempPath("rejoin_serve.model");
  SaveTensorToFile(oracle.algorithm->global_state(), oracle_model);
  SaveTensorToFile(server_side.algorithm->global_state(), serve_model);
  ExpectFilesIdentical(serve_model, oracle_model);
}

// Regression for the rejoin race: the old connection of a rejoining
// worker still holds a few hundred KiB of PONGs ahead of its EOF when the
// rejoin is accepted — several reads' worth. The server must drain them
// to the EOF, see the death, and accept the rejoin instead of aborting
// with "connected twice".
TEST(ServeFault, RejoinDrainsTheOldConnectionToEof) {
  const std::vector<std::string> flags = TinyScenarioFlags("FedAvg", 1);
  serve::Scenario server_side = BuildFromArgs(flags);
  serve::Scenario worker_side = BuildFromArgs(flags);
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  // Room in the accepted socket (inherited from the listener) and in the
  // old worker's send buffer for the whole PONG backlog, so it is all
  // written before the server reads any of it.
  const int buffer_bytes = 1 << 20;
  ASSERT_EQ(0, ::setsockopt(listener.fd(), SOL_SOCKET, SO_RCVBUF,
                            &buffer_bytes, sizeof(buffer_bytes)));
  const int port = listener.bound_port();

  std::atomic<bool> flooded{false}, release{false};
  std::thread old_worker([&] {
    net::TcpConnection conn = net::TcpConnection::Connect("127.0.0.1", port);
    ASSERT_TRUE(conn.valid());
    ASSERT_EQ(0, ::setsockopt(conn.fd(), SOL_SOCKET, SO_SNDBUF,
                              &buffer_bytes, sizeof(buffer_bytes)));
    serve::HelloMessage hello;
    hello.worker_id = 0;
    hello.num_workers = 1;
    hello.fingerprint = server_side.fingerprint;
    net::SendFrame(&conn, net::FrameType::kHello, hello.Encode());
    net::FrameAssembler assembler;
    net::Frame frame;
    ASSERT_TRUE(net::RecvFrame(&conn, &assembler, &frame));  // HELLO_ACK
    std::vector<uint8_t> backlog;
    serve::PingMessage pong;
    while (backlog.size() < 300 * 1024) {
      pong.seq += 1;
      const std::vector<uint8_t> wire =
          net::EncodeFrame(net::FrameType::kPong, pong.Encode());
      backlog.insert(backlog.end(), wire.begin(), wire.end());
    }
    ASSERT_TRUE(conn.SendAll(backlog.data(), backlog.size()));
    // EOF behind the backlog; the read side stays open, so JOBs sent to
    // the dead slot are absorbed instead of failing the server's sender.
    ::shutdown(conn.fd(), SHUT_WR);
    flooded.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });

  serve::ExecutorOptions eo;
  eo.max_worker_restarts = 1;
  serve::RemoteExecutor executor(eo);
  executor.AcceptWorkers(&listener, /*num_workers=*/1,
                         server_side.fingerprint, state_blob);
  while (!flooded.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The rejoin is queued on the listener before the server's first
  // event-loop pass, which therefore sees both at once.
  net::TcpConnection rejoin = net::TcpConnection::Connect("127.0.0.1", port);
  ASSERT_TRUE(rejoin.valid());
  std::thread new_worker([&] {
    EXPECT_TRUE(serve::RunWorkerLoop(worker_side.algorithm.get(), &rejoin,
                                     /*worker_id=*/0, /*num_workers=*/1,
                                     worker_side.fingerprint,
                                     /*rejoin_round=*/0)
                    .clean_shutdown);
  });
  server_side.algorithm->set_train_executor(&executor);
  server_side.algorithm->RunRound(0);
  executor.Shutdown();
  new_worker.join();
  release.store(true);
  old_worker.join();
  EXPECT_EQ(executor.stats().worker_restarts, 1);
}

// Regression for the Shutdown/sender teardown race: a sender thread
// wedged mid-send on a peer that stopped reading must be interrupted
// (close-interrupts-send) so Shutdown returns instead of deadlocking in
// join().
TEST(ServeFault, ShutdownInterruptsWedgedSender) {
  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::atomic<bool> release{false};
  std::thread peer([&] {
    net::TcpConnection conn = RetryConnect(port);
    ASSERT_TRUE(conn.valid());
    serve::HelloMessage hello;
    hello.worker_id = 0;
    hello.num_workers = 1;
    hello.fingerprint = 7;
    EXPECT_TRUE(net::SendFrame(&conn, net::FrameType::kHello, hello.Encode()));
    net::FrameAssembler assembler;
    net::Frame frame;
    EXPECT_TRUE(net::RecvFrame(&conn, &assembler, &frame));  // HELLO_ACK
    // Stop reading: once both socket buffers fill, the server's sender
    // blocks inside SendAll.
    while (!release.load()) usleep(1000);
  });
  serve::ExecutorOptions eo;
  eo.worker_timeout_ms = 200;  // also the Shutdown grace
  serve::RemoteExecutor executor(eo);
  executor.AcceptWorkers(&listener, 1, /*fingerprint=*/7, {});
  const Tensor big = Tensor::Zeros({1 << 20});  // 4 MiB per JOB frame
  for (int client = 0; client < 3; ++client) {
    executor.Submit(/*round=*/0, client, big, {}, {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  executor.Shutdown();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 10.0) << "Shutdown took " << elapsed << "s";
  release.store(true);
  peer.join();
}

// Losing the only worker with the restart budget already spent cannot be
// ridden out — the run must abort with a clear error, not hang waiting
// for a rejoin that can never be accepted.
TEST(ServeFaultDeathTest, RestartBudgetExhaustedAborts) {
  serve::Scenario s = BuildFromArgs(TinyScenarioFlags("FedAvg", 2));
  EXPECT_DEATH(
      {
        std::vector<uint8_t> blob;
        s.algorithm->SaveRunState(&blob);
        net::TcpListener listener("127.0.0.1", 0);
        const int port = listener.bound_port();
        std::thread worker([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::HelloMessage hello;
          hello.worker_id = 0;
          hello.num_workers = 1;
          hello.fingerprint = s.fingerprint;
          net::SendFrame(&conn, net::FrameType::kHello, hello.Encode());
          net::FrameAssembler assembler;
          net::Frame frame;
          net::RecvFrame(&conn, &assembler, &frame);  // HELLO_ACK
          // Die before serving a single job.
        });
        serve::ExecutorOptions eo;
        eo.worker_timeout_ms = 100;
        eo.max_worker_restarts = 0;
        serve::RemoteExecutor executor(eo);
        executor.AcceptWorkers(&listener, 1, s.fingerprint, blob);
        worker.join();
        s.algorithm->set_train_executor(&executor);
        s.algorithm->RunRound(0);
      },
      "restart budget");
}

// A rejoining worker built from different scenario flags must be refused
// exactly like an initial handshake would refuse it.
TEST(ServeFaultDeathTest, RejoinFingerprintMismatchAborts) {
  serve::Scenario s = BuildFromArgs(TinyScenarioFlags("FedAvg", 2));
  EXPECT_DEATH(
      {
        std::vector<uint8_t> blob;
        s.algorithm->SaveRunState(&blob);
        net::TcpListener listener("127.0.0.1", 0);
        const int port = listener.bound_port();
        std::thread first([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::HelloMessage hello;
          hello.worker_id = 0;
          hello.num_workers = 1;
          hello.fingerprint = s.fingerprint;
          net::SendFrame(&conn, net::FrameType::kHello, hello.Encode());
          net::FrameAssembler assembler;
          net::Frame frame;
          net::RecvFrame(&conn, &assembler, &frame);  // HELLO_ACK, then die
        });
        serve::ExecutorOptions eo;
        eo.worker_timeout_ms = 100;
        eo.max_worker_restarts = 1;
        serve::RemoteExecutor executor(eo);
        executor.AcceptWorkers(&listener, 1, s.fingerprint, blob);
        first.join();
        std::thread impostor([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::HelloRejoinMessage rejoin;
          rejoin.worker_id = 0;
          rejoin.num_workers = 1;
          rejoin.fingerprint = s.fingerprint + 1;
          rejoin.last_round = 0;
          net::SendFrame(&conn, net::FrameType::kHelloRejoin, rejoin.Encode());
          net::FrameAssembler assembler;
          net::Frame frame;
          net::RecvFrame(&conn, &assembler, &frame);  // never answered
        });
        s.algorithm->set_train_executor(&executor);
        s.algorithm->RunRound(0);  // death observed, impostor's rejoin refused
        impostor.join();
      },
      "different scenario");
}

}  // namespace
}  // namespace rfed
