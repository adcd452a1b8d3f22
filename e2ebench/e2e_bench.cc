// e2e_bench — round time of the paper's workloads, end to end and by
// layer. One invocation runs one workload in this (fresh) process:
//
//   e2e_bench --workload cnn_fedavg_sim1 --seed 1 --seconds 40 --trace 0
//   e2e_bench --workload cnn_fedavg_sim1 --trace 1 --trace_out trace.json
//   e2e_bench --selftest
//
// A workload is a set of experiment_cli flags built with
// serve::BuildScenario, run as repeated episodes until --seconds have
// passed: build the scenario (and, for serve, accept the two loopback
// workers), one untimed warm-up round, then kTimedRounds closed-loop
// rounds, each timed at FederatedAlgorithm::RunRound and
// FederatedTrainer::EvaluateGlobal. Every episode of a run uses the same
// seed, so their digests (final global state, per-round train_loss) must
// match; the serve workload must also match an in-process sim of the
// same flags. With --trace 1 the first episode runs untraced (the
// obs.trace_overhead baseline) and the rest are traced: per-layer numbers
// are per-round medians over the spans obs::CollectTrace returns and the
// obs::MetricsRegistry counters. Prints one JSON object on its last line
// (see run.py, which builds this binary and turns that object into the
// benchmark's result line).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fl/trainer.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/remote_executor.h"
#include "serve/scenario.h"
#include "serve/worker_loop.h"
#include "span_math.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "util/flags.h"

namespace {

using namespace rfed;
using e2ebench::Median;
using e2ebench::Span;

constexpr int kTimedRounds = 12;   // closed-loop rounds per episode
constexpr int kWarmupRounds = 1;   // untimed, counted in setup_s
constexpr size_t kMinEpisodes = 3; // setup_s is a median over episodes
constexpr size_t kTailBeyond = 10; // round_ms.tail: ≥10 rounds above it
constexpr int kServeWorkers = 2;
constexpr int64_t kEvalMaxExamples = 400;  // as experiment_cli

struct Workload {
  const char* name;
  std::vector<std::string> flags;  // experiment_cli scenario flags
  bool serve;
  bool eval_every_round;  // else only after an episode's last round
  int busy_threads;       // threads the workload keeps busy at once
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"cnn_fedavg_sim1",
       {"--dataset", "cifar", "--method", "FedAvg", "--num_threads", "1"},
       false, true, 1},
      {"lstm_rfedavgplus_sim2",
       {"--dataset", "sent140", "--method", "rFedAvg+", "--clients", "8",
        "--num_threads", "2"},
       false, true, 2},
      {"cnn_rfedavgplus_serve2",
       {"--dataset", "cifar", "--method", "rFedAvg+"},
       true, false, 1 + kServeWorkers},
  };
  return kWorkloads;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- digests ----

uint64_t Fnv1a64(const void* data, size_t n, uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- bench-side spans and the executor decorator ----

/// Times every Submit/Collect of the wrapped executor (the serve layer's
/// public seam) and forwards pipelined() unchanged.
class TimedExecutor : public TrainExecutor {
 public:
  explicit TimedExecutor(TrainExecutor* inner) : inner_(inner) {}

  void Submit(int round, int client, const Tensor& init_state,
              const std::vector<uint8_t>& context,
              const std::vector<uint8_t>& batcher_base) override {
    obs::TraceSpan span("Submit");
    const double t0 = NowMs();
    inner_->Submit(round, client, init_state, context, batcher_base);
    submit_ms += NowMs() - t0;
    ++jobs;
  }
  std::pair<Tensor, double> Collect(int round, int client) override {
    obs::TraceSpan span("Collect");
    const double t0 = NowMs();
    auto out = inner_->Collect(round, client);
    collect_ms += NowMs() - t0;
    return out;
  }
  bool pipelined() const override { return inner_->pipelined(); }

  double submit_ms = 0.0;
  double collect_ms = 0.0;
  int64_t jobs = 0;

 private:
  TrainExecutor* inner_;
};

/// Worker-loop span names, one literal per worker so each worker lane can
/// be found (and labelled) in the collected trace.
constexpr const char* kWorkerSpan[kServeWorkers] = {"RunWorkerLoop#0",
                                                    "RunWorkerLoop#1"};

// ---- one episode ----

struct EpisodeResult {
  double setup_ms = 0.0;
  double build_ms = 0.0;
  double accept_ms = 0.0;
  std::vector<double> round_ms;  // timed rounds
  std::vector<double> eval_ms;   // timed evaluations
  double timed_wall_ms = 0.0;    // Σ timed rounds + their evaluations
  int64_t examples = 0;          // local-training examples of timed rounds
  int attempted = 0;
  int failed = 0;                // non-finite loss
  bool warmup_finite = true;
  uint64_t state_digest = 0;
  uint64_t loss_digest = 0;
  // Per timed round (serve): decorator timings and job counts.
  std::vector<double> submit_ms, collect_ms, jobs;
  // Per timed round (traced): registry counter deltas.
  std::vector<double> conv_flops, gemm_flops, reuse_hits, allocs_per_step;
  int64_t bytes_sent_timed = 0;  // transport bytes over the timed rounds
  int64_t bytes_received_timed = 0;
  serve::ServeStats stats_total;
  bool workers_clean = true;
};

std::vector<std::string> ScenarioArgs(const Workload& w, int seed) {
  std::vector<std::string> args = w.flags;
  const int rounds = kWarmupRounds + kTimedRounds;
  for (const std::string& s :
       {std::string("--seed"), std::to_string(seed), std::string("--rounds"),
        std::to_string(rounds), std::string("--eval_every"),
        std::to_string(w.eval_every_round ? 1 : rounds)}) {
    args.push_back(s);
  }
  return args;
}

serve::Scenario Build(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"e2e_bench"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  return serve::BuildScenario(flags);
}

/// Runs one episode. `serve_mode` false runs the workload's flags as an
/// in-process sim (the serve workload's oracle uses this too).
EpisodeResult RunEpisode(const Workload& w, int seed, bool serve_mode,
                         bool traced) {
  EpisodeResult ep;
  const std::vector<std::string> args = ScenarioArgs(w, seed);
  const double t0 = NowMs();
  serve::Scenario s;
  {
    obs::TraceSpan span("BuildScenario");
    s = Build(args);
  }
  ep.build_ms = NowMs() - t0;

  std::unique_ptr<net::TcpListener> listener;
  std::unique_ptr<serve::RemoteExecutor> executor;
  std::unique_ptr<TimedExecutor> timed;
  std::vector<std::thread> workers;
  std::vector<int> worker_clean(kServeWorkers, 0);
  if (serve_mode) {
    listener = std::make_unique<net::TcpListener>("127.0.0.1", 0);
    const int port = listener->bound_port();
    for (int id = 0; id < kServeWorkers; ++id) {
      workers.emplace_back([&args, &worker_clean, port, id] {
        obs::TraceSpan span(kWorkerSpan[id]);
        serve::Scenario replica = Build(args);
        BackoffPolicy policy;
        policy.initial_ms = 1.0;
        policy.max_ms = 10.0;
        net::TcpConnection conn =
            net::TcpConnection::ConnectWithRetry("127.0.0.1", port, 500, policy);
        const serve::WorkerLoopResult r = serve::RunWorkerLoop(
            replica.algorithm.get(), &conn, id, kServeWorkers,
            replica.fingerprint);
        worker_clean[static_cast<size_t>(id)] = r.clean_shutdown ? 1 : 0;
      });
    }
    serve::ExecutorOptions options;
    options.pipelined = true;
    executor = std::make_unique<serve::RemoteExecutor>(options);
    std::vector<uint8_t> blob;
    s.algorithm->SaveRunState(&blob);
    const double ta = NowMs();
    {
      obs::TraceSpan span("AcceptWorkers");
      executor->AcceptWorkers(listener.get(), kServeWorkers, s.fingerprint,
                              blob);
    }
    ep.accept_ms = NowMs() - ta;
    timed = std::make_unique<TimedExecutor>(executor.get());
    s.algorithm->set_train_executor(timed.get());
  }

  TrainerOptions options;
  options.eval_max_examples = kEvalMaxExamples;
  FederatedTrainer trainer(s.algorithm.get(), s.test.get(), options);
  const FlConfig& fl = s.algorithm->config();
  const int n = s.algorithm->num_clients();
  const int cohort =
      std::clamp(static_cast<int>(std::lround(fl.sample_ratio * n)), 1, n);
  const int64_t examples_per_round =
      static_cast<int64_t>(cohort) * fl.local_steps * fl.batch_size;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
  obs::Counter* conv_flops = reg.GetCounter("kernel.conv_flops");
  obs::Counter* gemm_flops = reg.GetCounter("kernel.gemm_flops");
  obs::Counter* reuse_hits = reg.GetCounter("autograd.tape_reuse_hits");
  obs::Gauge* allocs = reg.GetGauge("autograd.allocs_per_step");

  std::vector<double> losses;
  const int rounds = kWarmupRounds + kTimedRounds;
  serve::ServeStats stats_before;
  for (int round = 0; round < rounds; ++round) {
    const bool timed_round = round >= kWarmupRounds;
    const bool eval_now = w.eval_every_round || round == rounds - 1;
    if (round == kWarmupRounds) {
      ep.setup_ms = NowMs() - t0;
      if (executor) stats_before = executor->stats();
    }
    const double sub0 = timed ? timed->submit_ms : 0.0;
    const double col0 = timed ? timed->collect_ms : 0.0;
    const int64_t jobs0 = timed ? timed->jobs : 0;
    const int64_t cf0 = conv_flops->value(), gf0 = gemm_flops->value(),
                  rh0 = reuse_hits->value();
    const double tr = NowMs();
    RoundResult result;
    if (timed_round) {
      obs::TraceSpan span("RunRound");
      result = s.algorithm->RunRound(round);
    } else {
      obs::TraceSpan span("WarmupRound");
      result = s.algorithm->RunRound(round);
    }
    const double round_ms = NowMs() - tr;
    double eval_ms = 0.0;
    if (eval_now) {
      const double te = NowMs();
      obs::TraceSpan span("EvaluateGlobal");
      trainer.EvaluateGlobal();
      eval_ms = NowMs() - te;
    }
    losses.push_back(result.train_loss);
    const bool finite = std::isfinite(result.train_loss);
    if (!timed_round) {
      ep.warmup_finite = ep.warmup_finite && finite;
      continue;
    }
    ++ep.attempted;
    if (!finite) ++ep.failed;
    ep.round_ms.push_back(round_ms);
    if (eval_now) ep.eval_ms.push_back(eval_ms);
    ep.timed_wall_ms += round_ms + eval_ms;
    ep.examples += examples_per_round;
    if (timed) {
      ep.submit_ms.push_back(timed->submit_ms - sub0);
      ep.collect_ms.push_back(timed->collect_ms - col0);
      ep.jobs.push_back(static_cast<double>(timed->jobs - jobs0));
    }
    if (traced) {
      ep.conv_flops.push_back(static_cast<double>(conv_flops->value() - cf0));
      ep.gemm_flops.push_back(static_cast<double>(gemm_flops->value() - gf0));
      ep.reuse_hits.push_back(static_cast<double>(reuse_hits->value() - rh0));
      ep.allocs_per_step.push_back(allocs->value());
    }
  }

  const Tensor& state = s.algorithm->global_state();
  ep.state_digest =
      Fnv1a64(state.data(), static_cast<size_t>(state.size()) * sizeof(float));
  ep.loss_digest = Fnv1a64(losses.data(), losses.size() * sizeof(double));

  if (executor) {
    ep.stats_total = executor->stats();
    ep.bytes_sent_timed = ep.stats_total.bytes_sent - stats_before.bytes_sent;
    ep.bytes_received_timed =
        ep.stats_total.bytes_received - stats_before.bytes_received;
    executor->Shutdown();
    for (std::thread& t : workers) t.join();
    for (int c : worker_clean) ep.workers_clean = ep.workers_clean && c == 1;
  }
  return ep;
}

// ---- trace analysis (traced runs) ----

enum SpanId {
  kOther = 0,
  kSelect, kBroadcast, kLocalTrain, kUpload, kAggregate,
  kMapSync, kMapBroadcast, kMmdPenalty, kBackward,
  kConvFwd, kConvBwd, kGemmAdd, kGemmTa, kGemmTb,
  // Bench-side spans (not counted as layer spans).
  kBenchFirst,
  kRunRound = kBenchFirst, kWarmupRound, kBuildScenario, kAcceptWorkers,
  kEvaluateGlobal, kSubmit, kCollect, kWorker0, kWorker1,
};

int IdOf(const char* name) {
  static const std::map<std::string, int> kIds = {
      {"select", kSelect}, {"broadcast", kBroadcast},
      {"local_train", kLocalTrain}, {"upload", kUpload},
      {"aggregate", kAggregate}, {"map_sync", kMapSync},
      {"map_broadcast", kMapBroadcast}, {"mmd_penalty", kMmdPenalty},
      {"backward", kBackward}, {"conv2d_fwd", kConvFwd},
      {"conv2d_bwd", kConvBwd}, {"gemm_add", kGemmAdd},
      {"gemm_ta", kGemmTa}, {"gemm_tb", kGemmTb},
      {"RunRound", kRunRound}, {"WarmupRound", kWarmupRound},
      {"BuildScenario", kBuildScenario}, {"AcceptWorkers", kAcceptWorkers},
      {"EvaluateGlobal", kEvaluateGlobal}, {"Submit", kSubmit},
      {"Collect", kCollect}, {kWorkerSpan[0], kWorker0},
      {kWorkerSpan[1], kWorker1}};
  auto it = kIds.find(name);
  return it == kIds.end() ? kOther : it->second;
}

using PerRound = std::map<std::string, std::vector<double>>;

/// Folds one traced episode's spans into per-round layer values.
void AnalyzeEpisode(const std::vector<obs::LaneTrace>& lanes,
                    const EpisodeResult& ep, PerRound* out) {
  std::vector<Span> spans;
  for (const obs::LaneTrace& lane : lanes) {
    for (const obs::TraceEvent& ev : lane.events) {
      spans.push_back(Span{IdOf(ev.name), lane.lane, ev.depth,
                           ev.start_us / 1e3, ev.dur_us / 1e3});
    }
  }
  const std::vector<double> self = e2ebench::SelfTimes(spans);
  std::vector<size_t> rounds;  // RunRound spans in time order
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id == kRunRound) rounds.push_back(i);
  }
  std::sort(rounds.begin(), rounds.end(), [&](size_t a, size_t b) {
    return spans[a].start < spans[b].start;
  });
  for (size_t r = 0; r < rounds.size(); ++r) {
    const Span& win = spans[rounds[r]];
    const double lo = win.start, hi = win.end();
    std::map<std::string, double> v;
    double lt_first = hi, lt_last = lo;
    std::vector<std::pair<double, double>> layer_intervals;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.start < lo || s.start >= hi) continue;
      if (s.id < kBenchFirst) layer_intervals.emplace_back(s.start, s.end());
      switch (s.id) {
        case kLocalTrain:
          v["fl.local_train_ms"] += s.dur;
          v["fl.local_train.self_ms"] += self[i];
          v["fl.local_train.max_ms"] =
              std::max(v["fl.local_train.max_ms"], s.dur);
          lt_first = std::min(lt_first, s.start);
          lt_last = std::max(lt_last, s.end());
          break;
        case kSelect: v["fl.select_ms"] += s.dur; break;
        case kBroadcast: v["fl.broadcast_ms"] += s.dur; break;
        case kUpload: v["fl.upload_ms"] += s.dur; break;
        case kAggregate: v["fl.aggregate_ms"] += s.dur; break;
        case kMapSync: v["core.map_sync_ms"] += s.dur; break;
        case kMapBroadcast: v["core.map_broadcast_ms"] += s.dur; break;
        case kMmdPenalty: v["core.mmd_penalty_ms"] += s.dur; break;
        case kBackward:
          v["autograd.backward_ms"] += s.dur;
          v["autograd.backward.self_ms"] += self[i];
          break;
        case kConvFwd:
          v["tensor.conv2d_fwd_ms"] += s.dur;
          v["tensor.conv_calls"] += 1;
          break;
        case kConvBwd:
          v["tensor.conv2d_bwd_ms"] += s.dur;
          v["tensor.conv_calls"] += 1;
          break;
        case kGemmAdd: case kGemmTa: case kGemmTb:
          v["tensor.gemm_ms"] += s.dur;
          v["tensor.gemm_calls"] += 1;
          break;
        default: break;
      }
    }
    const double wall = hi - lo;
    v["fl.local_train.concurrency"] =
        lt_last > lt_first ? v["fl.local_train_ms"] / (lt_last - lt_first) : 0.0;
    v["core.map_sync.share"] = wall > 0 ? v["core.map_sync_ms"] / wall : 0.0;
    v["obs.span_coverage"] =
        wall > 0 ? e2ebench::UnionLength(layer_intervals, lo, hi) / wall : 0.0;
    const double conv_ms = v["tensor.conv2d_fwd_ms"] + v["tensor.conv2d_bwd_ms"];
    const double gemm_ms = v["tensor.gemm_ms"];
    if (r < ep.conv_flops.size()) {
      v["tensor.conv_gflops"] = conv_ms > 0 ? ep.conv_flops[r] / (conv_ms * 1e6) : 0.0;
      v["tensor.gemm_gflops"] = gemm_ms > 0 ? ep.gemm_flops[r] / (gemm_ms * 1e6) : 0.0;
      v["autograd.tape_reuse_hits"] = ep.reuse_hits[r];
      v["autograd.allocs_per_step"] = ep.allocs_per_step[r];
    }
    for (const char* name :
         {"fl.local_train_ms", "fl.local_train.self_ms", "fl.local_train.max_ms",
          "fl.local_train.concurrency", "fl.select_ms", "fl.broadcast_ms",
          "fl.upload_ms", "fl.aggregate_ms", "core.map_sync_ms",
          "core.map_sync.share", "core.map_broadcast_ms", "core.mmd_penalty_ms",
          "autograd.backward_ms", "autograd.backward.self_ms",
          "autograd.tape_reuse_hits", "autograd.allocs_per_step",
          "tensor.conv2d_fwd_ms", "tensor.conv2d_bwd_ms", "tensor.conv_calls",
          "tensor.conv_gflops", "tensor.gemm_ms", "tensor.gemm_calls",
          "tensor.gemm_gflops", "obs.span_coverage"}) {
      (*out)[name].push_back(v[name]);
    }
  }
}

/// Chrome trace_event JSON of one episode, with named lanes: the round
/// loop, each serve worker, and the sim's client threads.
void WriteLabelledTrace(const std::string& path,
                        const std::vector<obs::LaneTrace>& lanes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  std::fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
             "\"args\":{\"name\":\"e2e_bench\"}}", f);
  for (const obs::LaneTrace& lane : lanes) {
    std::string label = "client thread";
    for (const obs::TraceEvent& ev : lane.events) {
      const int id = IdOf(ev.name);
      if (id == kRunRound || id == kBuildScenario) label = "round loop (server)";
      if (id == kWorker0) label = "serve worker 0";
      if (id == kWorker1) label = "serve worker 1";
    }
    std::fprintf(f, ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}", lane.lane, label.c_str());
    for (const obs::TraceEvent& ev : lane.events) {
      std::fprintf(f, ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
                   ev.name, lane.lane, ev.start_us, ev.dur_us, ev.depth);
    }
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

// ---- output ----

double VmHwmMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

void AppendNumbers(std::string* json, const std::map<std::string, double>& m) {
  bool first = true;
  for (const auto& [name, value] : m) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",",
                  name.c_str(), value);
    *json += buf;
    first = false;
  }
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

// ---- self-test of the span and percentile arithmetic ----

int SelfTest() {
  int failures = 0;
  const auto expect = [&](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-9) {
      std::fprintf(stderr, "selftest %s: got %.6f want %.6f\n", what, got, want);
      ++failures;
    }
  };
  // Lane 0: a round with two clients, the first with a backward pass
  // holding two kernel spans; lane 1: a parallel client thread.
  const std::vector<Span> spans = {
      {kRunRound, 0, 0, 0, 100},   {kLocalTrain, 0, 1, 10, 50},
      {kBackward, 0, 2, 20, 30},   {kConvBwd, 0, 3, 25, 10},
      {kGemmTb, 0, 3, 36, 4},      {kLocalTrain, 0, 1, 60, 30},
      {kLocalTrain, 1, 0, 5, 65},  {kBackward, 1, 1, 5, 65},
      {kConvFwd, 1, 2, 5, 0},
  };
  const std::vector<double> self = e2ebench::SelfTimes(spans);
  expect("round self", self[0], 100 - 50 - 30);
  expect("local_train self", self[1], 50 - 30);
  expect("backward self", self[2], 30 - 10 - 4);
  expect("conv leaf self", self[3], 10);
  expect("second local_train self", self[5], 30);
  expect("lane-1 local_train self", self[6], 0);
  expect("lane-1 backward self", self[7], 65);
  // Coverage: lane 0 layer spans cover [10,90), lane 1 [5,70): union
  // [5,90) of the [0,100) window.
  expect("union", e2ebench::UnionLength({{10, 60}, {60, 90}, {5, 70}}, 0, 100),
         85);
  expect("union clipped", e2ebench::UnionLength({{-5, 3}, {97, 120}}, 0, 100), 6);
  expect("median odd", Median({3, 1, 2}), 2);
  expect("median even", Median({4, 1, 3, 2}), 2.5);
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const e2ebench::Tail tail = e2ebench::TailBeyond(samples, 10);
  expect("tail value", tail.value, 90);
  expect("tail percentile", tail.percentile, 100.0 * 89 / 99);
  const e2ebench::Tail small = e2ebench::TailBeyond({5, 7}, 10);
  expect("tail of few", small.value, 7);
  std::printf("selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  FlagParser flags(argc, argv);
  if (flags.GetBool("selftest", false)) return SelfTest();
  const std::string name = flags.GetString("workload", "");
  const int seed = flags.GetInt("seed", 1);
  const double seconds = flags.GetDouble("seconds", 40.0);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const std::string trace_out = flags.GetString("trace_out", "");

  const Workload* w = nullptr;
  for (const Workload& cand : Workloads()) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  // Host and build guard: timings from a debug or sanitized build, or
  // from a workload with more busy threads than the host has, describe
  // the build or the oversubscription rather than the program.
  const unsigned hw = std::thread::hardware_concurrency();
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to run: built without NDEBUG\n");
  return 2;
#endif
  if (Sanitized()) {
    std::fprintf(stderr, "refusing to run: sanitizer build\n");
    return 2;
  }
  if (hw == 0 || static_cast<unsigned>(w->busy_threads) > hw) {
    std::fprintf(stderr, "refusing to run %s: needs %d threads, host has %u\n",
                 w->name, w->busy_threads, hw);
    return 2;
  }

  std::vector<EpisodeResult> episodes;
  std::vector<bool> measured;  // per episode: counts toward the metrics
  PerRound per_round;
  double peak_rss_mb = 0.0;
  int64_t baseline_examples = 0;
  double baseline_ms = 0.0;
  const double start = NowMs();
  while (episodes.size() < kMinEpisodes ||
         NowMs() - start < seconds * 1e3) {
    // A traced run warms the process up with one unmeasured episode, then
    // alternates traced episodes (the measured ones) with untraced ones
    // (the obs.trace_overhead baseline).
    const size_t i = episodes.size();
    const bool trace_this = traced && i % 2 == 1;
    obs::EnableTracing(trace_this);
    obs::ClearTrace();
    EpisodeResult ep = RunEpisode(*w, seed, w->serve, trace_this);
    obs::EnableTracing(false);
    if (traced && i > 0 && !trace_this) {
      baseline_examples += ep.examples;
      baseline_ms += ep.timed_wall_ms;
    }
    if (trace_this) {
      const std::vector<obs::LaneTrace> lanes = obs::CollectTrace();
      AnalyzeEpisode(lanes, ep, &per_round);
      if (!trace_out.empty() && i == 1) WriteLabelledTrace(trace_out, lanes);
      obs::ClearTrace();
    }
    episodes.push_back(std::move(ep));
    measured.push_back(!traced || trace_this);
    // The first episode is one whole workload run in a fresh process.
    // Later episodes only add allocator noise (which arena each new
    // thread draws) and would tie the reading to how many fit in
    // --seconds.
    if (episodes.size() == 1) peak_rss_mb = VmHwmMb();
  }

  // ---- correctness ----
  std::vector<std::string> problems;
  int attempted = 0, failed = 0;
  const EpisodeResult& first = episodes.front();
  for (const EpisodeResult& ep : episodes) {
    attempted += ep.attempted;
    failed += ep.failed;
    if (ep.state_digest != first.state_digest ||
        ep.loss_digest != first.loss_digest) {
      problems.push_back("repeat episodes of one seed disagree on the digest");
    }
    if (!ep.warmup_finite) problems.push_back("non-finite warm-up train_loss");
    if (!ep.workers_clean) problems.push_back("a serve worker did not shut down cleanly");
    if (ep.stats_total.jobs_reassigned != 0 || ep.stats_total.worker_restarts != 0) {
      problems.push_back("fault-free serve run reassigned jobs or restarted workers");
    }
  }
  if (failed > 0) problems.push_back("non-finite train_loss");
  std::string oracle_state, oracle_loss;
  if (w->serve) {
    // The sim oracle: the same flags trained in process must land on the
    // same bits as the deployment.
    const EpisodeResult oracle = RunEpisode(*w, seed, false, false);
    oracle_state = Hex(oracle.state_digest);
    oracle_loss = Hex(oracle.loss_digest);
    if (oracle.state_digest != first.state_digest ||
        oracle.loss_digest != first.loss_digest) {
      problems.push_back("serve digest differs from the in-process sim");
    }
  }
  const bool correct = problems.empty();
  if (!correct) failed = attempted;

  // ---- end-to-end metrics ----
  std::vector<double> round_ms, eval_ms, setup_ms, build_ms, accept_ms;
  std::vector<double> submit_ms, collect_ms, jobs, sent_pr, recv_pr;
  double wall_ms = 0.0;
  int64_t examples = 0;
  for (size_t i = 0; i < episodes.size(); ++i) {
    if (!measured[i]) continue;
    const EpisodeResult& ep = episodes[i];
    round_ms.insert(round_ms.end(), ep.round_ms.begin(), ep.round_ms.end());
    eval_ms.insert(eval_ms.end(), ep.eval_ms.begin(), ep.eval_ms.end());
    submit_ms.insert(submit_ms.end(), ep.submit_ms.begin(), ep.submit_ms.end());
    collect_ms.insert(collect_ms.end(), ep.collect_ms.begin(), ep.collect_ms.end());
    jobs.insert(jobs.end(), ep.jobs.begin(), ep.jobs.end());
    setup_ms.push_back(ep.setup_ms);
    build_ms.push_back(ep.build_ms);
    accept_ms.push_back(ep.accept_ms);
    sent_pr.push_back(static_cast<double>(ep.bytes_sent_timed) / kTimedRounds);
    recv_pr.push_back(static_cast<double>(ep.bytes_received_timed) / kTimedRounds);
    wall_ms += ep.timed_wall_ms;
    examples += ep.examples;
  }
  const e2ebench::Tail tail = e2ebench::TailBeyond(round_ms, kTailBeyond);
  const double sps = examples / (wall_ms / 1e3);
  std::map<std::string, double> e2e = {
      {"round_ms.p50", Median(round_ms)},
      {"round_ms.tail", tail.value},
      {"samples_per_s", sps},
      {"setup_s", Median(setup_ms) / 1e3},
      {"peak_rss_mb", peak_rss_mb},
      {"error_rate", static_cast<double>(failed) / attempted},
  };

  std::map<std::string, double> layer;
  if (traced) {
    for (const auto& [metric, values] : per_round) layer[metric] = Median(values);
    serve::ServeStats totals;
    for (const EpisodeResult& ep : episodes) {
      totals.jobs_reassigned += ep.stats_total.jobs_reassigned;
      totals.heartbeats_sent += ep.stats_total.heartbeats_sent;
      totals.worker_restarts += ep.stats_total.worker_restarts;
    }
    layer["fl.evaluate_ms"] = Median(eval_ms);
    layer["autograd.tape_peak_bytes"] = static_cast<double>(BufferPool::PeakBytes());
    layer["tensor.scratch_peak_bytes"] = static_cast<double>(ScratchArena::PeakBytes());
    layer["serve.scenario_build_ms"] = Median(build_ms);
    layer["serve.accept_ms"] = Median(accept_ms);
    layer["serve.submit_ms"] = Median(submit_ms);
    layer["serve.collect_wait_ms"] = Median(collect_ms);
    layer["serve.jobs"] = Median(jobs);
    layer["serve.jobs_reassigned"] = static_cast<double>(totals.jobs_reassigned);
    layer["serve.heartbeats_sent"] = static_cast<double>(totals.heartbeats_sent);
    layer["serve.worker_restarts"] = static_cast<double>(totals.worker_restarts);
    layer["net.bytes_sent_per_round"] = Median(sent_pr);
    layer["net.bytes_received_per_round"] = Median(recv_pr);
    layer["obs.trace_overhead"] =
        baseline_examples / (baseline_ms / 1e3) / sps - 1.0;
    layer["error_rate"] = e2e["error_rate"];
  }

  std::string json = "{\"workload\":\"";
  json += w->name;
  json += "\",\"seed\":" + std::to_string(seed);
  json += ",\"traced\":" + std::string(traced ? "true" : "false");
  json += ",\"correct\":" + std::string(correct ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"problems\":[";
  for (size_t i = 0; i < problems.size(); ++i) {
    json += (i ? ",\"" : "\"") + problems[i] + "\"";
  }
  json += "],\"digests\":{\"state\":\"" + Hex(first.state_digest) +
          "\",\"loss\":\"" + Hex(first.loss_digest) + "\"";
  if (w->serve) {
    json += ",\"sim_state\":\"" + oracle_state + "\",\"sim_loss\":\"" +
            oracle_loss + "\"";
  }
  json += "},\"end_to_end\":{";
  AppendNumbers(&json, e2e);
  json += "},\"per_layer\":{";
  AppendNumbers(&json, layer);
  char record[512];
  std::snprintf(
      record, sizeof(record),
      "},\"record\":{\"nproc\":%u,\"isa\":\"%s\",\"compiler\":\"%s\","
      "\"ndebug\":true,\"sanitizer\":false,\"busy_threads\":%d,"
      "\"episodes\":%d,\"rounds_per_episode\":%d,\"warmup_rounds\":%d,"
      "\"timed_rounds\":%d,\"tail_percentile\":%.4f,\"tail_beyond\":%d",
      hw, KernelIsaName(ActiveKernelIsa()), __VERSION__, w->busy_threads,
      static_cast<int>(episodes.size()), kTimedRounds, kWarmupRounds,
      static_cast<int>(round_ms.size()), tail.percentile,
      static_cast<int>(kTailBeyond));
  json += record;
  json += ",\"round_ms\":[";
  for (size_t i = 0; i < round_ms.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "", round_ms[i]);
    json += buf;
  }
  json += "]}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
