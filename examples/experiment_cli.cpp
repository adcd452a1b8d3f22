// Configurable experiment runner — the "downstream user" entry point.
// Pick a dataset profile, partition, algorithm and hyperparameters from
// the command line and get the training curve plus communication totals.
// The scenario flags are serve::BuildScenario's (shared with rfed_server
// and rfed_worker); run `--help` for the full list.
//
// Examples:
//   ./build/examples/experiment_cli --dataset cifar --method rFedAvg+
//       --clients 10 --similarity 0 --rounds 20 --lambda 1e-3
//   ./build/examples/experiment_cli --dataset sent140 --method FedAvg
//       --clients 20 --sample_ratio 0.2 --rounds 10
//   ./build/examples/experiment_cli --dataset mnist --method Scaffold
//       --compressor topk10 --selection loss

#include <cstdio>

#include "core/personalization.h"
#include "fl/checkpoint.h"
#include "fl/trainer.h"
#include "obs/trace.h"
#include "serve/scenario.h"
#include "util/flags.h"

namespace {

using namespace rfed;

constexpr const char* kUsage = R"(usage: experiment_cli [--flag value | --flag=value ...]

Runs one scenario in process and prints the training curve plus
communication totals.

experiment_cli only:
  --fine_tune also report personalized accuracy (false)
  --trace record phase/kernel spans and print the per-phase summary (false)
  --trace_out PATH write spans as Chrome trace_event JSON (implies --trace;
      load in chrome://tracing or https://ui.perfetto.dev)
  --help print this message and exit

)";

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    std::fputs(serve::ScenarioUsage(), stdout);
    return 0;
  }
  const bool fine_tune = flags.GetBool("fine_tune", false);
  const std::string trace_out = flags.GetString("trace_out", "");
  const bool trace = flags.GetBool("trace", false) || !trace_out.empty();
  // Tracing is process-global and purely additive (FlConfig::trace).
  if (trace) obs::EnableTracing(true);

  serve::Scenario s = serve::BuildScenario(flags);
  for (const std::string& key : flags.UnreadKeys()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", key.c_str());
    return 1;
  }
  const FlConfig& fl = s.fl;
  FederatedAlgorithm* algorithm = s.algorithm.get();

  FederatedTrainer trainer(algorithm, s.test.get(), s.trainer);
  RunHistory history;
  if (!s.resume_from.empty()) {
    RunCheckpoint resume = RunCheckpoint::Load(s.resume_from);
    std::printf("resuming from %s at round %d\n", s.resume_from.c_str(),
                resume.next_round);
    history = trainer.Run(s.rounds, &resume);
  } else {
    history = trainer.Run(s.rounds);
  }

  std::printf("\n%s on %s: final=%.3f best=%.3f total_comm=%lld bytes "
              "kernel_scratch_peak=%lld bytes\n",
              s.method.c_str(), s.dataset.c_str(), history.FinalAccuracy(),
              history.BestAccuracy(),
              static_cast<long long>(algorithm->comm().total_bytes()),
              static_cast<long long>(history.PeakKernelScratchBytes()));
  if (fl.fault.enabled()) {
    std::printf("channel: delivered=%lld dropped=%lld retried=%lld\n",
                static_cast<long long>(history.TotalDelivered()),
                static_cast<long long>(history.TotalDropped()),
                static_cast<long long>(history.TotalRetried()));
  }
  if (fl.adversary.enabled() || !fl.robust.mean()) {
    int64_t rejected = 0;
    for (int64_t c : algorithm->rejection_counts()) rejected += c;
    std::printf(
        "resilience: adversary=%s adversarial_clients=%d aggregator=%s "
        "rejected_updates=%lld\n",
        fl.adversary.mode.c_str(), algorithm->adversary().num_adversarial(),
        fl.robust.aggregator.c_str(), static_cast<long long>(rejected));
  }
  if (!fl.sim.compute.free() || !fl.sim.network.free()) {
    std::printf(
        "sim (%s): virtual=%.1f ms, last round p50=%.1f ms p95=%.1f ms, "
        "stragglers_cut=%lld\n",
        ToString(fl.sim.mode), history.TotalVirtualMs(),
        history.rounds.back().client_p50_ms,
        history.rounds.back().client_p95_ms,
        static_cast<long long>(history.TotalStragglersCut()));
  }
  if (trace) {
    std::printf("\ntrace summary (wall vs virtual per phase):\n%s",
                obs::FormatTraceSummary().c_str());
    if (!trace_out.empty()) {
      obs::WriteChromeTrace(trace_out);
      std::printf("chrome trace written to %s (load in chrome://tracing)\n",
                  trace_out.c_str());
    }
  }
  if (!s.csv_out.empty()) {
    SaveHistoryCsv(history, s.csv_out);
    std::printf("per-round history written to %s\n", s.csv_out.c_str());
  }

  if (fine_tune && !s.views[0].test_indices.empty()) {
    PersonalizationOptions popt;
    popt.seed = fl.seed;
    PersonalizationReport report = PersonalizeAndEvaluate(
        algorithm, *s.train, *s.test, s.views, popt);
    std::printf("personalization: global=%.3f -> fine-tuned=%.3f\n",
                report.MeanGlobal(), report.MeanPersonalized());
  }
  return 0;
}
