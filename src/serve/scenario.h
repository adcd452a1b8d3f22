#ifndef RFED_SERVE_SCENARIO_H_
#define RFED_SERVE_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "fl/trainer.h"
#include "util/flags.h"

namespace rfed {
namespace serve {

/// A fully constructed experiment: data, partition, model factory and
/// algorithm, built from command-line flags. BuildScenario is the only
/// code that turns flags into a scenario: experiment_cli, rfed_server and
/// rfed_worker all build through it, so one flag vocabulary with one set
/// of defaults and one construction order (the data/partition RNG draws
/// in a fixed sequence) gives bit-identical scenarios in the CLI, the
/// server, every worker, and the in-process oracle the differential
/// tests replay.
struct Scenario {
  std::string dataset;
  std::string method;
  FlConfig fl;
  std::unique_ptr<Dataset> train;
  std::unique_ptr<Dataset> test;
  std::vector<ClientView> views;
  ModelFactory factory;
  std::unique_ptr<FederatedAlgorithm> algorithm;

  int rounds = 0;
  /// What the binaries run the trainer with: --eval_every and the
  /// checkpoint flags, a 400-example evaluation cap, verbose logging.
  TrainerOptions trainer;
  std::string resume_from;
  std::string csv_out;

  /// Failure-tolerance knobs of the serve layer (ExecutorOptions in
  /// remote_executor.h has the semantics). Canonicalized here so server
  /// and tests share parsing, but fingerprint-exempt: like the worker
  /// count, they shape which process executes a job, never the job's
  /// result.
  int worker_timeout_ms = 0;
  int max_worker_restarts = 0;

  /// FNV-1a over "key=value" for every flag BuildScenario read, with its
  /// resolved value, minus a short exempt list (output paths, resume and
  /// checkpoint cadence, thread/autotune/autograd knobs, the failure
  /// knobs above) that never changes what a job computes. Workers send it
  /// in HELLO; the server refuses a handshake whose fingerprint differs
  /// from its own. A new flag is fingerprinted by default, so forgetting
  /// to think about it refuses a handshake rather than letting two
  /// processes diverge silently mid-run.
  uint64_t fingerprint = 0;
};

/// Builds the scenario from parsed flags. Aborts (RFED_CHECK) on a
/// malformed value, an unknown dataset/method/model/selection/mode value,
/// or --checkpoint_every without --checkpoint_path.
Scenario BuildScenario(const FlagParser& flags);

/// Help text for every flag BuildScenario reads, printed by all three
/// binaries' --help (docs_check greps these --flag tokens; serve_test
/// checks they are exactly the flags read).
const char* ScenarioUsage();

}  // namespace serve
}  // namespace rfed

#endif  // RFED_SERVE_SCENARIO_H_
