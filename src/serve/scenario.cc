#include "serve/scenario.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <map>
#include <utility>

#include "core/rfedavg.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_text.h"
#include "fl/fedavg.h"
#include "fl/fednova.h"
#include "fl/fedprox.h"
#include "fl/qfedavg.h"
#include "fl/scaffold.h"
#include "util/check.h"
#include "util/hash.h"

namespace rfed {
namespace serve {

namespace {

std::unique_ptr<FederatedAlgorithm> Build(
    const std::string& method, const FlConfig& fl,
    const RegularizerOptions& reg, const Dataset* train,
    const std::vector<ClientView>& views, const ModelFactory& factory) {
  if (method == "FedAvg") {
    return std::make_unique<FedAvg>(fl, train, views, factory);
  }
  if (method == "FedProx") {
    return std::make_unique<FedProx>(fl, 1.0, train, views, factory);
  }
  if (method == "Scaffold") {
    return std::make_unique<Scaffold>(fl, train, views, factory);
  }
  if (method == "q-FedAvg") {
    return std::make_unique<QFedAvg>(fl, 1.0, train, views, factory);
  }
  if (method == "FedNova") {
    return std::make_unique<FedNova>(fl, 4 * fl.local_steps, train, views,
                                     factory);
  }
  if (method == "rFedAvg") {
    return std::make_unique<RFedAvg>(fl, reg, train, views, factory);
  }
  if (method == "rFedAvg+") {
    return std::make_unique<RFedAvgPlus>(fl, reg, train, views, factory);
  }
  RFED_CHECK(false) << "unknown --method " << method;
  return nullptr;
}

constexpr const char* kScenarioUsage =
    R"(Scenario flags (defaults in parentheses). experiment_cli, rfed_server and
rfed_worker read the same flags; the processes of one deployment must
agree on every flag not marked [exempt] (the HELLO handshake compares a
fingerprint over their values).

Experiment:
  --dataset mnist|cifar|femnist|sent140 (mnist)
  --method FedAvg|FedProx|Scaffold|q-FedAvg|FedNova|rFedAvg|rFedAvg+ (rFedAvg+)
  --clients N (10)          --similarity 0..1 (0)     --rounds C (15)
  --local_steps E (5)       --batch B (24; 10 text)   --sample_ratio SR (1.0)
  --lr (0.08; 0.01 text)    --lambda (1e-3; 1e-4 text) --dp_sigma (0)
  --compressor none|q8|q4|topk10|topk1|sketch (none)
  --selection uniform|loss (uniform)
  --model cnn|mlp (cnn, image datasets only)
  --train_examples (1500)   --test_examples (400)     --seed (1)
  --eval_every (1)

Fault channel (per-attempt probabilities):
  --drop/--corrupt/--duplicate/--delay 0..1 (0)
  --mean_delay_ms (50)      --timeout_ms (250, 0=off) --retries (0)

Sim runtime:
  --sim_mode sync|deadline|async (sync)
  --compute_model constant|lognormal|drift (constant)
  --compute_ms per-step virtual ms (0 = free)         --compute_sigma (1.0)
  --compute_drift (0.05)    --compute_spread (0)
  --down_bw/--up_bw bytes per virtual ms (0 = infinite)
  --base_latency_ms (0)     --deadline_ms (deadline mode, required > 0)
  --async_buffer K arrivals per server update (2)

Adversarial clients (seeded, deterministic; docs/ARCHITECTURE.md):
  --adversary none|nan|sign_flip|scale|noise|label_flip (none)
  --adversary_frac fraction of clients compromised (0.2)
  --adversary_scale delta blow-up of the scale attack (100)
  --adversary_sigma stddev of the noise attack (1)

Robust aggregation (server side):
  --aggregator mean|trimmed_mean|median|norm_clip (mean)
  --trim_fraction per-side trim of trimmed_mean (0.2)
  --clip_multiplier norm bound as a multiple of the median delta norm (3)
  --validate screen non-finite updates/maps before aggregation (true)

Checkpoint / resume (bit-identical crash recovery; all [exempt]):
  --checkpoint_every write a run checkpoint every k rounds (0 = never)
  --checkpoint_path PATH of the checkpoint file (required with the above)
  --resume_from PATH restore a checkpoint and continue to --rounds

Parallelism (bit-identical at any setting; all [exempt]):
  --num_threads parallel local training (1 = sequential)
  --kernel_threads intra-op GEMM/conv threads (1 = serial kernels)

Autograd (bit-identical at any setting; docs/AUTOGRAD.md; all [exempt]):
  --autograd_static record each client bout's step-0 graph and replay it
      for the remaining local steps (true)
  --grad_checkpoint drop LSTM per-timestep activations at segment close
      and rematerialize them during backward; ~one extra forward per
      timestep for O(1)-per-timestep activation memory (false)

Scale (hierarchical aggregation; docs/ARCHITECTURE.md):
  --shard_fanout updates per shard task of the canonical aggregation
      tree (power of two; 0 = flat loop, byte-identical to goldens;
      any power of two yields one canonical tree result)
  --stream_chunk train/fold the cohort in chunks of this many clients
      (requires --shard_fanout > 0; mean-aggregating methods only;
      0 = all-at-once)

Output (docs/OBSERVABILITY.md):
  --csv_out PATH write the per-round history, including the metric
      registry's per-round snapshots, as CSV [exempt]

Serve failure handling (rfed_server; docs/DEPLOYMENT.md; all [exempt]):
  --worker_timeout_ms (0, 0=off) failure-detector deadline: a worker
      silent this long (PING/PONG probes cover idle links) is declared
      dead and its jobs are reassigned
  --max_worker_restarts (0) mid-run worker rejoins accepted before the
      run aborts
)";

// Flags that direct artifacts or set how fast and where a job runs, never
// what it computes. Every other flag BuildScenario reads is fingerprinted.
const char* const kFingerprintExempt[] = {
    "csv_out",         "checkpoint_path",   "resume_from",
    "checkpoint_every", "num_threads",      "kernel_threads",
    "autograd_static", "grad_checkpoint",   "worker_timeout_ms",
    "max_worker_restarts"};

// Reads an enumerated flag whose default is the first choice; aborts on
// any value outside `choices`.
std::string GetChoice(const FlagParser& flags, const std::string& key,
                      std::initializer_list<const char*> choices) {
  const std::string value = flags.GetString(key, *choices.begin());
  for (const char* choice : choices) {
    if (value == choice) return value;
  }
  RFED_CHECK(false) << "unknown --" << key << " " << value;
  return value;
}

}  // namespace

const char* ScenarioUsage() { return kScenarioUsage; }

Scenario BuildScenario(const FlagParser& flags) {
  const size_t first_read = flags.reads().size();
  Scenario s;
  s.dataset = GetChoice(flags, "dataset", {"mnist", "cifar", "femnist",
                                           "sent140"});
  s.method = flags.GetString("method", "rFedAvg+");
  const int clients = flags.GetInt("clients", 10);
  const double similarity = flags.GetDouble("similarity", 0.0);
  s.rounds = flags.GetInt("rounds", 15);
  const int train_examples = flags.GetInt("train_examples", 1500);
  const int test_examples = flags.GetInt("test_examples", 400);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool is_text = s.dataset == "sent140";
  // Read for every dataset so the flag is accepted (and validated) with
  // the text model too, which ignores it.
  const bool mlp = GetChoice(flags, "model", {"cnn", "mlp"}) == "mlp";

  FlConfig& fl = s.fl;
  fl.local_steps = flags.GetInt("local_steps", 5);
  fl.batch_size = flags.GetInt("batch", is_text ? 10 : 24);
  fl.sample_ratio = flags.GetDouble("sample_ratio", 1.0);
  fl.lr = flags.GetDouble("lr", is_text ? 0.01 : 0.08);
  fl.optimizer = is_text ? OptimizerKind::kRmsProp : OptimizerKind::kSgd;
  fl.seed = seed;
  fl.upload_compressor = flags.GetString("compressor", "none");
  fl.client_selection = GetChoice(flags, "selection", {"uniform", "loss"});
  fl.fault.drop_prob = flags.GetDouble("drop", 0.0);
  fl.fault.corrupt_prob = flags.GetDouble("corrupt", 0.0);
  fl.fault.duplicate_prob = flags.GetDouble("duplicate", 0.0);
  fl.fault.delay_prob = flags.GetDouble("delay", 0.0);
  fl.fault.mean_delay_ms = flags.GetDouble("mean_delay_ms", 50.0);
  fl.fault.round_timeout_ms = flags.GetDouble("timeout_ms", 250.0);
  fl.fault.max_retries = flags.GetInt("retries", 0);
  const std::string sim_mode = flags.GetString("sim_mode", "sync");
  RFED_CHECK(ParseSimMode(sim_mode, &fl.sim.mode))
      << "unknown --sim_mode " << sim_mode;
  const std::string compute_model =
      flags.GetString("compute_model", "constant");
  RFED_CHECK(ParseComputeModelKind(compute_model, &fl.sim.compute.kind))
      << "unknown --compute_model " << compute_model;
  fl.sim.compute.mean_ms_per_step = flags.GetDouble("compute_ms", 0.0);
  fl.sim.compute.sigma = flags.GetDouble("compute_sigma", 1.0);
  fl.sim.compute.drift = flags.GetDouble("compute_drift", 0.05);
  fl.sim.compute.hetero_spread = flags.GetDouble("compute_spread", 0.0);
  fl.sim.network.down_bytes_per_ms = flags.GetDouble("down_bw", 0.0);
  fl.sim.network.up_bytes_per_ms = flags.GetDouble("up_bw", 0.0);
  fl.sim.network.base_latency_ms = flags.GetDouble("base_latency_ms", 0.0);
  fl.sim.deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  fl.sim.async_buffer = flags.GetInt("async_buffer", 2);
  fl.adversary.mode = flags.GetString("adversary", "none");
  fl.adversary.fraction = flags.GetDouble("adversary_frac", 0.2);
  fl.adversary.scale = flags.GetDouble("adversary_scale", 100.0);
  fl.adversary.noise_sigma = flags.GetDouble("adversary_sigma", 1.0);
  RFED_CHECK(KnownAdversaryMode(fl.adversary.mode))
      << "unknown --adversary " << fl.adversary.mode;
  fl.robust.aggregator = flags.GetString("aggregator", "mean");
  fl.robust.trim_fraction = flags.GetDouble("trim_fraction", 0.2);
  fl.robust.clip_multiplier = flags.GetDouble("clip_multiplier", 3.0);
  fl.robust.validate = flags.GetBool("validate", true);
  RFED_CHECK(KnownAggregator(fl.robust.aggregator))
      << "unknown --aggregator " << fl.robust.aggregator;
  fl.num_threads = flags.GetInt("num_threads", 1);
  fl.kernel_threads = flags.GetInt("kernel_threads", 1);
  fl.autograd.static_graph = flags.GetBool("autograd_static", true);
  fl.autograd.checkpoint = flags.GetBool("grad_checkpoint", false);
  fl.shard_fanout = flags.GetInt("shard_fanout", 0);
  fl.stream_chunk = flags.GetInt("stream_chunk", 0);

  RegularizerOptions reg;
  reg.lambda = flags.GetDouble("lambda", is_text ? 1e-4 : 1e-3);
  reg.dp.sigma = flags.GetDouble("dp_sigma", 0.0);
  reg.dp.batch_size = fl.batch_size;

  s.trainer.eval_every = flags.GetInt("eval_every", 1);
  s.trainer.eval_max_examples = 400;
  s.trainer.verbose = true;
  s.trainer.checkpoint_every = flags.GetInt("checkpoint_every", 0);
  s.trainer.checkpoint_path = flags.GetString("checkpoint_path", "");
  RFED_CHECK(s.trainer.checkpoint_every <= 0 ||
             !s.trainer.checkpoint_path.empty())
      << "--checkpoint_every needs --checkpoint_path";
  s.resume_from = flags.GetString("resume_from", "");
  s.csv_out = flags.GetString("csv_out", "");
  s.worker_timeout_ms = flags.GetIntInRange("worker_timeout_ms", 0, 0,
                                            3600 * 1000);
  s.max_worker_restarts = flags.GetIntInRange("max_worker_restarts", 0, 0,
                                              1000000);

  // Data + partition + model, consuming Rng(seed) draws in a fixed order.
  Rng rng(seed);
  if (is_text) {
    TextProfile profile = Sent140LikeProfile();
    profile.num_users = std::max(4 * clients, 40);
    auto data = GenerateTextData(profile, train_examples, test_examples, &rng);
    auto split = NaturalPartition(data.train_users, profile.num_users,
                                  clients, &rng);
    for (auto& idx : split.client_indices) s.views.push_back({idx, {}});
    LstmConfig mc;
    mc.vocab_size = profile.vocab_size;
    mc.embed_dim = 8;
    mc.hidden_dim = 16;
    mc.feature_dim = 16;
    s.factory = MakeLstmFactory(mc);
    s.train = std::make_unique<Dataset>(std::move(data.train));
    s.test = std::make_unique<Dataset>(std::move(data.test));
  } else {
    ImageProfile profile = s.dataset == "cifar"    ? CifarLikeProfile()
                           : s.dataset == "femnist" ? FemnistLikeProfile()
                                                    : MnistLikeProfile();
    auto data = GenerateImageData(profile, train_examples, test_examples,
                                  &rng);
    ClientSplit split =
        s.dataset == "femnist"
            ? NaturalPartition(data.train_writers, profile.num_writers,
                               clients, &rng)
            : SimilarityPartition(data.train, clients, similarity, &rng);
    ClientSplit test_split = SimilarityPartition(data.test, clients,
                                                 similarity, &rng);
    for (int k = 0; k < clients; ++k) {
      s.views.push_back(ClientView{split.client_indices[k],
                                   test_split.client_indices[k]});
    }
    if (mlp) {
      MlpConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      s.factory = MakeMlpFactory(mc);
    } else {
      CnnConfig mc;
      mc.in_channels = profile.channels;
      mc.image_size = profile.image_size;
      mc.conv1_channels = 4;
      mc.conv2_channels = 8;
      mc.feature_dim = 16;
      s.factory = MakeCnnFactory(mc);
    }
    s.train = std::make_unique<Dataset>(std::move(data.train));
    s.test = std::make_unique<Dataset>(std::move(data.test));
  }

  s.algorithm = Build(s.method, fl, reg, s.train.get(), s.views, s.factory);

  // Fingerprint every flag read above, by its resolved value, unless
  // kFingerprintExempt names it.
  std::string spec;
  const std::map<std::string, std::string> resolved(
      flags.reads().begin() + static_cast<ptrdiff_t>(first_read),
      flags.reads().end());
  for (const auto& [key, value] : resolved) {
    if (std::find(std::begin(kFingerprintExempt), std::end(kFingerprintExempt),
                  key) != std::end(kFingerprintExempt)) {
      continue;
    }
    spec += key + "=" + value + ";";
  }
  s.fingerprint = static_cast<uint64_t>(
      Fnv1a32(reinterpret_cast<const uint8_t*>(spec.data()), spec.size()));
  return s;
}

}  // namespace serve
}  // namespace rfed
