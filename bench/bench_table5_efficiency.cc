// Regenerates Table V: training time and per-request inference time of
// every method on the synthetic Fliggy workload.
//
// Absolute times reflect this machine, not the paper's 5-PS/50-worker PAI
// cluster; the reproduced shape is relative: RNN-based methods train
// slowest (sequential state updates), attention/graph methods faster, and
// the single-task variants pay two inferences per request while the
// multi-task ODNET/ODNET-G pay one.

// `--train-step-sweep` instead runs the embedding-vocab scaling sweep:
// per-train-step time for vocab in {1k, 10k, 100k} under the forced-dense
// (pre-sparse) optimizer path, the default dense-equivalent sparse path,
// and the lazy sparse path, written machine-readably to
// BENCH_train_step.json. ODNET_BENCH_SMOKE=1 shrinks the step counts so CI
// can watch for gross regressions without paying full timing fidelity.
//
// `--ps-sweep` adds a `ps_sweep` section to the same JSON: ODNET training
// samples/s through OdnetRecommender::Fit (the production trainer, sync
// parameter-server mode) on FliggySimulator data over a train_workers x
// embedding_shards grid. The JSON records nproc because the observed
// speedup is meaningless without it — on a 1-core container the
// multi-worker rows measure pure orchestration overhead, not parallelism.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/odnet_recommender.h"
#include "src/optim/optimizer.h"
#include "src/serving/evaluator.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace {

// One synthetic train step over an embedding-table-dominated model:
// lookup(batch 128) -> 16x32 MLP -> squared-logit loss, then the full
// ZeroGrad / Backward / ClipGradNorm / Adam::Step sequence the real
// trainer runs. Returns the mean microseconds per step; per-step samples
// land in `hist` for the percentile columns.
double TimeTrainSteps(int64_t vocab, int mode_id, int warmup, int steps,
                      odnet::bench::LatencyHistogram* hist) {
  using namespace odnet;
  const int64_t dim = 16;
  const int64_t hidden = 32;
  const int64_t batch = 128;
  util::Rng rng(1234);
  tensor::Tensor table =
      tensor::Tensor::Randn({vocab, dim}, &rng, 0.05f, /*requires_grad=*/true);
  tensor::Tensor w1 = tensor::Tensor::Randn({dim, hidden}, &rng, 0.05f, true);
  tensor::Tensor w2 = tensor::Tensor::Randn({hidden, 1}, &rng, 0.05f, true);
  optim::Adam opt({table, w1, w2}, 0.01);
  if (mode_id == 0) opt.set_force_dense(true);
  if (mode_id == 2) opt.set_sparse_update_mode(optim::SparseUpdateMode::kLazy);
  util::Rng idx_rng(777);  // identical index stream for every mode
  auto step = [&]() {
    std::vector<int64_t> indices(static_cast<size_t>(batch));
    for (int64_t& ix : indices) ix = idx_rng.UniformInt(0, vocab - 1);
    opt.ZeroGrad();
    tensor::Tensor emb = tensor::EmbeddingLookup(table, indices, {batch});
    tensor::Tensor h = tensor::Relu(tensor::MatMul(emb, w1));
    tensor::Tensor logits = tensor::MatMul(h, w2);
    tensor::Tensor loss = tensor::Mean(tensor::Mul(logits, logits));
    loss.Backward();
    opt.ClipGradNorm(5.0);
    opt.Step();
  };
  for (int i = 0; i < warmup; ++i) step();
  return odnet::bench::TimedRoundUs(step, steps, hist);
}

// One cell of the PS sweep: its knobs and the wall time of each of its Fits.
struct PsCell {
  int64_t workers = 0;
  int64_t shards = 0;
  std::vector<double> fit_seconds;
  double final_loss = 0.0;
};

// Returns the `ps_sweep` JSON object (and prints the human table). Every
// cell fits ODNET on the same dataset with the same seed. The 1-worker
// cells run the single-worker loop (which ignores embedding_shards); all
// multi-worker cells do the same arithmetic, since the training digest
// depends on neither workers nor shards (final_loss shows it), so their
// timing differences are worker parallelism minus coordination cost. Cells
// are interleaved within each round so a slow spell of the host spreads
// over all of them. Smoke mode shrinks the dataset and runs one round so CI
// regenerates the section in seconds.
std::string RunPsSweep(bool smoke) {
  using namespace odnet;
  const int rounds = smoke ? 1 : 5;
  data::FliggyConfig fc;
  fc.num_users = smoke ? 120 : 1200;
  fc.num_cities = smoke ? 25 : 50;
  data::FliggySimulator simulator(fc);
  const data::OdDataset dataset = simulator.Generate();
  core::OdnetConfig base;  // paper defaults, HSGC on
  base.epochs = smoke ? 1 : 2;
  const double samples = static_cast<double>(dataset.train_samples.size()) *
                         static_cast<double>(base.epochs);
  const unsigned nproc = std::thread::hardware_concurrency();

  std::vector<PsCell> cells;
  for (int64_t shards : {1, 4}) {
    for (int64_t workers : {1, 2, 4}) {
      PsCell cell;
      cell.workers = workers;
      cell.shards = shards;
      cells.push_back(cell);
    }
  }
  std::printf(
      "\n=== PS training sweep (OdnetRecommender::Fit, %lld users, %zu "
      "train samples, %lld epochs, %d rounds, %u cores%s) ===\n",
      static_cast<long long>(fc.num_users), dataset.train_samples.size(),
      static_cast<long long>(base.epochs), rounds, nproc,
      smoke ? ", smoke" : "");
  for (int r = 0; r < rounds; ++r) {
    for (PsCell& cell : cells) {
      core::OdnetConfig config = base;
      config.train_workers = cell.workers;
      config.embedding_shards = cell.shards;
      baselines::OdnetRecommender odnet("ODNET", &simulator.atlas(), config);
      util::Stopwatch watch;
      const util::Status status = odnet.Fit(dataset);
      ODNET_CHECK(status.ok()) << status.ToString();
      cell.fit_seconds.push_back(watch.ElapsedSeconds());
      cell.final_loss = odnet.train_stats().final_epoch_loss;
      std::printf("finished round=%d workers=%lld shards=%lld\n", r,
                  static_cast<long long>(cell.workers),
                  static_cast<long long>(cell.shards));
      std::fflush(stdout);
    }
  }

  util::AsciiTable table({"Workers", "Shards", "samples/s",
                          "Speedup vs 1 worker", "Final loss"});
  std::string json =
      "{\n    \"entry_point\": \"OdnetRecommender::Fit\",\n    \"users\": " +
      std::to_string(fc.num_users) +
      ",\n    \"cities\": " + std::to_string(fc.num_cities) +
      ",\n    \"train_samples\": " +
      std::to_string(dataset.train_samples.size()) +
      ",\n    \"epochs\": " + std::to_string(base.epochs) +
      ",\n    \"slices\": " + std::to_string(base.train_grad_slices) +
      ",\n    \"rounds\": " + std::to_string(rounds) +
      ",\n    \"nproc\": " + std::to_string(nproc) +
      ",\n    \"compute_threads\": " +
      std::to_string(tensor::ComputeContext::Get().num_threads()) +
      ",\n    \"results\": [\n";
  double one_worker = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    PsCell& cell = cells[i];
    std::sort(cell.fit_seconds.begin(), cell.fit_seconds.end());
    const double median_s = cell.fit_seconds[cell.fit_seconds.size() / 2];
    const double per_s = samples / median_s;
    if (cell.workers == 1) one_worker = per_s;
    const double speedup = one_worker > 0.0 ? per_s / one_worker : 0.0;
    table.AddRow({std::to_string(cell.workers), std::to_string(cell.shards),
                  util::FormatFixed(per_s, 1),
                  util::FormatFixed(speedup, 2) + "x",
                  util::FormatFixed(cell.final_loss, 6)});
    if (i > 0) json += ",\n";
    json += "      {\"workers\": " + std::to_string(cell.workers) +
            ", \"shards\": " + std::to_string(cell.shards) +
            ", \"samples_per_s\": " + util::FormatFixed(per_s, 1) +
            ", \"speedup_vs_one_worker\": " + util::FormatFixed(speedup, 3) +
            ", \"fit_s_median\": " + util::FormatFixed(median_s, 3) +
            ", \"fit_s_min\": " +
            util::FormatFixed(cell.fit_seconds.front(), 3) +
            ", \"fit_s_max\": " +
            util::FormatFixed(cell.fit_seconds.back(), 3) +
            ", \"final_loss\": " + util::FormatFixed(cell.final_loss, 9) +
            "}";
  }
  json += "\n    ]\n  }";
  std::printf("\n");
  table.Print();
  return json;
}

int RunTrainStepSweep(bool with_ps_sweep) {
  using namespace odnet;
  const bool smoke = std::getenv("ODNET_BENCH_SMOKE") != nullptr;
  const int warmup = smoke ? 1 : 5;
  const int steps = smoke ? 3 : 100;
  const int64_t vocabs[] = {1000, 10000, 100000};
  const char* mode_names[] = {"dense", "dense-equivalent", "lazy"};

  std::printf(
      "=== Train-step embedding sweep (batch 128, dim 16, %d steps%s) ===\n",
      steps, smoke ? ", smoke" : "");
  util::AsciiTable table({"Vocab", "Mode", "us/step", "Speedup vs dense"});
  std::string json = "{\n  \"bench\": \"train_step\",\n  \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"batch\": 128,\n  \"dim\": 16,\n  \"steps\": " +
          std::to_string(steps) + ",\n  \"results\": [\n";
  bool first = true;
  for (int64_t vocab : vocabs) {
    double dense_us = 0.0;
    for (int mode = 0; mode < 3; ++mode) {
      bench::LatencyHistogram hist;
      const double us = TimeTrainSteps(vocab, mode, warmup, steps, &hist);
      if (mode == 0) dense_us = us;
      const double speedup = us > 0.0 ? dense_us / us : 0.0;
      table.AddRow({std::to_string(vocab), mode_names[mode],
                    util::FormatFixed(us, 1),
                    util::FormatFixed(speedup, 2) + "x"});
      if (!first) json += ",\n";
      first = false;
      json += "    {\"vocab\": " + std::to_string(vocab) + ", \"mode\": \"" +
              mode_names[mode] +
              "\", \"us_per_step\": " + util::FormatFixed(us, 2) +
              ", \"speedup_vs_dense\": " + util::FormatFixed(speedup, 3) +
              ", " + hist.JsonFields() + "}";
      std::printf("finished vocab=%lld mode=%s\n",
                  static_cast<long long>(vocab), mode_names[mode]);
      std::fflush(stdout);
    }
  }
  json += "\n  ]";
  std::printf("\n");
  table.Print();
  if (with_ps_sweep) {
    json += ",\n  \"ps_sweep\": " + RunPsSweep(smoke);
  }
  json += "\n}\n";
  std::ofstream out("BENCH_train_step.json");
  out << json;
  out.close();
  std::printf("\nwrote BENCH_train_step.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool train_sweep = false;
  bool ps_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--train-step-sweep") == 0) train_sweep = true;
    if (std::strcmp(argv[i], "--ps-sweep") == 0) ps_sweep = true;
  }
  if (train_sweep || ps_sweep) {
    // --ps-sweep alone still regenerates the vocab sweep: both sections
    // live in one BENCH_train_step.json, so a partial rewrite would drop
    // the other section from the committed file.
    return RunTrainStepSweep(ps_sweep);
  }
  using namespace odnet;
  bench::BenchScale scale = bench::BenchScale::FromEnv();
  // Timing does not need the full workload; keep runs brisk.
  data::FliggyConfig config;
  config.num_users = scale.num_users / 2;
  config.num_cities = scale.num_cities;
  config.seed = scale.seed;
  data::FliggySimulator simulator(config);
  data::OdDataset dataset = simulator.Generate();

  std::printf(
      "=== Table V analogue: training and inference efficiency ===\n"
      "(%zu train samples, %lld epochs; inference = one 30-candidate "
      "ranking request, mean of %d)\n\n",
      dataset.train_samples.size(), static_cast<long long>(scale.epochs),
      20);

  std::vector<graph::CityLocation> locations =
      core::AtlasLocations(simulator.atlas());
  auto methods =
      bench::MakeAllMethods(simulator.atlas(), locations, scale.epochs);

  util::AsciiTable table(
      {"Methods", "Training Time (s)", "Inferring Time (ms)"});
  for (auto& method : methods) {
    if (method->name() == "MostPop") continue;  // no training, as in paper
    util::Stopwatch watch;
    if (!method->Fit(dataset).ok()) continue;
    double train_seconds = watch.ElapsedSeconds();

    // One serving request: score a 30-candidate list for one test user.
    const int64_t user = dataset.test_users.empty()
                             ? 0
                             : dataset.test_users.front();
    const data::UserHistory& history =
        dataset.histories[static_cast<size_t>(user)];
    std::vector<data::OdPair> candidates = serving::BuildCandidates(
        history, dataset.num_cities, 30, scale.seed);
    std::vector<data::Sample> rows;
    for (const data::OdPair& od : candidates) {
      data::Sample s;
      s.user = user;
      s.candidate = od;
      s.day = history.decision_day;
      rows.push_back(s);
    }
    constexpr int kRepeats = 20;
    watch.Restart();
    for (int r = 0; r < kRepeats; ++r) {
      (void)method->Score(dataset, rows);
    }
    double infer_ms = watch.ElapsedMillis() / kRepeats;

    table.AddRow({method->name(), util::FormatFixed(train_seconds, 1),
                  util::FormatFixed(infer_ms, 2)});
    std::printf("finished %-10s\n", method->name().c_str());
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\nShape checks vs paper Table V:\n"
      "  - LSTM/STGN/LSTPM/STOD-PPA slowest to train (sequential "
      "recurrence).\n"
      "  - ODNET trains faster than STOD-PPA / STP-UDGAT.\n"
      "  - Multi-task ODNET/ODNET-G infer faster than the two-pass STL "
      "variants.\n");
  return 0;
}
