#include "src/core/trainer.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/sharded_embedding.h"
#include "src/optim/sharded_adam.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/buffer_arena.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/grad_delta.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace odnet {
namespace core {

OdnetTrainer::OdnetTrainer(OdnetModel* model, const data::OdDataset* dataset,
                           const data::TemporalFeatureIndex* temporal)
    : model_(model),
      dataset_(dataset),
      encoder_(dataset, temporal,
               data::SequenceSpec{model->config().t_long,
                                  model->config().t_short}),
      shuffle_rng_(model->config().seed ^ 0x5eedf00d) {
  ODNET_CHECK(model != nullptr);
  ODNET_CHECK(dataset != nullptr);
}

util::Status ValidateTrainingConfig(const OdnetConfig& config) {
  if (config.train_workers < 1) {
    return util::Status::InvalidArgument(
        "train_workers must be >= 1, got " +
        std::to_string(config.train_workers));
  }
  if (config.embedding_shards < 1) {
    return util::Status::InvalidArgument(
        "embedding_shards must be >= 1, got " +
        std::to_string(config.embedding_shards));
  }
  if (config.train_grad_slices < 1) {
    return util::Status::InvalidArgument(
        "train_grad_slices must be >= 1, got " +
        std::to_string(config.train_grad_slices));
  }
  if (config.ps_mode != "sync") {
    return util::Status::InvalidArgument("unknown ps_mode '" +
                                         config.ps_mode + "' (only \"sync\")");
  }
  if (config.sparse_embedding_updates != "dense-equivalent" &&
      config.sparse_embedding_updates != "lazy") {
    return util::Status::InvalidArgument(
        "unknown sparse_embedding_updates mode '" +
        config.sparse_embedding_updates + "'");
  }
  if (config.sparse_embedding_updates == "lazy" && config.train_workers > 1) {
    return util::Status::InvalidArgument(
        "sparse_embedding_updates \"lazy\" needs train_workers == 1");
  }
  return util::Status::OK();
}

TrainStats OdnetTrainer::Train() {
  const util::Status valid = ValidateTrainingConfig(model_->config());
  ODNET_CHECK(valid.ok()) << valid.ToString();
  const TrainStats stats = model_->config().train_workers > 1
                               ? TrainDataParallel()
                               : TrainSingleWorker();
  // The serving node tables snapshot the weights this run just changed.
  model_->InvalidateServingPlans();
  return stats;
}

TrainStats OdnetTrainer::TrainSingleWorker() {
  const OdnetConfig& config = model_->config();
  util::Stopwatch watch;
  TrainStats stats;

  optim::Adam optimizer(model_->Parameters(), config.learning_rate);
  if (config.sparse_embedding_updates == "lazy") {
    optimizer.set_sparse_update_mode(optim::SparseUpdateMode::kLazy);
  }
  model_->Train();

  // A shuffled copy so sample order is independent of generator order.
  std::vector<data::Sample> samples = dataset_->train_samples;
  const int64_t n = static_cast<int64_t>(samples.size());
  ODNET_CHECK_GT(n, 0) << "empty training set";
  const int64_t bs = config.batch_size;

  // Batch encoding is a pure function of the (already shuffled) sample
  // span — no RNG, no shared mutable state — so batch k+1 can be encoded
  // on the pool while step k runs without changing sample order or RNG
  // consumption. Falls back to inline encoding when no pool exists.
  std::shared_ptr<util::ThreadPool> pool =
      tensor::ComputeContext::Get().shared_pool();

  // Per-epoch/per-step latency instruments; clock reads gated on Enabled().
  telemetry::Histogram* step_ns =
      telemetry::TelemetryRegistry::Get().GetHistogram("train.step_ns");
  telemetry::Histogram* epoch_ns =
      telemetry::TelemetryRegistry::Get().GetHistogram("train.epoch_ns");

  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    telemetry::SpanScope epoch_span("Trainer.Epoch", "train");
    const int64_t epoch_start_ns =
        telemetry::Enabled() ? telemetry::NowNs() : 0;
    shuffle_rng_.Shuffle(&samples);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    data::OdBatch current = encoder_.EncodeJoint(
        samples, 0, static_cast<size_t>(std::min(bs, n)));
    for (int64_t start = 0; start < n; start += bs) {
      const int64_t next_start = start + bs;
      data::OdBatch next;
      std::future<void> prefetch;
      if (next_start < n) {
        const int64_t next_end = std::min(next_start + bs, n);
        auto encode_next = [&samples, &next, next_start, next_end, this]() {
          next = encoder_.EncodeJoint(samples, static_cast<size_t>(next_start),
                                      static_cast<size_t>(next_end));
        };
        if (pool != nullptr) {
          prefetch = pool->Submit(encode_next);
        } else {
          encode_next();
        }
      }
      double loss_value = 0.0;
      telemetry::SpanScope step_span("Trainer.Step", "train");
      const int64_t step_start_ns =
          telemetry::Enabled() ? telemetry::NowNs() : 0;
      {
        // Op results lease from the thread's arena and are recycled when
        // the scope resets it after the optimizer update.
        tensor::ArenaScope arena(tensor::BufferArena::ThreadLocal());
        tensor::Tensor loss = model_->Loss(current);
        optimizer.ZeroGrad();
        loss.Backward();
        {
          telemetry::SpanScope span("Optimizer.ClipGradNorm", "optim");
          optimizer.ClipGradNorm(5.0);
        }
        {
          telemetry::SpanScope span("Optimizer.Step", "optim");
          optimizer.Step();
        }
        loss_value = loss.item();
      }
      if (step_start_ns != 0) {
        step_ns->Record(telemetry::NowNs() - step_start_ns);
      }
      epoch_loss += loss_value;
      ++batches;
      ++stats.steps;
      if (prefetch.valid()) prefetch.get();
      if (next_start < n) current = std::move(next);
    }
    if (epoch_start_ns != 0) {
      epoch_ns->Record(telemetry::NowNs() - epoch_start_ns);
    }
    epoch_loss /= static_cast<double>(std::max<int64_t>(batches, 1));
    if (epoch == 0) stats.first_epoch_loss = epoch_loss;
    stats.final_epoch_loss = epoch_loss;
    ODNET_LOG_DEBUG << "epoch " << epoch << " loss " << epoch_loss
                    << " theta " << model_->theta();
  }
  model_->Eval();
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

namespace {

/// One micro-slice's contribution: its mean loss, its sample count, and one
/// GradDelta per parameter (Module::Parameters() order).
struct SliceResult {
  double loss = 0.0;
  int64_t count = 0;
  std::vector<tensor::GradDelta> deltas;
};

}  // namespace

TrainStats OdnetTrainer::TrainDataParallel() {
  const OdnetConfig& config = model_->config();
  ODNET_CHECK(replica_factory_ != nullptr)
      << "train_workers > 1 requires set_replica_factory()";
  const int num_slices = static_cast<int>(config.train_grad_slices);
  // Workers beyond the slice count would never get a slice.
  const int gang =
      static_cast<int>(std::min<int64_t>(config.train_workers, num_slices));
  const int num_shards = static_cast<int>(config.embedding_shards);

  util::Stopwatch watch;
  TrainStats stats;
  model_->Train();

  // The parameter layer: the master's tensors fronted by the sharded store;
  // optimizer slot state lives inside the store, packed per shard.
  std::vector<tensor::Tensor> params = model_->Parameters();
  const size_t num_params = params.size();
  nn::ShardedEmbeddingStore::Options store_opts;
  store_opts.num_shards = num_shards;
  nn::ShardedEmbeddingStore store(params, store_opts);
  optim::ShardedAdam optimizer(&store, config.learning_rate);

  // Worker replicas: same architecture, parameter storage aliased onto the
  // master's, so every forward reads the weights the last step applied;
  // gradients (and tapes) stay private to the replica.
  std::vector<std::unique_ptr<OdnetModel>> replicas;
  std::vector<std::vector<tensor::Tensor>> replica_params;
  for (int w = 0; w < gang; ++w) {
    replicas.push_back(replica_factory_());
    ODNET_CHECK(replicas.back() != nullptr);
    replicas.back()->AliasParametersTo(*model_);
    replicas.back()->Train();
    replica_params.push_back(replicas.back()->Parameters());
    ODNET_CHECK_EQ(replica_params.back().size(), num_params)
        << "replica factory produced a different architecture";
  }

  std::vector<data::Sample> samples = dataset_->train_samples;
  const int64_t n = static_cast<int64_t>(samples.size());
  ODNET_CHECK_GT(n, 0) << "empty training set";
  const int64_t bs = config.batch_size;

  telemetry::Histogram* step_ns =
      telemetry::TelemetryRegistry::Get().GetHistogram("train.step_ns");
  telemetry::Histogram* epoch_ns =
      telemetry::TelemetryRegistry::Get().GetHistogram("train.epoch_ns");

  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    telemetry::SpanScope epoch_span("Trainer.Epoch", "train");
    const int64_t epoch_start_ns =
        telemetry::Enabled() ? telemetry::NowNs() : 0;
    shuffle_rng_.Shuffle(&samples);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    int64_t step_index = 0;
    for (int64_t start = 0; start < n; start += bs, ++step_index) {
      const int64_t end = std::min(start + bs, n);
      const int64_t batch_count = end - start;
      // Fixed micro-slice grid: pure arithmetic in (start, end, G). Workers
      // only decide who computes a slice, never what a slice is — so the
      // sync digest depends on train_grad_slices, not on train_workers.
      const int64_t per = (batch_count + num_slices - 1) / num_slices;
      telemetry::SpanScope step_span("Trainer.Step", "train");
      const int64_t step_start_ns =
          telemetry::Enabled() ? telemetry::NowNs() : 0;
      std::vector<SliceResult> results(static_cast<size_t>(num_slices));
      std::atomic<int> next_slice{0};
      auto worker_body = [&, start, end, per, step_index, epoch](int w) {
        // The gang thread is a "worker" for nesting purposes: kernels it
        // runs execute serially instead of re-entering the shared pool.
        util::ThreadPool::WorkerMark mark;
        for (;;) {
          const int g = next_slice.fetch_add(1, std::memory_order_relaxed);
          if (g >= num_slices) break;
          const int64_t sb = start + static_cast<int64_t>(g) * per;
          const int64_t se = std::min(sb + per, end);
          if (sb >= se) continue;
          OdnetModel* replica = replicas[static_cast<size_t>(w)].get();
          data::OdBatch batch = encoder_.EncodeJoint(
              samples, static_cast<size_t>(sb), static_cast<size_t>(se));
          // Neighbor sampling is a function of the slice coordinates alone
          // — never of which worker drew the slice.
          replica->SeedSampleStreams(util::Rng::StreamSeed(
              config.seed, static_cast<uint64_t>(epoch),
              static_cast<uint64_t>(step_index), static_cast<uint64_t>(g)));
          SliceResult& r = results[static_cast<size_t>(g)];
          {
            tensor::ArenaScope arena(tensor::BufferArena::ThreadLocal());
            tensor::Tensor loss = replica->Loss(batch);
            replica->ZeroGrad();
            loss.Backward();
            r.loss = loss.item();
          }
          r.count = se - sb;
          r.deltas.reserve(num_params);
          for (size_t p = 0; p < num_params; ++p) {
            r.deltas.push_back(tensor::ExtractGradDelta(
                replica_params[static_cast<size_t>(w)][p]));
          }
        }
      };
      if (gang == 1) {
        worker_body(0);
      } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(gang));
        for (int w = 0; w < gang; ++w) threads.emplace_back(worker_body, w);
        for (std::thread& t : threads) t.join();
      }

      // Deterministic reduction: zero the master grad, merge the slices'
      // sparsity metadata serially, then accumulate values shard-parallel
      // — a shard only writes rows it owns, and every row sees its slice
      // contributions in ascending slice order whatever the shard/thread
      // count. Slice weights make the combined gradient the batch mean.
      {
        telemetry::SpanScope reduce_span("Trainer.ReduceDeltas", "train");
        optimizer.ZeroGrad();
        for (int g = 0; g < num_slices; ++g) {
          if (results[static_cast<size_t>(g)].count == 0) continue;
          for (size_t p = 0; p < num_params; ++p) {
            tensor::MarkDeltaRows(params[p],
                                  results[static_cast<size_t>(g)].deltas[p]);
          }
        }
        tensor::ComputeContext::Get().ParallelFor(
            num_shards, 1, [&](int64_t s0, int64_t s1) {
              for (int64_t s = s0; s < s1; ++s) {
                for (size_t p = 0; p < num_params; ++p) {
                  for (int g = 0; g < num_slices; ++g) {
                    const SliceResult& r = results[static_cast<size_t>(g)];
                    if (r.count == 0) continue;
                    const float scale = static_cast<float>(r.count) /
                                        static_cast<float>(batch_count);
                    const size_t param = p;
                    const int shard = static_cast<int>(s);
                    tensor::AccumulateGradDeltaRows(
                        params[p], r.deltas[p], scale,
                        [&store, param, shard](int64_t row) {
                          return store.Owns(param, shard, row);
                        });
                  }
                }
              }
            });
      }
      {
        telemetry::SpanScope span("Optimizer.ClipGradNorm", "optim");
        optimizer.ClipGradNorm(5.0);
      }
      {
        telemetry::SpanScope span("Optimizer.Step", "optim");
        optimizer.Step();
      }

      double loss_value = 0.0;
      for (int g = 0; g < num_slices; ++g) {
        const SliceResult& r = results[static_cast<size_t>(g)];
        if (r.count == 0) continue;
        loss_value += r.loss * (static_cast<double>(r.count) /
                                static_cast<double>(batch_count));
      }
      if (step_start_ns != 0) {
        step_ns->Record(telemetry::NowNs() - step_start_ns);
      }
      epoch_loss += loss_value;
      ++batches;
      ++stats.steps;
    }
    if (epoch_start_ns != 0) {
      epoch_ns->Record(telemetry::NowNs() - epoch_start_ns);
    }
    epoch_loss /= static_cast<double>(std::max<int64_t>(batches, 1));
    if (epoch == 0) stats.first_epoch_loss = epoch_loss;
    stats.final_epoch_loss = epoch_loss;
    ODNET_LOG_DEBUG << "epoch " << epoch << " loss " << epoch_loss
                    << " theta " << model_->theta();
  }

  model_->Eval();
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

}  // namespace core
}  // namespace odnet
