#include "src/nn/sharded_embedding.h"

#include "src/util/check.h"

namespace odnet {
namespace nn {

ShardedEmbeddingStore::ShardedEmbeddingStore(std::vector<tensor::Tensor> params,
                                             const Options& options)
    : params_(std::move(params)),
      num_shards_(options.num_shards),
      min_rows_(options.min_rows) {
  ODNET_CHECK_GE(num_shards_, 1);
  const size_t n = params_.size();
  row_sharded_.assign(n, 0);
  local_index_.resize(n);
  owned_rows_.resize(n);
  slots_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const tensor::Tensor& p = params_[i];
    ODNET_CHECK(p.defined());
    slots_[i].resize(static_cast<size_t>(num_shards_));
    if (p.rank() != 2 || p.dim(0) < min_rows_) continue;
    row_sharded_[i] = 1;
    const int64_t rows = p.dim(0);
    local_index_[i].resize(static_cast<size_t>(rows));
    owned_rows_[i].assign(static_cast<size_t>(num_shards_), 0);
    for (int64_t r = 0; r < rows; ++r) {
      const int s = ShardOfRow(r);
      local_index_[i][static_cast<size_t>(r)] =
          static_cast<int32_t>(owned_rows_[i][static_cast<size_t>(s)]++);
    }
  }
  shard_mutex_.reset(new std::mutex[static_cast<size_t>(num_shards_)]);
  rows_applied_ = telemetry::TelemetryRegistry::Get().GetCounter(
      "trainer.shard.rows_applied");
  lock_wait_ns_ = telemetry::TelemetryRegistry::Get().GetHistogram(
      "trainer.shard.lock_wait_ns");
}

uint64_t ShardedEmbeddingStore::HashRow(int64_t row) {
  uint64_t z = static_cast<uint64_t>(row) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::unique_lock<std::mutex> ShardedEmbeddingStore::AcquireShard(int s) {
  ODNET_CHECK_GE(s, 0);
  ODNET_CHECK_LT(s, num_shards_);
  if (!telemetry::Enabled()) {
    return std::unique_lock<std::mutex>(shard_mutex_[s]);
  }
  const int64_t start_ns = telemetry::NowNs();
  std::unique_lock<std::mutex> lock(shard_mutex_[s]);
  lock_wait_ns_->Record(telemetry::NowNs() - start_ns);
  return lock;
}

std::vector<std::unique_lock<std::mutex>>
ShardedEmbeddingStore::LockAllShards() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    locks.push_back(AcquireShard(s));
  }
  return locks;
}

void ShardedEmbeddingStore::EnsureSlots(size_t param, int count) {
  ODNET_CHECK_LT(param, params_.size());
  ODNET_CHECK_GE(count, 1);
  const tensor::Tensor& p = params_[param];
  for (int s = 0; s < num_shards_; ++s) {
    ShardSlots& ss = slots_[param][static_cast<size_t>(s)];
    if (static_cast<int>(ss.slot.size()) >= count) continue;
    ss.slot.resize(static_cast<size_t>(count));
    for (auto& arr : ss.slot) {
      if (!arr.empty()) continue;
      if (row_sharded(param)) {
        arr.assign(static_cast<size_t>(OwnedRows(param, s) * p.dim(1)), 0.0f);
      } else if (ShardOfParam(param) == s) {
        arr.assign(static_cast<size_t>(p.numel()), 0.0f);
      }
    }
  }
}

float* ShardedEmbeddingStore::SlotRow(size_t param, int k, int64_t row) {
  ODNET_CHECK(row_sharded(param));
  const int s = ShardOfRow(row);
  const int64_t width = params_[param].dim(1);
  const int32_t local = local_index_[param][static_cast<size_t>(row)];
  return slots_[param][static_cast<size_t>(s)].slot[static_cast<size_t>(k)]
             .data() +
         static_cast<int64_t>(local) * width;
}

float* ShardedEmbeddingStore::SlotWhole(size_t param, int k) {
  ODNET_CHECK(!row_sharded(param));
  const int s = ShardOfParam(param);
  return slots_[param][static_cast<size_t>(s)]
      .slot[static_cast<size_t>(k)]
      .data();
}

}  // namespace nn
}  // namespace odnet
