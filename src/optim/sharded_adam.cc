#include "src/optim/sharded_adam.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/tensor/compute_context.h"
#include "src/tensor/simd/simd_kernels.h"
#include "src/util/check.h"

namespace odnet {
namespace optim {

namespace {

using tensor::internal::TensorImpl;
namespace simd = tensor::simd;

tensor::ComputeContext& Ctx() { return tensor::ComputeContext::Get(); }

// Mirrors optimizer.cc: a state row leaves the active set only when every
// element is exactly +0.0f (a -0.0f must keep decaying so the bits match
// the dense loop).
bool RowExactlyPositiveZero(const float* row, int64_t width) {
  for (int64_t j = 0; j < width; ++j) {
    if (row[j] != 0.0f || std::signbit(row[j])) return false;
  }
  return true;
}

std::vector<int64_t> SortedDifference(const std::vector<int64_t>& a,
                                      const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<int64_t> SortedUnion(const std::vector<int64_t>& a,
                                 const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

float AdamLrT(double lr, double beta1, double beta2, int64_t t) {
  const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  return static_cast<float>(lr * std::sqrt(bias2) / bias1);
}

}  // namespace

ShardedAdam::ShardedAdam(nn::ShardedEmbeddingStore* store, double lr,
                         double beta1, double beta2, double eps)
    : Optimizer(store->params()),
      store_(store),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  learning_rate_ = lr;
  for (size_t i = 0; i < params_.size(); ++i) store_->EnsureSlots(i, 2);
  active_rows_.assign(params_.size(), {});
  dense_state_.assign(params_.size(), 0);
}

std::vector<int64_t> ShardedAdam::ScanActiveRowsPacked(size_t param) {
  const TensorImpl* impl = params_[param].impl();
  const int64_t vocab = impl->shape[0];
  const int64_t width = impl->shape[1];
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < vocab; ++r) {
    if (!RowExactlyPositiveZero(store_->SlotRow(param, 0, r), width) ||
        !RowExactlyPositiveZero(store_->SlotRow(param, 1, r), width)) {
      rows.push_back(r);
    }
  }
  return rows;
}

void ShardedAdam::Step() {
  ODNET_CHECK(mode_ == SparseUpdateMode::kDenseEquivalent)
      << "ShardedAdam supports only dense-equivalent sparse updates";
  const int64_t t = ++t_;
  const float lr_t = AdamLrT(learning_rate_, beta1_, beta2_, t);
  const float b1 = static_cast<float>(beta1_);
  const float b2 = static_cast<float>(beta2_);
  const float eps = static_cast<float>(eps_);

  // Serial prologue: ensure grads, rebuild stale active sets, and compute
  // each sparse parameter's decay list once, so the shard tasks below only
  // filter by ownership and never touch shared bookkeeping.
  struct SparseWork {
    std::vector<int64_t> decay;        // active minus touched
    std::vector<uint8_t> still_active; // written by shard tasks, disjoint
  };
  std::vector<uint8_t> sparse(params_.size(), 0);
  std::vector<SparseWork> work(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    TensorImpl* impl = params_[i].impl();
    impl->EnsureGrad();
    if (!store_->row_sharded(i) || !RowSparseGrad(i)) continue;
    sparse[i] = 1;
    if (dense_state_[i]) {
      active_rows_[i] = ScanActiveRowsPacked(i);
      dense_state_[i] = 0;
    }
    work[i].decay = SortedDifference(active_rows_[i], impl->grad_rows);
    work[i].still_active.assign(work[i].decay.size(), 0);
  }

  const int num_shards = store_->num_shards();
  auto apply_shard = [&](int s) {
    std::unique_lock<std::mutex> lock = store_->AcquireShard(s);
    const simd::KernelTable& kt = simd::Kernels();
    int64_t rows_applied = 0;
    for (size_t i = 0; i < params_.size(); ++i) {
      TensorImpl* impl = params_[i].impl();
      const float* g = impl->grad.data();
      float* data = params_[i].mutable_data();
      if (!store_->row_sharded(i)) {
        if (store_->ShardOfParam(i) != s) continue;
        const int64_t n = static_cast<int64_t>(impl->grad.size());
        kt.adam_row(data, store_->SlotWhole(i, 0), store_->SlotWhole(i, 1), g,
                    lr_t, b1, b2, eps, n);
        continue;
      }
      const int64_t width = impl->shape[1];
      if (!sparse[i]) {
        // Dense gradient on a row-sharded parameter (the linear weights):
        // every owned row takes the full update. Same per-element math as
        // the plain-Adam dense loop, partitioned by ownership.
        const int64_t vocab = impl->shape[0];
        for (int64_t r = 0; r < vocab; ++r) {
          if (store_->ShardOfRow(r) != s) continue;
          kt.adam_row(data + r * width, store_->SlotRow(i, 0, r),
                      store_->SlotRow(i, 1, r), g + r * width, lr_t, b1, b2,
                      eps, width);
          ++rows_applied;
        }
        continue;
      }
      for (int64_t row : impl->grad_rows) {
        if (store_->ShardOfRow(row) != s) continue;
        kt.adam_row(data + row * width, store_->SlotRow(i, 0, row),
                    store_->SlotRow(i, 1, row), g + row * width, lr_t, b1, b2,
                    eps, width);
        ++rows_applied;
      }
      const std::vector<int64_t>& decay = work[i].decay;
      for (size_t d = 0; d < decay.size(); ++d) {
        const int64_t row = decay[d];
        if (store_->ShardOfRow(row) != s) continue;
        float* mrow = store_->SlotRow(i, 0, row);
        float* vrow = store_->SlotRow(i, 1, row);
        kt.adam_row(data + row * width, mrow, vrow, /*g=*/nullptr, lr_t, b1,
                    b2, eps, width);
        work[i].still_active[d] =
            (RowExactlyPositiveZero(mrow, width) &&
             RowExactlyPositiveZero(vrow, width))
                ? 0
                : 1;
        ++rows_applied;
      }
    }
    store_->AddRowsApplied(rows_applied);
  };
  Ctx().ParallelFor(num_shards, 1, [&](int64_t sb, int64_t se) {
    for (int64_t s = sb; s < se; ++s) apply_shard(static_cast<int>(s));
  });

  // Serial epilogue: fold the shard tasks' survival flags back into the
  // per-parameter active sets.
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!store_->row_sharded(i)) continue;
    TensorImpl* impl = params_[i].impl();
    if (!sparse[i]) {
      dense_state_[i] = 1;
      active_rows_[i].clear();
      continue;
    }
    std::vector<int64_t> kept;
    kept.reserve(work[i].decay.size());
    for (size_t d = 0; d < work[i].decay.size(); ++d) {
      if (work[i].still_active[d]) kept.push_back(work[i].decay[d]);
    }
    active_rows_[i] = SortedUnion(kept, impl->grad_rows);
  }
}

}  // namespace optim
}  // namespace odnet
