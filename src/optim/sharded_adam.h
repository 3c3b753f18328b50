#ifndef ODNET_OPTIM_SHARDED_ADAM_H_
#define ODNET_OPTIM_SHARDED_ADAM_H_

#include <cstdint>
#include <vector>

#include "src/nn/sharded_embedding.h"
#include "src/optim/optimizer.h"

namespace odnet {
namespace optim {

/// \brief Adam whose slot state (m/v) lives inside a ShardedEmbeddingStore,
/// applied shard-parallel under per-shard locks (DESIGN.md §15).
///
/// Contract: Step() is bitwise identical to plain Adam in dense-equivalent
/// mode for every shard count. Row ownership partitions
/// the rows of each parameter across shards, and the per-row update —
/// m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g², w -= lr_t * m/(sqrt(v)+eps),
/// via the same fused simd::Kernels().adam_row — touches no other row, so
/// which shard (and which thread) applies a row cannot change its bits.
/// Touched rows take the full update; active rows (nonzero m/v) decay with
/// the gradient spelled out as an exact +0.0; all other rows are exact
/// no-ops and are skipped. ZeroGrad and ClipGradNorm are the deterministic
/// base-class implementations.
///
/// Only SparseUpdateMode::kDenseEquivalent is supported (kLazy stays a
/// plain-Adam feature).
class ShardedAdam : public Optimizer {
 public:
  /// `store` must outlive the optimizer; its parameter list becomes the
  /// optimizer's. Slot arrays (2 per parameter) are allocated here, once.
  ShardedAdam(nn::ShardedEmbeddingStore* store, double lr, double beta1 = 0.9,
              double beta2 = 0.999, double eps = 1e-8);

  void Step() override;

 private:
  /// Rebuilds the active-row list of a row-sharded param by scanning the
  /// packed per-shard slot arrays (the analogue of plain Adam's dense m/v
  /// scan).
  std::vector<int64_t> ScanActiveRowsPacked(size_t param);

  nn::ShardedEmbeddingStore* store_;
  double beta1_;
  double beta2_;
  double eps_;
  int64_t t_ = 0;
  // Dense-equivalent sparse bookkeeping, same scheme as plain Adam: rows
  // with possibly-nonzero m/v per row-sharded param (sorted ascending);
  // dense_state_ flags an unknown set (rebuilt on the next sparse step).
  std::vector<std::vector<int64_t>> active_rows_;
  std::vector<uint8_t> dense_state_;
};

}  // namespace optim
}  // namespace odnet

#endif  // ODNET_OPTIM_SHARDED_ADAM_H_
