#ifndef ODNET_NN_ATTENTION_H_
#define ODNET_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace odnet {
namespace nn {

/// \brief Multi-head self-attention encoder (paper Eq. 3).
///
/// Per head i, head_i = Attention(X W_i^Q, X W_i^K, X W_i^V) with
/// d_k = d / h; heads are concatenated and projected by W^O. Matches the
/// PEC encoding layer of Fig. 4.
///
/// The parameters stay per head (wq0.., wk0.., wv0.., wo: the paper's
/// matrices, the checkpoint names and the init draw order), but Forward
/// runs four ops: Concat of the per-head weights into one [d, 3*h*d_k]
/// matrix, one MatMul producing packed Q|K|V, tensor::MultiHeadSelfAttention
/// for all heads at once, and the MatMul by W^O. The forward is bitwise
/// equal to the per-head MatMul/Softmax chain; in training only the sum
/// into dX of the packed projection runs in a different float order.
class MultiHeadAttention : public Module {
 public:
  /// `dim` must be divisible by `num_heads`.
  MultiHeadAttention(int64_t dim, int64_t num_heads, util::Rng* rng);

  /// x: [B, T, dim] -> [B, T, dim]. An optional additive mask [B, T] with
  /// 0 for valid and a large negative value for padded positions is applied
  /// to attention logits over the key axis.
  tensor::Tensor Forward(const tensor::Tensor& x) const;
  tensor::Tensor Forward(const tensor::Tensor& x,
                         const tensor::Tensor& key_mask) const;

  int64_t num_heads() const { return num_heads_; }
  int64_t head_dim() const { return head_dim_; }

 private:
  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  // Per-head projections, matching the paper's W_i^{Q,K,V} in R^{d x d_k}.
  std::vector<tensor::Tensor> wq_;
  std::vector<tensor::Tensor> wk_;
  std::vector<tensor::Tensor> wv_;
  tensor::Tensor wo_;  // [h*d_k, d]
};

/// \brief Dot-product attention of PEC's attention layer (paper Eq. 4-5):
/// scores e_i* = v_s^T W* e_L^i, weights = softmax, output = sum w_i e_L^i.
class DotProductAttention : public Module {
 public:
  explicit DotProductAttention(int64_t dim, util::Rng* rng);

  /// query: [B, dim] (the pooled short-term vector v_S);
  /// keys_values: [B, T, dim] (the encoded long-term matrix E_L-hat).
  /// `key_mask` (optional, [B, T] additive: 0 valid / -1e9 padded) excludes
  /// padded positions from the softmax. Returns v_L: [B, dim].
  tensor::Tensor Forward(const tensor::Tensor& query,
                         const tensor::Tensor& keys_values) const;
  tensor::Tensor Forward(const tensor::Tensor& query,
                         const tensor::Tensor& keys_values,
                         const tensor::Tensor& key_mask) const;

 private:
  int64_t dim_;
  tensor::Tensor w_star_;  // [dim, dim]
};

}  // namespace nn
}  // namespace odnet

#endif  // ODNET_NN_ATTENTION_H_
