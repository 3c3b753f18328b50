#include "src/nn/attention.h"

#include "src/nn/init.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace nn {

using tensor::Tensor;

MultiHeadAttention::MultiHeadAttention(int64_t dim, int64_t num_heads,
                                       util::Rng* rng)
    : dim_(dim), num_heads_(num_heads) {
  ODNET_CHECK_GT(num_heads, 0);
  ODNET_CHECK_EQ(dim % num_heads, 0)
      << "dim " << dim << " not divisible by heads " << num_heads;
  head_dim_ = dim / num_heads;
  for (int64_t h = 0; h < num_heads_; ++h) {
    wq_.push_back(RegisterParameter("wq" + std::to_string(h),
                                    PaperGaussianInit({dim_, head_dim_}, rng)));
    wk_.push_back(RegisterParameter("wk" + std::to_string(h),
                                    PaperGaussianInit({dim_, head_dim_}, rng)));
    wv_.push_back(RegisterParameter("wv" + std::to_string(h),
                                    PaperGaussianInit({dim_, head_dim_}, rng)));
  }
  wo_ = RegisterParameter("wo",
                          PaperGaussianInit({num_heads_ * head_dim_, dim_}, rng));
}

Tensor MultiHeadAttention::Forward(const Tensor& x) const {
  return Forward(x, Tensor());
}

Tensor MultiHeadAttention::Forward(const Tensor& x,
                                   const Tensor& key_mask) const {
  ODNET_CHECK_EQ(x.rank(), 3);
  ODNET_CHECK_EQ(x.dim(2), dim_);
  // Packed projection: column blocks [Q heads | K heads | V heads]. Each
  // qkv element sums the same x row against the same weight column as the
  // per-head X W_i projections, so the values are bitwise theirs.
  std::vector<Tensor> w;
  w.reserve(static_cast<size_t>(3 * num_heads_));
  w.insert(w.end(), wq_.begin(), wq_.end());
  w.insert(w.end(), wk_.begin(), wk_.end());
  w.insert(w.end(), wv_.begin(), wv_.end());
  Tensor qkv = tensor::MatMul(x, tensor::Concat(w, /*axis=*/-1));
  Tensor heads = tensor::MultiHeadSelfAttention(qkv, key_mask, num_heads_);
  return tensor::MatMul(heads, wo_);  // [B, T, d]
}

DotProductAttention::DotProductAttention(int64_t dim, util::Rng* rng)
    : dim_(dim) {
  w_star_ = RegisterParameter("w_star", PaperGaussianInit({dim_, dim_}, rng));
}

Tensor DotProductAttention::Forward(const Tensor& query,
                                    const Tensor& keys_values) const {
  return Forward(query, keys_values, Tensor());
}

Tensor DotProductAttention::Forward(const Tensor& query,
                                    const Tensor& keys_values,
                                    const Tensor& key_mask) const {
  ODNET_CHECK_EQ(query.rank(), 2);
  ODNET_CHECK_EQ(keys_values.rank(), 3);
  ODNET_CHECK_EQ(query.dim(1), dim_);
  ODNET_CHECK_EQ(keys_values.dim(2), dim_);
  ODNET_CHECK_EQ(query.dim(0), keys_values.dim(0));
  const int64_t batch = query.dim(0);
  const int64_t t = keys_values.dim(1);

  // e_i* = (v_s^T W*) . e_L^i  computed batched:
  Tensor projected = tensor::MatMul(query, w_star_);        // [B, d]
  Tensor q3 = tensor::Reshape(projected, {batch, 1, dim_});  // [B, 1, d]
  Tensor scores = tensor::SumAxis(tensor::Mul(q3, keys_values), -1);  // [B, T]
  if (key_mask.defined()) scores = tensor::Add(scores, key_mask);
  Tensor weights = tensor::Softmax(scores);                 // Eq. 5 weights
  Tensor w3 = tensor::Reshape(weights, {batch, t, 1});
  return tensor::SumAxis(tensor::Mul(w3, keys_values), 1);  // [B, d]
}

}  // namespace nn
}  // namespace odnet
