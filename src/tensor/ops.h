#ifndef ODNET_TENSOR_OPS_H_
#define ODNET_TENSOR_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace odnet {
namespace tensor {

// All ops are pure: they allocate a fresh output tensor and, when any input
// requires grad (and grad mode is on), record a backward closure on the tape.
// (Exception: documented zero-copy fast paths — Reshape and inference-mode
// Dropout — alias the input's storage instead of copying it.) Shapes are
// validated with ODNET_CHECK — shape mismatches are programmer errors, not
// runtime conditions.
//
// Large kernels fan out over the process-wide pool configured by
// tensor::ComputeContext (ODNET_NUM_THREADS); every parallel kernel writes
// disjoint ranges in the serial accumulation order, so results are bitwise
// identical for every thread count.

// -- Elementwise binary (NumPy-style broadcasting) ----------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// -- Scalar ops ----------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);

// -- Unary ----------------------------------------------------------------

Tensor Relu(const Tensor& a);
/// max(x, slope*x); slope in (0,1). Used by GAT-style attention scores.
Tensor LeakyRelu(const Tensor& a, float slope = 0.2f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs are clamped to >= eps for stability.
Tensor Log(const Tensor& a, float eps = 1e-12f);

// -- Linear algebra --------------------------------------------------------

/// [M,K]x[K,N] -> [M,N], or batched [B,M,K]x[B,K,N] -> [B,M,N].
/// A 2-D rhs with a 3-D lhs broadcasts the rhs across the batch.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Swaps the last two axes (rank >= 2).
Tensor TransposeLast2(const Tensor& a);

// -- Attention ---------------------------------------------------------------

/// Multi-head scaled dot-product self-attention over packed projections.
/// `qkv` is [B, T, 3*h*d_k] with column blocks [Q heads | K heads | V heads]
/// (head i of each block at columns i*d_k); `key_mask` is an optional
/// additive [B, T] mask over the key axis (0 valid, large negative padded;
/// never differentiated). Returns [B, T, h*d_k] with head i at columns
/// i*d_k. Per (b, head) the forward evaluates, in this float order, exactly
/// the chain MatMul(Q, K^T) -> MulScalar(1/sqrt(d_k)) -> Add(mask) ->
/// Softmax -> MatMul(., V) on the active tier, so it is bitwise equal to
/// that composition; the backward runs inside the op into `qkv`'s grad.
Tensor MultiHeadSelfAttention(const Tensor& qkv, const Tensor& key_mask,
                              int64_t num_heads);

// -- Shape manipulation -----------------------------------------------------

/// Same data, new shape (numel must match). Zero-copy: the result is a view
/// aliasing `a`'s storage (mutating one mutates the other).
Tensor Reshape(const Tensor& a, const Shape& new_shape);

/// Concatenates along `axis`; all inputs share the other dims.
Tensor Concat(const std::vector<Tensor>& inputs, int axis);

/// Contiguous sub-range [start, start+length) along `axis`.
Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t length);

/// Stacks equal-shaped tensors along a new leading axis.
Tensor Stack(const std::vector<Tensor>& inputs);

// -- Gather / embedding -------------------------------------------------------

/// Row gather from a [V, d] table: output shape = index_shape + [d].
/// Backward scatter-adds into the table rows.
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int64_t>& indices,
                       const Shape& index_shape);

// -- Reductions ----------------------------------------------------------------

/// Sum of all elements -> scalar.
Tensor Sum(const Tensor& a);
/// Sum along one axis.
Tensor SumAxis(const Tensor& a, int axis, bool keepdim = false);
/// Mean of all elements -> scalar.
Tensor Mean(const Tensor& a);
/// Mean along one axis.
Tensor MeanAxis(const Tensor& a, int axis, bool keepdim = false);

// -- Normalization / regularization ----------------------------------------------

/// Numerically-stable softmax along the last axis.
Tensor Softmax(const Tensor& a);

/// Inverted dropout: scales kept activations by 1/(1-p) during training.
/// When `training` is false or p == 0 it returns `a` itself (zero-copy
/// identity; no tape node is added, gradients flow to `a` directly).
Tensor Dropout(const Tensor& a, float p, util::Rng* rng, bool training);

// -- Host data ---------------------------------------------------------------------

/// A tensor whose contents are produced by a host closure: `fill` must fully
/// overwrite its [Numel(shape)]-float argument. Capture-aware replacement
/// for FromVector on per-batch host data (labels, masks, padded id grids):
/// when a plan capture is active the closure is recorded and re-run into the
/// same buffer on every replay, so `fill` must read only *objects* that the
/// caller keeps alive and address-stable across replays (stable workspace
/// members, bound-batch fields) — never temporaries. No tape node is
/// created; the result never requires grad.
Tensor HostTensor(const Shape& shape, std::function<void(float*)> fill);

// -- Losses -----------------------------------------------------------------------

/// Mean binary cross-entropy over logits. `targets` values in {0,1} (or
/// soft labels in [0,1]); same shape as logits. Stable formulation.
Tensor BceWithLogits(const Tensor& logits, const Tensor& targets);

/// Mean squared error (used by tests and the GBDT reference path).
Tensor MseLoss(const Tensor& pred, const Tensor& target);

// -- Operator sugar ------------------------------------------------------------------

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }
inline Tensor operator+(const Tensor& a, float s) { return AddScalar(a, s); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }

}  // namespace tensor
}  // namespace odnet

#endif  // ODNET_TENSOR_OPS_H_
