#include "src/tensor/reference_backend.h"

#include <cmath>
#include <vector>

namespace odnet {
namespace tensor {
namespace reference {

int64_t BroadcastOffset(const Shape& out_shape, const Shape& op_shape,
                        int64_t index) {
  const int64_t out_rank = static_cast<int64_t>(out_shape.size());
  const int64_t op_rank = static_cast<int64_t>(op_shape.size());
  const int64_t shift = out_rank - op_rank;
  int64_t offset = 0;
  int64_t stride = 1;
  int64_t rem = index;
  // Walk dims innermost-first, building the operand offset from the
  // operand's own contiguous strides; broadcast (size-1) dims contribute 0.
  for (int64_t d = out_rank - 1; d >= 0; --d) {
    const int64_t coord = rem % out_shape[static_cast<size_t>(d)];
    rem /= out_shape[static_cast<size_t>(d)];
    const int64_t od = d - shift;
    if (od >= 0) {
      const int64_t dim = op_shape[static_cast<size_t>(od)];
      if (dim != 1) offset += coord * stride;
      stride *= dim;
    }
  }
  return offset;
}

namespace {

float ApplyBinary(BinaryKind kind, float x, float y) {
  switch (kind) {
    case BinaryKind::kAdd:
      return x + y;
    case BinaryKind::kSub:
      return x - y;
    case BinaryKind::kMul:
      return x * y;
    case BinaryKind::kDiv:
      return x / y;
  }
  return 0.0f;
}

}  // namespace

void BinaryForward(BinaryKind kind, const Shape& out_shape,
                   const Shape& a_shape, const Shape& b_shape, const float* a,
                   const float* b, float* out) {
  const int64_t n = Numel(out_shape);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t oa = BroadcastOffset(out_shape, a_shape, i);
    const int64_t ob = BroadcastOffset(out_shape, b_shape, i);
    out[i] = ApplyBinary(kind, a[oa], b[ob]);
  }
}

void BinaryBackward(BinaryKind kind, const Shape& out_shape,
                    const Shape& a_shape, const Shape& b_shape, const float* g,
                    const float* a, const float* b, float* da, float* db) {
  const int64_t n = Numel(out_shape);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t oa = BroadcastOffset(out_shape, a_shape, i);
    const int64_t ob = BroadcastOffset(out_shape, b_shape, i);
    // Same scalar formulas as the optimized backward, so the bits match.
    switch (kind) {
      case BinaryKind::kAdd:
        if (da != nullptr) da[oa] += g[i];
        if (db != nullptr) db[ob] += g[i];
        break;
      case BinaryKind::kSub:
        if (da != nullptr) da[oa] += g[i];
        if (db != nullptr) db[ob] += -1.0f * g[i];
        break;
      case BinaryKind::kMul:
        if (da != nullptr) da[oa] += g[i] * b[ob];
        if (db != nullptr) db[ob] += g[i] * a[oa];
        break;
      case BinaryKind::kDiv: {
        const float y = b[ob];
        if (da != nullptr) da[oa] += g[i] / y;
        if (db != nullptr) db[ob] += -g[i] * a[oa] / (y * y);
        break;
      }
    }
  }
}

void UnaryForward(int64_t n, const float* a, float* out,
                  const std::function<float(float)>& fwd) {
  for (int64_t i = 0; i < n; ++i) out[i] = fwd(a[i]);
}

void UnaryBackward(int64_t n, const float* g, const float* x, const float* y,
                   float* da, const std::function<float(float, float)>& bwd) {
  for (int64_t i = 0; i < n; ++i) da[i] += g[i] * bwd(x[i], y[i]);
}

void MatMulForward(const float* a, const float* b, float* out, int64_t batch,
                   int64_t m, int64_t k, int64_t n, bool b_batched) {
  for (int64_t bt = 0; bt < batch; ++bt) {
    const float* A = a + bt * m * k;
    const float* B = b + (b_batched ? bt * k * n : 0);
    float* C = out + bt * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += A[i * k + p] * B[p * n + j];
        C[i * n + j] = acc;
      }
    }
  }
}

void MatMulBackwardA(const float* b, const float* g, float* da, int64_t batch,
                     int64_t m, int64_t k, int64_t n, bool b_batched) {
  for (int64_t bt = 0; bt < batch; ++bt) {
    const float* B = b + (b_batched ? bt * k * n : 0);
    const float* G = g + bt * m * n;
    float* dA = da + bt * m * k;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        // j ascending: the optimized dA kernel's accumulation order.
        for (int64_t j = 0; j < n; ++j) {
          dA[i * k + p] += G[i * n + j] * B[p * n + j];
        }
      }
    }
  }
}

void MatMulBackwardB(const float* a, const float* g, float* db, int64_t batch,
                     int64_t m, int64_t k, int64_t n, bool b_batched) {
  if (b_batched) {
    for (int64_t bt = 0; bt < batch; ++bt) {
      const float* A = a + bt * m * k;
      const float* G = g + bt * m * n;
      float* dB = db + bt * k * n;
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            dB[p * n + j] += A[i * k + p] * G[i * n + j];
          }
        }
      }
    }
    return;
  }
  // Shared rhs: every batch contributes to the same dB, (batch, i)
  // ascending per element — the serial kernel's order.
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t bt = 0; bt < batch; ++bt) {
      const float* A = a + bt * m * k;
      const float* G = g + bt * m * n;
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          db[p * n + j] += A[i * k + p] * G[i * n + j];
        }
      }
    }
  }
}

void TransposeLast2Forward(const float* a, float* out, int64_t batch,
                           int64_t rows, int64_t cols) {
  for (int64_t bt = 0; bt < batch; ++bt) {
    const float* src = a + bt * rows * cols;
    float* dst = out + bt * rows * cols;
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) dst[j * rows + i] = src[i * cols + j];
    }
  }
}

void TransposeLast2Backward(const float* g, float* da, int64_t batch,
                            int64_t rows, int64_t cols) {
  for (int64_t bt = 0; bt < batch; ++bt) {
    const float* src = g + bt * rows * cols;
    float* dst = da + bt * rows * cols;
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) dst[i * cols + j] += src[j * rows + i];
    }
  }
}

void SumAxisForward(const float* a, float* out, int64_t outer,
                    int64_t axis_dim, int64_t inner) {
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      float* dst = out + o * inner + i;
      *dst = 0.0f;
      for (int64_t p = 0; p < axis_dim; ++p) {
        *dst += a[(o * axis_dim + p) * inner + i];
      }
    }
  }
}

void SumAxisBackward(const float* g, float* da, int64_t outer,
                     int64_t axis_dim, int64_t inner) {
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t p = 0; p < axis_dim; ++p) {
      for (int64_t i = 0; i < inner; ++i) {
        da[(o * axis_dim + p) * inner + i] += g[o * inner + i];
      }
    }
  }
}

void EmbeddingLookupForward(const float* table, const int64_t* indices,
                            int64_t count, int64_t dim, float* out) {
  for (int64_t i = 0; i < count; ++i) {
    const float* row = table + indices[i] * dim;
    for (int64_t j = 0; j < dim; ++j) out[i * dim + j] = row[j];
  }
}

void EmbeddingLookupBackward(const float* g, const int64_t* indices,
                             int64_t count, int64_t dim, float* dtable) {
  for (int64_t i = 0; i < count; ++i) {
    float* dst = dtable + indices[i] * dim;
    for (int64_t j = 0; j < dim; ++j) dst[j] += g[i * dim + j];
  }
}

void SoftmaxForward(const float* a, float* out, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = a + r * cols;
    float* y = out + r * cols;
    float max_val = x[0];
    for (int64_t c = 1; c < cols; ++c) {
      if (x[c] > max_val) max_val = x[c];
    }
    float total = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      y[c] = std::exp(x[c] - max_val);
      total += y[c];
    }
    const float inv = 1.0f / total;
    for (int64_t c = 0; c < cols; ++c) y[c] *= inv;
  }
}

void SoftmaxBackward(const float* g, const float* y, float* da, int64_t rows,
                     int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* yr = y + r * cols;
    const float* dy = g + r * cols;
    float dot = 0.0f;
    for (int64_t c = 0; c < cols; ++c) dot += dy[c] * yr[c];
    float* dx = da + r * cols;
    for (int64_t c = 0; c < cols; ++c) dx[c] += (dy[c] - dot) * yr[c];
  }
}

void MultiHeadSelfAttentionForward(const float* qkv, const float* mask,
                                   float* out, float* probs, int64_t batch,
                                   int64_t t, int64_t heads, int64_t dk,
                                   float scale) {
  const int64_t width = heads * dk;
  const int64_t row = 3 * width;
  std::vector<float> s(static_cast<size_t>(t));
  for (int64_t b = 0; b < batch; ++b) {
    const float* x = qkv + b * t * row;
    for (int64_t h = 0; h < heads; ++h) {
      const float* q = x + h * dk;
      const float* k = x + width + h * dk;
      const float* v = x + 2 * width + h * dk;
      float* a = probs + (b * heads + h) * t * t;
      for (int64_t i = 0; i < t; ++i) {
        for (int64_t j = 0; j < t; ++j) {
          float acc = 0.0f;
          for (int64_t p = 0; p < dk; ++p) acc += q[i * row + p] * k[j * row + p];
          acc = acc * scale;
          if (mask != nullptr) acc = acc + mask[b * t + j];
          s[static_cast<size_t>(j)] = acc;
        }
        SoftmaxForward(s.data(), a + i * t, 1, t);
        for (int64_t c = 0; c < dk; ++c) {
          float acc = 0.0f;
          for (int64_t j = 0; j < t; ++j) acc += a[i * t + j] * v[j * row + c];
          out[(b * t + i) * width + h * dk + c] = acc;
        }
      }
    }
  }
}

void MultiHeadSelfAttentionBackward(const float* qkv, const float* probs,
                                    const float* g, float* dqkv, int64_t batch,
                                    int64_t t, int64_t heads, int64_t dk,
                                    float scale) {
  const int64_t width = heads * dk;
  const int64_t row = 3 * width;
  std::vector<float> da(static_cast<size_t>(t));
  std::vector<float> ds(static_cast<size_t>(t));
  for (int64_t b = 0; b < batch; ++b) {
    const float* x = qkv + b * t * row;
    float* dx = dqkv + b * t * row;
    for (int64_t h = 0; h < heads; ++h) {
      const int64_t qo = h * dk;
      const int64_t ko = width + h * dk;
      const int64_t vo = 2 * width + h * dk;
      const float* a = probs + (b * heads + h) * t * t;
      for (int64_t i = 0; i < t; ++i) {
        const float* gi = g + (b * t + i) * width + h * dk;
        for (int64_t j = 0; j < t; ++j) {
          float acc = 0.0f;
          for (int64_t c = 0; c < dk; ++c) acc += gi[c] * x[j * row + vo + c];
          da[static_cast<size_t>(j)] = acc;
          for (int64_t c = 0; c < dk; ++c) {
            dx[j * row + vo + c] += a[i * t + j] * gi[c];
          }
        }
        for (int64_t j = 0; j < t; ++j) ds[static_cast<size_t>(j)] = 0.0f;
        SoftmaxBackward(da.data(), a + i * t, ds.data(), 1, t);
        for (int64_t j = 0; j < t; ++j) {
          ds[static_cast<size_t>(j)] = ds[static_cast<size_t>(j)] * scale;
        }
        for (int64_t p = 0; p < dk; ++p) {
          for (int64_t j = 0; j < t; ++j) {
            dx[i * row + qo + p] +=
                ds[static_cast<size_t>(j)] * x[j * row + ko + p];
          }
        }
        for (int64_t j = 0; j < t; ++j) {
          for (int64_t p = 0; p < dk; ++p) {
            dx[j * row + ko + p] +=
                x[i * row + qo + p] * ds[static_cast<size_t>(j)];
          }
        }
      }
    }
  }
}

}  // namespace reference
}  // namespace tensor
}  // namespace odnet
