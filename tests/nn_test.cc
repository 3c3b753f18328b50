#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/attention.h"
#include "src/nn/init.h"
#include "src/nn/linear.h"
#include "src/nn/lstm.h"
#include "src/nn/module.h"
#include "src/optim/optimizer.h"
#include "src/tensor/compute_context.h"
#include "src/tensor/cpu_capability.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace odnet {
namespace nn {
namespace {

using tensor::Tensor;

TEST(ModuleTest, CollectsParametersRecursively) {
  util::Rng rng(1);
  Mlp mlp({4, 8, 2}, &rng);
  // Two Linear layers: 4*8 + 8 + 8*2 + 2 = 58 parameters.
  EXPECT_EQ(mlp.NumParameters(), 58);
  auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "layer0.weight");
  EXPECT_EQ(named[3].first, "layer1.bias");
}

TEST(ModuleTest, TrainEvalPropagates) {
  util::Rng rng(1);
  Mlp mlp({2, 2}, &rng);
  EXPECT_TRUE(mlp.training());
  mlp.Eval();
  EXPECT_FALSE(mlp.training());
  mlp.Train();
  EXPECT_TRUE(mlp.training());
}

TEST(ModuleTest, ZeroGradClearsAll) {
  util::Rng rng(1);
  Linear linear(3, 2, &rng);
  Tensor x = Tensor::Ones({4, 3});
  tensor::Sum(linear.Forward(x)).Backward();
  bool any_nonzero = false;
  for (const Tensor& p : linear.Parameters()) {
    for (float g : p.grad()) {
      if (g != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  linear.ZeroGrad();
  for (const Tensor& p : linear.Parameters()) {
    for (float g : p.grad()) EXPECT_EQ(g, 0.0f);
  }
}

TEST(LinearTest, ForwardMatchesManual) {
  util::Rng rng(2);
  Linear linear(2, 1, &rng);
  const float* w = linear.weight().data();
  Tensor x = Tensor::FromVector({1, 2}, {3, 4});
  Tensor y = linear.Forward(x);
  EXPECT_NEAR(y.item(), 3 * w[0] + 4 * w[1], 1e-5f);  // bias initialized 0
}

TEST(LinearTest, BroadcastsOver3dInput) {
  util::Rng rng(2);
  Linear linear(4, 3, &rng);
  Tensor x = Tensor::Ones({2, 5, 4});
  Tensor y = linear.Forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 5, 3}));
}

TEST(EmbeddingTest, LookupShapes) {
  util::Rng rng(3);
  Embedding embed(10, 4, &rng);
  EXPECT_EQ(embed.Forward({1, 2, 3}).shape(), (tensor::Shape{3, 4}));
  EXPECT_EQ(embed.Forward({1, 2, 3, 4}, {2, 2}).shape(),
            (tensor::Shape{2, 2, 4}));
}

TEST(InitTest, PaperGaussianHasExpectedMoments) {
  util::Rng rng(4);
  Tensor t = PaperGaussianInit({100, 100}, &rng);
  double mean = 0.0;
  double sq = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    mean += t.data()[i];
    sq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  mean /= static_cast<double>(t.numel());
  double stddev = std::sqrt(sq / static_cast<double>(t.numel()) - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(stddev, 0.05, 0.002);  // paper Sec. V-A-5: sigma = 0.05
}

TEST(InitTest, XavierBoundRespected) {
  util::Rng rng(4);
  Tensor t = XavierUniformInit({6, 6}, &rng);
  float bound = std::sqrt(6.0f / 12.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i]), bound);
  }
}

// -------------------------------------------------------- Attention -----

TEST(MultiHeadAttentionTest, OutputShapeAndFiniteness) {
  util::Rng rng(5);
  MultiHeadAttention mha(16, 4, &rng);
  EXPECT_EQ(mha.head_dim(), 4);
  Tensor x = Tensor::Randn({3, 7, 16}, &rng);
  Tensor y = mha.Forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{3, 7, 16}));
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.data()[i]));
  }
}

TEST(MultiHeadAttentionTest, MaskExcludesPaddedKeys) {
  util::Rng rng(6);
  MultiHeadAttention mha(8, 2, &rng);
  Tensor x = Tensor::Randn({1, 4, 8}, &rng);
  // Mask out positions 0 and 1.
  Tensor mask = Tensor::FromVector({1, 4}, {-1e9f, -1e9f, 0.0f, 0.0f});
  Tensor masked = mha.Forward(x, mask);
  // Perturbing a masked key must not change the output.
  Tensor x2 = x.Clone();
  x2.mutable_data()[0] += 10.0f;  // position 0 features
  Tensor masked2 = mha.Forward(x2, mask);
  // Outputs at the unmasked QUERY positions depend on values via V-proj of
  // masked keys only through attention weights ~ 0.
  for (int64_t tpos = 2; tpos < 4; ++tpos) {
    for (int64_t dpos = 0; dpos < 8; ++dpos) {
      EXPECT_NEAR(masked.at({0, tpos, dpos}), masked2.at({0, tpos, dpos}),
                  1e-4f);
    }
  }
}

TEST(MultiHeadAttentionTest, RejectsIndivisibleHeads) {
  util::Rng rng(7);
  EXPECT_DEATH(MultiHeadAttention(10, 4, &rng), "not divisible");
}

TEST(MultiHeadAttentionTest, GradientsFlowToAllProjections) {
  util::Rng rng(8);
  MultiHeadAttention mha(8, 2, &rng);
  Tensor x = Tensor::Randn({2, 3, 8}, &rng);
  tensor::Sum(mha.Forward(x)).Backward();
  for (const Tensor& p : mha.Parameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::fabs(g);
    EXPECT_GT(norm, 0.0);
  }
}

// The per-head op chain MultiHeadAttention ran before its heads were packed
// into one tensor::MultiHeadSelfAttention op, rebuilt from the module's own
// named parameters.
Tensor PerHeadComposition(const MultiHeadAttention& mha, const Tensor& x,
                          const Tensor& key_mask) {
  std::map<std::string, Tensor> w;
  for (const auto& [name, param] : mha.NamedParameters()) w[name] = param;
  const int64_t batch = x.dim(0);
  const int64_t t = x.dim(1);
  const float scale = 1.0f / std::sqrt(static_cast<float>(mha.head_dim()));
  std::vector<Tensor> heads;
  for (int64_t h = 0; h < mha.num_heads(); ++h) {
    const std::string i = std::to_string(h);
    Tensor q = tensor::MatMul(x, w.at("wq" + i));
    Tensor k = tensor::MatMul(x, w.at("wk" + i));
    Tensor v = tensor::MatMul(x, w.at("wv" + i));
    Tensor scores =
        tensor::MulScalar(tensor::MatMul(q, tensor::TransposeLast2(k)), scale);
    if (key_mask.defined()) {
      scores = tensor::Add(scores, tensor::Reshape(key_mask, {batch, 1, t}));
    }
    heads.push_back(tensor::MatMul(tensor::Softmax(scores), v));
  }
  return tensor::MatMul(tensor::Concat(heads, -1), w.at("wo"));
}

// Packing Q|K|V into one MatMul and the heads into one op moves no forward
// float: outputs equal the per-head chain bitwise on every tier and thread
// count, with a fully padded batch row and all-zero input rows. Gradients
// differ only through the order of the dX sum, so they are compared near.
TEST(MultiHeadAttentionTest, MatchesPerHeadCompositionBitwise) {
  tensor::ComputeContext& ctx = tensor::ComputeContext::Get();
  const int saved_threads = ctx.num_threads();
  const int64_t saved_threshold = ctx.parallel_threshold();
  for (tensor::CpuCapability cap : tensor::AvailableCpuCapabilities()) {
    tensor::CpuCapabilityScope cap_scope(cap);
    for (int threads : {1, 4}) {
      ctx.SetNumThreads(threads);
      ctx.SetParallelThreshold(1);
      for (int64_t d : {8, 16}) {
        for (int64_t heads : {1, 2, 4}) {
          for (int64_t t : {1, 5, 10}) {
            const std::string tag =
                std::string("cap=") + tensor::CpuCapabilityName(cap) +
                " threads=" + std::to_string(threads) +
                " d=" + std::to_string(d) + " h=" + std::to_string(heads) +
                " T=" + std::to_string(t);
            util::Rng rng(static_cast<uint64_t>(100 * d + 10 * heads + t));
            MultiHeadAttention mha(d, heads, &rng);
            const int64_t batch = 3;
            Tensor x = Tensor::Randn({batch, t, d}, &rng);
            // Batch row 1 is all zeros; the last position of row 2 too.
            float* px = x.mutable_data();
            std::fill(px + t * d, px + 2 * t * d, 0.0f);
            std::fill(px + (3 * t - 1) * d, px + 3 * t * d, 0.0f);
            // Row 0 pads every key; row 2 pads its last key.
            std::vector<float> m(static_cast<size_t>(batch * t), 0.0f);
            std::fill(m.begin(), m.begin() + t, -1e9f);
            m.back() = -1e9f;
            Tensor mask = Tensor::FromVector({batch, t}, m);
            Tensor upstream = Tensor::Randn({batch, t, d}, &rng);
            x.set_requires_grad(true);

            auto grads = [&](const Tensor& y) {
              for (Tensor p : mha.Parameters()) p.ZeroGrad();
              x.ZeroGrad();
              tensor::Sum(tensor::Mul(y, upstream)).Backward();
              std::vector<float> all = x.grad();
              for (const Tensor& p : mha.Parameters()) {
                all.insert(all.end(), p.grad().begin(), p.grad().end());
              }
              return all;
            };
            for (const Tensor& key_mask : {Tensor(), mask}) {
              Tensor packed = mha.Forward(x, key_mask);
              Tensor chain = PerHeadComposition(mha, x, key_mask);
              testing::ExpectUlpClose(packed.vec(), chain.vec(), 0, tag);
              testing::ExpectClose(grads(packed), grads(chain), 1e-4f, 1e-5f,
                                   tag + " grads");
            }
          }
        }
      }
    }
  }
  ctx.SetNumThreads(saved_threads);
  ctx.SetParallelThreshold(saved_threshold);
}

TEST(DotProductAttentionTest, UniformValuesGiveValueBack) {
  util::Rng rng(9);
  DotProductAttention attn(4, &rng);
  // All key/value rows identical -> weighted sum returns that row.
  Tensor kv = Tensor::FromVector({1, 3, 4}, {1, 2, 3, 4, 1, 2, 3, 4,
                                             1, 2, 3, 4});
  Tensor q = Tensor::Randn({1, 4}, &rng);
  Tensor out = attn.Forward(q, kv);
  odnet::testing::ExpectTensorNear(out, {1, 2, 3, 4}, 1e-4f);
}

TEST(DotProductAttentionTest, MaskSuppressesPositions) {
  util::Rng rng(10);
  DotProductAttention attn(2, &rng);
  Tensor kv = Tensor::FromVector({1, 2, 2}, {100, 100, 1, 2});
  Tensor q = Tensor::Ones({1, 2});
  Tensor mask = Tensor::FromVector({1, 2}, {-1e9f, 0.0f});
  Tensor out = attn.Forward(q, kv, mask);
  // Only position 1 participates.
  odnet::testing::ExpectTensorNear(out, {1, 2}, 1e-3f);
}

// -------------------------------------------------------------- LSTM ----

TEST(LstmTest, StateShapesAndDeterminism) {
  util::Rng rng(11);
  Lstm lstm(4, 6, &rng);
  Tensor x = Tensor::Randn({2, 5, 4}, &rng);
  Tensor hs = lstm.Forward(x);
  EXPECT_EQ(hs.shape(), (tensor::Shape{2, 5, 6}));
  Tensor last = lstm.ForwardLast(x);
  EXPECT_EQ(last.shape(), (tensor::Shape{2, 6}));
  // Last slice of Forward equals ForwardLast.
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t d = 0; d < 6; ++d) {
      EXPECT_FLOAT_EQ(hs.at({b, 4, d}), last.at({b, d}));
    }
  }
}

TEST(LstmTest, HiddenStateBounded) {
  util::Rng rng(12);
  Lstm lstm(3, 4, &rng);
  Tensor x = tensor::MulScalar(Tensor::Randn({1, 20, 3}, &rng), 10.0f);
  Tensor h = lstm.Forward(x);
  for (int64_t i = 0; i < h.numel(); ++i) {
    EXPECT_LE(std::fabs(h.data()[i]), 1.0f);  // |h| <= tanh bound
  }
}

TEST(LstmTest, CanLearnToRememberFirstToken) {
  // Tiny capability check: predict the first element of a +-1 sequence.
  util::Rng rng(13);
  Lstm lstm(1, 8, &rng);
  Linear readout(8, 1, &rng);
  std::vector<tensor::Tensor> params = lstm.Parameters();
  for (const Tensor& p : readout.Parameters()) params.push_back(p);
  optim::Adam adam(params, 0.02);

  auto make_batch = [&rng](Tensor* x, Tensor* y) {
    const int64_t batch = 16;
    const int64_t t = 6;
    std::vector<float> xv(batch * t);
    std::vector<float> yv(batch);
    for (int64_t b = 0; b < batch; ++b) {
      float first = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
      yv[static_cast<size_t>(b)] = first > 0 ? 1.0f : 0.0f;
      xv[static_cast<size_t>(b * t)] = first;
      for (int64_t i = 1; i < t; ++i) {
        xv[static_cast<size_t>(b * t + i)] =
            rng.Bernoulli(0.5) ? 0.5f : -0.5f;
      }
    }
    *x = Tensor::FromVector({batch, t, 1}, std::move(xv));
    *y = Tensor::FromVector({batch, 1}, std::move(yv));
  };

  double last_loss = 0.0;
  for (int step = 0; step < 120; ++step) {
    Tensor x;
    Tensor y;
    make_batch(&x, &y);
    Tensor logits = readout.Forward(lstm.ForwardLast(x));
    Tensor loss = tensor::BceWithLogits(logits, y);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, 0.35) << "LSTM failed to learn a 6-step memory task";
}

TEST(StgnCellTest, GatesReactToIntervals) {
  util::Rng rng(14);
  StgnCell cell(4, 4, &rng);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  auto state = cell.InitialState(2);
  Tensor dt_small = Tensor::Full({2, 1}, 0.1f);
  Tensor dt_large = Tensor::Full({2, 1}, 5.0f);
  Tensor dd = Tensor::Full({2, 1}, 1.0f);
  auto out_small = cell.Forward(x, dt_small, dd, state);
  auto out_large = cell.Forward(x, dt_large, dd, state);
  EXPECT_EQ(out_small.h.shape(), (tensor::Shape{2, 4}));
  // Different intervals must produce different states (gates active).
  bool any_diff = false;
  for (int64_t i = 0; i < out_small.h.numel(); ++i) {
    if (std::fabs(out_small.h.data()[i] - out_large.h.data()[i]) > 1e-7f) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// Parameterized smoke across widths: forward+backward stays finite.
class LstmWidthTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(LstmWidthTest, ForwardBackwardFinite) {
  util::Rng rng(15);
  const int64_t hidden = GetParam();
  Lstm lstm(3, hidden, &rng);
  Tensor x = Tensor::Randn({2, 4, 3}, &rng);
  Tensor loss = tensor::Sum(lstm.ForwardLast(x));
  loss.Backward();
  for (const Tensor& p : lstm.Parameters()) {
    for (float g : p.grad()) EXPECT_TRUE(std::isfinite(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LstmWidthTest,
                         ::testing::Values(1, 2, 8, 16, 32));

}  // namespace
}  // namespace nn
}  // namespace odnet
