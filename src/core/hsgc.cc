#include "src/core/hsgc.h"

#include "src/data/encoding.h"
#include "src/tensor/graph_plan.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace core {

using tensor::Tensor;

Hsgc::Hsgc(const graph::HeterogeneousSpatialGraph* graph, graph::Metapath rho,
           const OdnetConfig& config, util::Rng* rng)
    : graph_(graph),
      rho_(rho),
      config_(config),
      d_(config.embed_dim),
      user_features_(graph->num_users(), config.embed_dim, rng),
      city_features_(graph->num_cities(), config.embed_dim, rng),
      transform_(config.embed_dim, config.embed_dim, rng, /*bias=*/false),
      sample_rng_(rng->NextUint64()) {
  ODNET_CHECK(graph_ != nullptr);
  ODNET_CHECK(graph_->finalized());
  ODNET_CHECK_GE(config_.exploration_depth, 1);
  ODNET_CHECK_GE(config_.neighbor_cap, 1);
  RegisterModule("user_features", &user_features_);
  RegisterModule("city_features", &city_features_);
  RegisterModule("transform", &transform_);
  for (int64_t k = 1; k <= config_.exploration_depth; ++k) {
    // W^k maps the concatenated [self ; aggregated-neighborhood] back to d.
    step_weights_.push_back(
        std::make_unique<nn::Linear>(2 * d_, d_, rng, /*bias=*/true));
    RegisterModule("w" + std::to_string(k), step_weights_.back().get());
  }
  all_cities_.resize(static_cast<size_t>(graph_->num_cities()));
  for (int64_t c = 0; c < graph_->num_cities(); ++c) {
    all_cities_[static_cast<size_t>(c)] = c;
  }
  city_ws_.resize(static_cast<size_t>(config_.exploration_depth));
  user_ws_.resize(static_cast<size_t>(config_.exploration_depth));
}

Tensor Hsgc::AggregateStep(const Tensor& self_emb, const Tensor& neighbor_emb,
                           const std::vector<float>* pad,
                           const std::vector<float>* spatial, int64_t n,
                           int64_t step) const {
  const int64_t cap = config_.neighbor_cap;
  // Attention scores (Eq. 1): dot(self, neighbor), optionally scaled by the
  // spatial weight w_ij when the center node is a city.
  Tensor self3 = tensor::Reshape(self_emb, {n, 1, d_});
  Tensor scores = tensor::SumAxis(tensor::Mul(self3, neighbor_emb), -1);
  if (spatial != nullptr) {
    Tensor w = tensor::HostTensor({n, cap}, [spatial](float* out) {
      std::copy(spatial->begin(), spatial->end(), out);
    });
    scores = tensor::Mul(scores, w);
  }
  scores = tensor::Relu(scores);
  // Mask out padded neighbor slots before the softmax.
  Tensor additive = tensor::HostTensor(
      {n, cap}, [pad](float* out) { data::AdditiveMask(*pad, out); });
  scores = tensor::Add(scores, additive);
  Tensor alpha = tensor::Softmax(scores);  // [n, cap]
  // Zero contributions from rows whose slots are all padded (isolated
  // nodes): multiply by the pad indicator.
  Tensor pad_t = tensor::HostTensor({n, cap}, [pad](float* out) {
    std::copy(pad->begin(), pad->end(), out);
  });
  Tensor alpha_masked = tensor::Mul(alpha, pad_t);
  Tensor alpha3 = tensor::Reshape(alpha_masked, {n, cap, 1});
  Tensor aggregated = tensor::SumAxis(tensor::Mul(alpha3, neighbor_emb), 1);
  // Line 5: ReLU(W^k . CONCAT(self, aggregated)).
  Tensor concat = tensor::Concat({self_emb, aggregated}, -1);
  return tensor::Relu(
      step_weights_[static_cast<size_t>(step - 1)]->Forward(concat));
}

Hsgc::State Hsgc::Forward() {
  const int64_t n = graph_->num_cities();
  const int64_t cap = config_.neighbor_cap;

  State state;
  // Level 0: e^0 = M_T h (line 1 of Algorithm 1), over all cities.
  state.city_levels.push_back(
      transform_.Forward(city_features_.Forward(all_cities_)));

  for (int64_t k = 1; k <= config_.exploration_depth; ++k) {
    // Sample each city's metapath neighbor cities (cap 5) into the level's
    // stable workspace. Under capture the whole sampling loop is a recorded
    // host stage, re-run per replay so the RNG stream matches eager.
    LevelWs* ws = &city_ws_[static_cast<size_t>(k - 1)];
    tensor::PlanHostStage([this, ws, n, cap]() {
      ws->nbr_ids.assign(static_cast<size_t>(n * cap), 0);
      ws->pad.assign(static_cast<size_t>(n * cap), 0.0f);
      if (config_.use_spatial_weights) {
        ws->spatial.assign(static_cast<size_t>(n * cap), 0.0f);
      } else {
        ws->spatial.clear();
      }
      for (int64_t c = 0; c < n; ++c) {
        std::vector<int64_t> nbrs =
            graph_->SampleCityNeighborCities(c, rho_, cap, &sample_rng_);
        for (size_t j = 0; j < nbrs.size(); ++j) {
          size_t idx = static_cast<size_t>(c * cap) + j;
          ws->nbr_ids[idx] = nbrs[j];
          ws->pad[idx] = 1.0f;
          if (config_.use_spatial_weights) {
            ws->spatial[idx] =
                static_cast<float>(graph_->SpatialWeight(c, nbrs[j]) *
                                   static_cast<double>(n));  // rescale to O(1)
          }
        }
      }
    });
    const Tensor& prev = state.city_levels.back();
    Tensor nbr_emb = tensor::EmbeddingLookup(prev, ws->nbr_ids, {n, cap});
    state.city_levels.push_back(AggregateStep(
        prev, nbr_emb, &ws->pad,
        config_.use_spatial_weights ? &ws->spatial : nullptr, n, k));
  }
  return state;
}

Tensor Hsgc::EmbedCities(const State& state,
                         const std::vector<int64_t>& city_ids,
                         const tensor::Shape& index_shape) const {
  return tensor::EmbeddingLookup(state.city_levels.back(), city_ids,
                                           index_shape);
}

Tensor Hsgc::EmbedUsers(const State& state,
                        const std::vector<int64_t>& user_ids) {
  const int64_t batch = static_cast<int64_t>(user_ids.size());
  const int64_t cap = config_.neighbor_cap;

  // User chain of Algorithm 1: e^0_u, then K aggregation steps against the
  // city tables of the previous level.
  Tensor user_emb = transform_.Forward(user_features_.Forward(user_ids));
  for (int64_t k = 1; k <= config_.exploration_depth; ++k) {
    LevelWs* ws = &user_ws_[static_cast<size_t>(k - 1)];
    const std::vector<int64_t>* ids = &user_ids;
    tensor::PlanHostStage([this, ws, ids, batch, cap]() {
      ws->nbr_ids.assign(static_cast<size_t>(batch * cap), 0);
      ws->pad.assign(static_cast<size_t>(batch * cap), 0.0f);
      for (int64_t i = 0; i < batch; ++i) {
        std::vector<int64_t> nbrs = graph_->SampleUserNeighborCities(
            (*ids)[static_cast<size_t>(i)], rho_, cap, &sample_rng_);
        for (size_t j = 0; j < nbrs.size(); ++j) {
          size_t idx = static_cast<size_t>(i * cap) + j;
          ws->nbr_ids[idx] = nbrs[j];
          ws->pad[idx] = 1.0f;
        }
      }
    });
    Tensor nbr_emb = tensor::EmbeddingLookup(
        state.city_levels[static_cast<size_t>(k - 1)], ws->nbr_ids,
        {batch, cap});
    // Users use the plain dot-product branch of Eq. 1 (no spatial weight).
    user_emb = AggregateStep(user_emb, nbr_emb, &ws->pad, /*spatial=*/nullptr,
                             batch, k);
  }
  return user_emb;
}

}  // namespace core
}  // namespace odnet
