#include "src/baselines/stp_udgat.h"

#include <algorithm>
#include <map>

#include "src/data/encoding.h"
#include "src/nn/init.h"
#include "src/tensor/ops.h"
#include "src/util/math_util.h"

namespace odnet {
namespace baselines {

using tensor::Tensor;

namespace {

/// Converts per-node scored neighbor candidates into a fixed-fanout view
/// keeping the top-`cap` by weight.
CityGraphView TopKView(
    const std::vector<std::map<int64_t, double>>& weighted_neighbors,
    int64_t cap) {
  CityGraphView view;
  view.num_nodes = static_cast<int64_t>(weighted_neighbors.size());
  view.cap = cap;
  view.neighbors.assign(static_cast<size_t>(view.num_nodes * cap), 0);
  view.pad.assign(static_cast<size_t>(view.num_nodes * cap), 0.0f);
  for (int64_t n = 0; n < view.num_nodes; ++n) {
    std::vector<std::pair<double, int64_t>> ranked;
    for (const auto& [nbr, w] : weighted_neighbors[static_cast<size_t>(n)]) {
      ranked.emplace_back(-w, nbr);  // descending weight, ascending id ties
    }
    std::sort(ranked.begin(), ranked.end());
    int64_t keep = std::min<int64_t>(cap, static_cast<int64_t>(ranked.size()));
    for (int64_t j = 0; j < keep; ++j) {
      size_t idx = static_cast<size_t>(n * cap + j);
      view.neighbors[idx] = ranked[static_cast<size_t>(j)].second;
      view.pad[idx] = 1.0f;
    }
  }
  return view;
}

int64_t RoleCity(const data::Booking& b, bool origin_role) {
  return origin_role ? b.od.origin : b.od.destination;
}

}  // namespace

CityGraphView BuildSpatialView(const std::vector<graph::CityLocation>& locs,
                               int64_t cap) {
  const int64_t n = static_cast<int64_t>(locs.size());
  std::vector<std::map<int64_t, double>> weighted(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double d = util::HaversineKm(locs[static_cast<size_t>(i)].lat,
                                   locs[static_cast<size_t>(i)].lon,
                                   locs[static_cast<size_t>(j)].lat,
                                   locs[static_cast<size_t>(j)].lon);
      weighted[static_cast<size_t>(i)][j] = 1.0 / (1.0 + d);
    }
  }
  return TopKView(weighted, cap);
}

CityGraphView BuildTemporalView(const data::OdDataset& dataset,
                                int64_t num_cities, bool origin_role,
                                int64_t day_window, int64_t cap) {
  std::vector<std::map<int64_t, double>> weighted(
      static_cast<size_t>(num_cities));
  for (const data::UserHistory& h : dataset.histories) {
    for (size_t i = 0; i < h.long_term.size(); ++i) {
      for (size_t j = i + 1; j < h.long_term.size(); ++j) {
        if (h.long_term[j].day - h.long_term[i].day > day_window) break;
        int64_t a = RoleCity(h.long_term[i], origin_role);
        int64_t b = RoleCity(h.long_term[j], origin_role);
        if (a == b) continue;
        weighted[static_cast<size_t>(a)][b] += 1.0;
        weighted[static_cast<size_t>(b)][a] += 1.0;
      }
    }
  }
  return TopKView(weighted, cap);
}

CityGraphView BuildPreferenceView(const data::OdDataset& dataset,
                                  int64_t num_cities, bool origin_role,
                                  int64_t cap) {
  std::vector<std::map<int64_t, double>> weighted(
      static_cast<size_t>(num_cities));
  for (const data::UserHistory& h : dataset.histories) {
    // All pairs of distinct role-cities within one user's history.
    std::vector<int64_t> cities;
    for (const data::Booking& b : h.long_term) {
      cities.push_back(RoleCity(b, origin_role));
    }
    std::sort(cities.begin(), cities.end());
    cities.erase(std::unique(cities.begin(), cities.end()), cities.end());
    for (size_t i = 0; i < cities.size(); ++i) {
      for (size_t j = i + 1; j < cities.size(); ++j) {
        weighted[static_cast<size_t>(cities[i])][cities[j]] += 1.0;
        weighted[static_cast<size_t>(cities[j])][cities[i]] += 1.0;
      }
    }
  }
  return TopKView(weighted, cap);
}

GatLayer::GatLayer(int64_t dim, util::Rng* rng)
    : d_(dim), w_(dim, dim, rng, /*bias=*/false) {
  RegisterModule("w", &w_);
  attn_ = RegisterParameter("attn", nn::PaperGaussianInit({2 * dim, 1}, rng));
}

Tensor GatLayer::Forward(const Tensor& emb, const CityGraphView& view) const {
  ODNET_CHECK_EQ(emb.dim(0), view.num_nodes);
  const int64_t n = view.num_nodes;
  const int64_t cap = view.cap;
  Tensor wh = w_.Forward(emb);  // [n, d]
  Tensor wh_nbr = tensor::EmbeddingLookup(wh, view.neighbors, {n, cap});
  // Broadcast self features over the neighbor slots.
  Tensor wh_self = tensor::Reshape(wh, {n, 1, d_});
  Tensor wh_self_tiled = tensor::Mul(Tensor::Ones({n, cap, 1}), wh_self);
  Tensor pair = tensor::Concat({wh_self_tiled, wh_nbr}, -1);  // [n, cap, 2d]
  Tensor scores = tensor::Reshape(
      tensor::LeakyRelu(tensor::MatMul(
          tensor::Reshape(pair, {n * cap, 2 * d_}), attn_)),
      {n, cap});
  std::vector<float> additive(view.pad.size());
  data::AdditiveMask(view.pad, additive.data());
  scores = tensor::Add(scores, Tensor::FromVector({n, cap}, additive));
  Tensor alpha = tensor::Mul(tensor::Softmax(scores),
                             Tensor::FromVector({n, cap}, view.pad));
  Tensor agg = tensor::SumAxis(
      tensor::Mul(tensor::Reshape(alpha, {n, cap, 1}), wh_nbr), 1);
  return tensor::Relu(agg);
}

StpUdgatNet::StpUdgatNet(int64_t num_users, int64_t num_cities, int64_t dim,
                         CityGraphView spatial, CityGraphView temporal,
                         CityGraphView preference, util::Rng* rng)
    : d_(dim),
      user_embed_(num_users, dim, rng),
      city_embed_(num_cities, dim, rng),
      spatial_(std::move(spatial)),
      temporal_(std::move(temporal)),
      preference_(std::move(preference)),
      gat_spatial_(dim, rng),
      gat_temporal_(dim, rng),
      gat_preference_(dim, rng),
      head_({6 * dim, 2 * dim, 1}, rng) {
  RegisterModule("user_embed", &user_embed_);
  RegisterModule("city_embed", &city_embed_);
  RegisterModule("gat_spatial", &gat_spatial_);
  RegisterModule("gat_temporal", &gat_temporal_);
  RegisterModule("gat_preference", &gat_preference_);
  RegisterModule("head", &head_);
}

Tensor StpUdgatNet::RefineCityTable() const {
  const Tensor& raw = city_embed_.table();
  Tensor fused = tensor::MulScalar(
      tensor::Add(tensor::Add(gat_spatial_.Forward(raw, spatial_),
                              gat_temporal_.Forward(raw, temporal_)),
                  gat_preference_.Forward(raw, preference_)),
      1.0f / 3.0f);
  return tensor::Add(fused, raw);  // residual connection
}

Tensor StpUdgatNet::Forward(const data::OdBatch& batch, bool origin_role) {
  const data::TaskBatch& view = origin_role ? batch.origin : batch.destination;
  const int64_t b = view.batch;
  Tensor refined = RefineCityTable();  // [num_cities, d]

  Tensor e_long = tensor::EmbeddingLookup(refined, view.long_seq,
                                          {b, view.t_long});
  Tensor e_short = tensor::EmbeddingLookup(refined, view.short_seq,
                                           {b, view.t_short});
  // Masked means as the user's exploit/explore preference summaries.
  auto masked_mean = [&](const Tensor& emb, const std::vector<float>& pad,
                         int64_t t) {
    Tensor pad3 = Tensor::FromVector({b, t, 1}, std::vector<float>(pad));
    Tensor summed = tensor::SumAxis(tensor::Mul(emb, pad3), 1);
    std::vector<float> counts(static_cast<size_t>(b), 1.0f);
    for (int64_t i = 0; i < b; ++i) {
      float c = 0.0f;
      for (int64_t j = 0; j < t; ++j) c += pad[static_cast<size_t>(i * t + j)];
      counts[static_cast<size_t>(i)] = std::max(c, 1.0f);
    }
    return tensor::Div(summed, Tensor::FromVector({b, 1}, counts));
  };
  Tensor long_mean = masked_mean(e_long, view.long_pad, view.t_long);
  Tensor short_mean = masked_mean(e_short, view.short_pad, view.t_short);
  Tensor e_user = user_embed_.Forward(view.user_ids);
  Tensor e_cand = tensor::EmbeddingLookup(refined, view.candidate, {b});
  return head_.Forward(tensor::Concat(
      {long_mean, short_mean, e_user, e_cand,
       tensor::Mul(long_mean, e_cand), tensor::Mul(short_mean, e_cand)},
      -1));
}

StpUdgatRecommender::StpUdgatRecommender(
    const SingleTaskConfig& config, std::vector<graph::CityLocation> locations)
    : SingleTaskRecommender("STP-UDGAT", config),
      locations_(std::move(locations)) {}

std::unique_ptr<SingleTaskNetwork> StpUdgatRecommender::BuildNetwork(
    const data::OdDataset& dataset, bool origin_role, util::Rng* rng) {
  ODNET_CHECK_EQ(static_cast<int64_t>(locations_.size()), dataset.num_cities);
  constexpr int64_t kCap = 5;
  constexpr int64_t kDayWindow = 30;
  return std::make_unique<StpUdgatNet>(
      dataset.num_users, dataset.num_cities, config().embed_dim,
      BuildSpatialView(locations_, kCap),
      BuildTemporalView(dataset, dataset.num_cities, origin_role, kDayWindow,
                        kCap),
      BuildPreferenceView(dataset, dataset.num_cities, origin_role, kCap),
      rng);
}

}  // namespace baselines
}  // namespace odnet
