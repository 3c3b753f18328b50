#include "src/baselines/sequential_nets.h"

#include <algorithm>

#include "src/data/encoding.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace baselines {

using tensor::Tensor;

namespace {

/// Masked mean over the time axis: emb [B, T, d], pad [B*T] -> [B, d].
Tensor MaskedMean(const Tensor& emb, const std::vector<float>& pad) {
  const int64_t b = emb.dim(0);
  const int64_t t = emb.dim(1);
  Tensor pad3 = Tensor::FromVector({b, t, 1}, std::vector<float>(pad));
  Tensor summed = tensor::SumAxis(tensor::Mul(emb, pad3), 1);
  std::vector<float> counts(static_cast<size_t>(b), 1.0f);
  for (int64_t i = 0; i < b; ++i) {
    float c = 0.0f;
    for (int64_t j = 0; j < t; ++j) c += pad[static_cast<size_t>(i * t + j)];
    counts[static_cast<size_t>(i)] = std::max(c, 1.0f);
  }
  return tensor::Div(summed, Tensor::FromVector({b, 1}, counts));
}

}  // namespace

// ------------------------------------------------------------------ LSTM --

LstmNet::LstmNet(int64_t num_users, int64_t num_cities, int64_t dim,
                 util::Rng* rng)
    : d_(dim),
      user_embed_(num_users, dim, rng),
      city_embed_(num_cities, dim, rng),
      lstm_(dim, dim, rng),
      head_({6 * dim, 2 * dim, 1}, rng) {
  RegisterModule("user_embed", &user_embed_);
  RegisterModule("city_embed", &city_embed_);
  RegisterModule("lstm", &lstm_);
  RegisterModule("head", &head_);
}

Tensor LstmNet::Forward(const data::OdBatch& batch, bool origin_role) {
  const data::TaskBatch& view = origin_role ? batch.origin : batch.destination;
  const int64_t b = view.batch;
  Tensor e_long = city_embed_.Forward(view.long_seq, {b, view.t_long});
  Tensor e_short = city_embed_.Forward(view.short_seq, {b, view.t_short});
  Tensor h_last = lstm_.ForwardLast(e_long);
  Tensor short_mean = MaskedMean(e_short, view.short_pad);
  Tensor e_user = user_embed_.Forward(view.user_ids);
  Tensor e_cand = city_embed_.Forward(view.candidate);
  // Candidate-history interaction products sharpen the matching signal.
  return head_.Forward(tensor::Concat(
      {h_last, short_mean, e_user, e_cand, tensor::Mul(h_last, e_cand),
       tensor::Mul(short_mean, e_cand)},
      -1));
}

// ------------------------------------------------------------------ STGN --

StgnNet::StgnNet(int64_t num_users, int64_t num_cities, int64_t dim,
                 util::Rng* rng)
    : d_(dim),
      user_embed_(num_users, dim, rng),
      city_embed_(num_cities, dim, rng),
      cell_(dim, dim, rng),
      head_({6 * dim, 2 * dim, 1}, rng) {
  RegisterModule("user_embed", &user_embed_);
  RegisterModule("city_embed", &city_embed_);
  RegisterModule("cell", &cell_);
  RegisterModule("head", &head_);
}

Tensor StgnNet::Forward(const data::OdBatch& batch, bool origin_role) {
  const data::TaskBatch& view = origin_role ? batch.origin : batch.destination;
  const int64_t b = view.batch;
  const int64_t t = view.t_long;
  Tensor e_long = city_embed_.Forward(view.long_seq, {b, t});

  nn::StgnCell::State state = cell_.InitialState(b);
  for (int64_t step = 0; step < t; ++step) {
    Tensor xt = tensor::Reshape(tensor::Slice(e_long, 1, step, 1), {b, d_});
    // Per-step time/distance interval features.
    std::vector<float> dt(static_cast<size_t>(b));
    std::vector<float> dd(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i) {
      dt[static_cast<size_t>(i)] =
          view.long_day_gap[static_cast<size_t>(i * t + step)];
      dd[static_cast<size_t>(i)] =
          view.long_dist_gap[static_cast<size_t>(i * t + step)];
    }
    state = cell_.Forward(xt, Tensor::FromVector({b, 1}, std::move(dt)),
                          Tensor::FromVector({b, 1}, std::move(dd)), state);
  }

  Tensor e_short = city_embed_.Forward(view.short_seq, {b, view.t_short});
  Tensor short_mean = MaskedMean(e_short, view.short_pad);
  Tensor e_user = user_embed_.Forward(view.user_ids);
  Tensor e_cand = city_embed_.Forward(view.candidate);
  return head_.Forward(tensor::Concat(
      {state.h, short_mean, e_user, e_cand, tensor::Mul(state.h, e_cand),
       tensor::Mul(short_mean, e_cand)},
      -1));
}

// ----------------------------------------------------------------- LSTPM --

LstpmNet::LstpmNet(int64_t num_users, int64_t num_cities, int64_t dim,
                   util::Rng* rng)
    : d_(dim),
      user_embed_(num_users, dim, rng),
      city_embed_(num_cities, dim, rng),
      long_lstm_(dim, dim, rng),
      short_lstm_(dim, dim, rng),
      non_local_(dim, rng),
      head_({8 * dim, 2 * dim, 1}, rng) {
  RegisterModule("user_embed", &user_embed_);
  RegisterModule("city_embed", &city_embed_);
  RegisterModule("long_lstm", &long_lstm_);
  RegisterModule("short_lstm", &short_lstm_);
  RegisterModule("non_local", &non_local_);
  RegisterModule("head", &head_);
}

Tensor LstpmNet::Forward(const data::OdBatch& batch, bool origin_role) {
  const data::TaskBatch& view = origin_role ? batch.origin : batch.destination;
  const int64_t b = view.batch;
  Tensor e_long = city_embed_.Forward(view.long_seq, {b, view.t_long});
  Tensor hiddens = long_lstm_.Forward(e_long);  // [B, T, d]
  Tensor h_last = tensor::Reshape(
      tensor::Slice(hiddens, 1, view.t_long - 1, 1), {b, d_});
  // Non-local module: current state attends over the (real) trajectory;
  // front-padded cold-start states are masked out.
  std::vector<float> additive(view.long_pad.size());
  data::AdditiveMask(view.long_pad, additive.data());
  Tensor long_pref = non_local_.Forward(
      h_last, hiddens,
      Tensor::FromVector({b, view.t_long}, std::move(additive)));
  // Geo-dilated short-term pass over the recent click trajectory, plus a
  // direct embedding-space summary of the same window.
  Tensor e_short = city_embed_.Forward(view.short_seq, {b, view.t_short});
  Tensor short_pref = short_lstm_.ForwardLast(e_short);
  Tensor short_mean = MaskedMean(e_short, view.short_pad);
  Tensor e_user = user_embed_.Forward(view.user_ids);
  Tensor e_cand = city_embed_.Forward(view.candidate);
  return head_.Forward(tensor::Concat(
      {long_pref, short_pref, short_mean, e_user, e_cand,
       tensor::Mul(long_pref, e_cand), tensor::Mul(short_pref, e_cand),
       tensor::Mul(short_mean, e_cand)},
      -1));
}

// -------------------------------------------------------------- STOD-PPA --

StodPpaNet::StodPpaNet(int64_t num_users, int64_t num_cities, int64_t dim,
                       util::Rng* rng)
    : d_(dim),
      user_embed_(num_users, dim, rng),
      city_embed_(num_cities, dim, rng),
      origin_lstm_(dim, dim, rng),
      dest_lstm_(dim, dim, rng),
      same_attention_(dim, rng),
      cross_attention_(dim, rng),
      head_({8 * dim, 2 * dim, 1}, rng) {
  RegisterModule("user_embed", &user_embed_);
  RegisterModule("city_embed", &city_embed_);
  RegisterModule("origin_lstm", &origin_lstm_);
  RegisterModule("dest_lstm", &dest_lstm_);
  RegisterModule("same_attention", &same_attention_);
  RegisterModule("cross_attention", &cross_attention_);
  RegisterModule("head", &head_);
}

Tensor StodPpaNet::Forward(const data::OdBatch& batch, bool origin_role) {
  const data::TaskBatch& own = origin_role ? batch.origin : batch.destination;
  const data::TaskBatch& other = origin_role ? batch.destination : batch.origin;
  const int64_t b = own.batch;

  Tensor e_own = city_embed_.Forward(own.long_seq, {b, own.t_long});
  Tensor e_other = city_embed_.Forward(other.long_seq, {b, other.t_long});
  // Origin-aware recurrence over both sequences (OO and DD relationships).
  Tensor h_own = origin_role ? origin_lstm_.Forward(e_own)
                             : dest_lstm_.Forward(e_own);
  Tensor h_other = origin_role ? dest_lstm_.Forward(e_other)
                               : origin_lstm_.Forward(e_other);
  Tensor h_own_last = tensor::Reshape(
      tensor::Slice(h_own, 1, own.t_long - 1, 1), {b, d_});

  // Personalized preference attention: the candidate embedding queries the
  // own-role states (exploitation) and the other-role states (the OD
  // relationship).
  Tensor e_cand = city_embed_.Forward(own.candidate);
  Tensor pref_same = same_attention_.Forward(e_cand, h_own);
  Tensor pref_cross = cross_attention_.Forward(e_cand, h_other);

  Tensor e_short = city_embed_.Forward(own.short_seq, {b, own.t_short});
  Tensor short_mean = MaskedMean(e_short, own.short_pad);
  Tensor e_user = user_embed_.Forward(own.user_ids);
  return head_.Forward(tensor::Concat(
      {pref_same, pref_cross, h_own_last, short_mean, e_user, e_cand,
       tensor::Mul(pref_same, e_cand), tensor::Mul(short_mean, e_cand)},
      -1));
}

// -------------------------------------------------- recommender factories --

std::unique_ptr<SingleTaskNetwork> LstmRecommender::BuildNetwork(
    const data::OdDataset& dataset, bool origin_role, util::Rng* rng) {
  (void)origin_role;
  return std::make_unique<LstmNet>(dataset.num_users, dataset.num_cities,
                                   config().embed_dim, rng);
}

std::unique_ptr<SingleTaskNetwork> StgnRecommender::BuildNetwork(
    const data::OdDataset& dataset, bool origin_role, util::Rng* rng) {
  (void)origin_role;
  return std::make_unique<StgnNet>(dataset.num_users, dataset.num_cities,
                                   config().embed_dim, rng);
}

std::unique_ptr<SingleTaskNetwork> LstpmRecommender::BuildNetwork(
    const data::OdDataset& dataset, bool origin_role, util::Rng* rng) {
  (void)origin_role;
  return std::make_unique<LstpmNet>(dataset.num_users, dataset.num_cities,
                                    config().embed_dim, rng);
}

std::unique_ptr<SingleTaskNetwork> StodPpaRecommender::BuildNetwork(
    const data::OdDataset& dataset, bool origin_role, util::Rng* rng) {
  (void)origin_role;
  return std::make_unique<StodPpaNet>(dataset.num_users, dataset.num_cities,
                                      config().embed_dim, rng);
}

}  // namespace baselines
}  // namespace odnet
