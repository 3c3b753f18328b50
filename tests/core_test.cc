#include <cmath>
#include <cstring>
#include <map>
#include <type_traits>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/hsg_builder.h"
#include "src/core/hsgc.h"
#include "src/core/od_jlc.h"
#include "src/core/odnet_model.h"
#include "src/core/pec.h"
#include "src/core/trainer.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/temporal_features.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/ops.h"

namespace odnet {
namespace core {
namespace {

using tensor::Tensor;

struct Fixture {
  Fixture() : simulator(MakeConfig()), dataset(simulator.Generate()) {
    hsg = BuildHsgFromDataset(dataset, simulator.atlas());
    temporal = std::make_unique<data::TemporalFeatureIndex>(
        dataset, dataset.num_cities, 800);
  }
  static data::FliggyConfig MakeConfig() {
    data::FliggyConfig config;
    config.num_users = 120;
    config.num_cities = 25;
    config.seed = 17;
    return config;
  }
  data::FliggySimulator simulator;
  data::OdDataset dataset;
  std::unique_ptr<graph::HeterogeneousSpatialGraph> hsg;
  std::unique_ptr<data::TemporalFeatureIndex> temporal;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// ---------------------------------------------------------------- HSGC --

TEST(HsgcTest, CityLevelsHaveCorrectShapes) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.exploration_depth = 2;
  util::Rng rng(1);
  Hsgc hsgc(f.hsg.get(), graph::Metapath::kDeparture, config, &rng);
  Hsgc::State state = hsgc.Forward();
  ASSERT_EQ(state.city_levels.size(), 3u);  // levels 0..K
  for (const Tensor& level : state.city_levels) {
    EXPECT_EQ(level.shape(),
              (tensor::Shape{f.hsg->num_cities(), config.embed_dim}));
  }
}

TEST(HsgcTest, EmbedUsersAndCitiesShapes) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  util::Rng rng(2);
  Hsgc hsgc(f.hsg.get(), graph::Metapath::kArrive, config, &rng);
  Hsgc::State state = hsgc.Forward();
  Tensor users = hsgc.EmbedUsers(state, {0, 1, 2});
  EXPECT_EQ(users.shape(), (tensor::Shape{3, config.embed_dim}));
  Tensor cities = hsgc.EmbedCities(state, {0, 1, 2, 3}, {2, 2});
  EXPECT_EQ(cities.shape(), (tensor::Shape{2, 2, config.embed_dim}));
}

TEST(HsgcTest, GradientsReachEmbeddingTables) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  util::Rng rng(3);
  Hsgc hsgc(f.hsg.get(), graph::Metapath::kDeparture, config, &rng);
  Hsgc::State state = hsgc.Forward();
  Tensor users = hsgc.EmbedUsers(state, {0, 1});
  tensor::Sum(tensor::Mul(users, users)).Backward();
  bool any_city_grad = false;
  bool any_user_grad = false;
  for (const auto& [name, p] : hsgc.NamedParameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::fabs(g);
    if (name.find("city_features") != std::string::npos && norm > 0) {
      any_city_grad = true;
    }
    if (name.find("user_features") != std::string::npos && norm > 0) {
      any_user_grad = true;
    }
  }
  // The K-step chain must propagate into both node-type feature tables.
  EXPECT_TRUE(any_city_grad);
  EXPECT_TRUE(any_user_grad);
}

TEST(HsgcTest, DepthOneVersusTwoDiffer) {
  Fixture& f = SharedFixture();
  OdnetConfig c1;
  c1.exploration_depth = 1;
  OdnetConfig c2;
  c2.exploration_depth = 2;
  util::Rng rng1(4);
  util::Rng rng2(4);
  Hsgc h1(f.hsg.get(), graph::Metapath::kDeparture, c1, &rng1);
  Hsgc h2(f.hsg.get(), graph::Metapath::kDeparture, c2, &rng2);
  EXPECT_EQ(h1.Forward().city_levels.size(), 2u);
  EXPECT_EQ(h2.Forward().city_levels.size(), 3u);
}

TEST(HsgcTest, SpatialWeightToggleChangesOutput) {
  Fixture& f = SharedFixture();
  OdnetConfig on;
  OdnetConfig off;
  off.use_spatial_weights = false;
  util::Rng rng_on(5);
  util::Rng rng_off(5);
  Hsgc hsgc_on(f.hsg.get(), graph::Metapath::kDeparture, on, &rng_on);
  Hsgc hsgc_off(f.hsg.get(), graph::Metapath::kDeparture, off, &rng_off);
  Tensor a = hsgc_on.Forward().city_levels.back();
  Tensor b = hsgc_off.Forward().city_levels.back();
  double diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    diff += std::fabs(a.data()[i] - b.data()[i]);
  }
  // At sigma=0.05 init the attention logits are tiny, so the outputs are
  // close — but the spatial weighting must be measurably present.
  EXPECT_GT(diff, 0.0);
}

// ----------------------------------------------------------------- PEC --

TEST(PecTest, OutputShapeAndPadInvariance) {
  OdnetConfig config;
  config.embed_dim = 8;
  config.num_heads = 2;
  util::Rng rng(6);
  Pec pec(config, &rng);
  const int64_t b = 3;
  const int64_t tl = 5;
  const int64_t ts = 4;
  Tensor long_emb = Tensor::Randn({b, tl, 8}, &rng);
  Tensor short_emb = Tensor::Randn({b, ts, 8}, &rng);
  std::vector<float> long_pad(b * tl, 1.0f);
  std::vector<float> short_pad(b * ts, 1.0f);
  // Pad the first two long positions of row 0.
  long_pad[0] = 0.0f;
  long_pad[1] = 0.0f;
  Tensor out = pec.Forward(long_emb, long_pad, short_emb, short_pad);
  EXPECT_EQ(out.shape(), (tensor::Shape{b, 8}));

  // Changing the content of padded positions must not change row 0 output.
  Tensor long2 = long_emb.Clone();
  long2.mutable_data()[0] += 100.0f;
  Tensor out2 = pec.Forward(long2, long_pad, short_emb, short_pad);
  for (int64_t dpos = 0; dpos < 8; ++dpos) {
    EXPECT_NEAR(out.at({0, dpos}), out2.at({0, dpos}), 2e-4f);
  }
}

TEST(PecTest, ShortTermQueryDrivesAttention) {
  // If the short-term window matches one long-term row exactly, that row
  // should receive the largest attention (dot-product focusing, Eq. 4).
  OdnetConfig config;
  config.embed_dim = 4;
  config.num_heads = 1;
  util::Rng rng(7);
  Pec pec(config, &rng);
  Tensor long_emb = Tensor::Randn({1, 3, 4}, &rng);
  Tensor short_emb = Tensor::Randn({1, 2, 4}, &rng);
  std::vector<float> long_pad(3, 1.0f);
  std::vector<float> short_pad(2, 1.0f);
  Tensor out = pec.Forward(long_emb, long_pad, short_emb, short_pad);
  EXPECT_EQ(out.numel(), 4);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST(PecTest, CopiesOfOneRowMatchOneRowBitwise) {
  // PEC reads one row's sequences only, so B copies of a row encode to B
  // copies of that row's v_L, bitwise: the property that lets the model run
  // PEC once per distinct sequence.
  OdnetConfig config;
  util::Rng rng(11);
  Pec pec(config, &rng);
  const int64_t d = config.embed_dim;
  const int64_t tl = config.t_long;
  const int64_t ts = config.t_short;
  tensor::NoGradGuard no_grad;
  Tensor long1 = Tensor::Randn({1, tl, d}, &rng);
  Tensor short1 = Tensor::Randn({1, ts, d}, &rng);
  std::vector<float> long_pad1(static_cast<size_t>(tl), 1.0f);
  std::vector<float> short_pad1(static_cast<size_t>(ts), 1.0f);
  long_pad1[0] = long_pad1[1] = 0.0f;  // a user with tl - 2 bookings
  short_pad1[0] = 0.0f;
  Tensor one = pec.Forward(long1, long_pad1, short1, short_pad1);
  for (int64_t b : {1, 2, 3, 7, 16, 17, 38, 64}) {
    auto tile = [b](const std::vector<float>& row) {
      std::vector<float> out;
      for (int64_t i = 0; i < b; ++i) {
        out.insert(out.end(), row.begin(), row.end());
      }
      return out;
    };
    Tensor long_b = Tensor::FromVector({b, tl, d}, tile(long1.vec()));
    Tensor short_b = Tensor::FromVector({b, ts, d}, tile(short1.vec()));
    Tensor out = pec.Forward(long_b, tile(long_pad1), short_b,
                             tile(short_pad1));
    ASSERT_EQ(out.shape(), (tensor::Shape{b, d}));
    for (int64_t i = 0; i < b; ++i) {
      EXPECT_EQ(std::memcmp(out.data() + i * d, one.data(),
                            static_cast<size_t>(d) * sizeof(float)),
                0)
          << "B=" << b << " row " << i;
    }
  }
}

// -------------------------------------------------------------- O&D-JLC --

TEST(OdJlcTest, OutputShapes) {
  OdnetConfig config;
  util::Rng rng(8);
  OdJlc jlc(20, config, &rng);
  EXPECT_EQ(jlc.num_experts(), 3);
  Tensor q_o = Tensor::Randn({4, 20}, &rng);
  Tensor q_d = Tensor::Randn({4, 20}, &rng);
  OdJlc::Output out = jlc.Forward(q_o, q_d);
  EXPECT_EQ(out.logit_o.shape(), (tensor::Shape{4, 1}));
  EXPECT_EQ(out.logit_d.shape(), (tensor::Shape{4, 1}));
}

TEST(OdJlcTest, TasksSeeBothViews) {
  // The origin logit must depend on q_d (joint learning): perturbing q_d
  // changes logit_o.
  OdnetConfig config;
  util::Rng rng(9);
  OdJlc jlc(10, config, &rng);
  Tensor q_o = Tensor::Randn({2, 10}, &rng);
  Tensor q_d = Tensor::Randn({2, 10}, &rng);
  Tensor q_d2 = tensor::AddScalar(q_d, 1.0f);
  float a = jlc.Forward(q_o, q_d).logit_o.data()[0];
  float b = jlc.Forward(q_o, q_d2).logit_o.data()[0];
  EXPECT_NE(a, b);
}

TEST(OdJlcTest, GatesProduceValidMixtures) {
  // Gate outputs pass through softmax: mixing weights sum to 1 per row.
  // Verified indirectly: with identical experts the mixture equals any
  // single expert's output.
  OdnetConfig config;
  config.num_experts = 1;
  util::Rng rng(10);
  OdJlc jlc(6, config, &rng);
  Tensor q_o = Tensor::Randn({3, 6}, &rng);
  Tensor q_d = Tensor::Randn({3, 6}, &rng);
  OdJlc::Output out = jlc.Forward(q_o, q_d);
  for (int64_t i = 0; i < out.logit_o.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.logit_o.data()[i]));
  }
}

// ----------------------------------------------------------- OdnetModel --

TEST(OdnetModelTest, LossDecreasesOverTraining) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 3;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  TrainStats stats = trainer.Train();
  EXPECT_LT(stats.final_epoch_loss, stats.first_epoch_loss);
  EXPECT_LT(stats.final_epoch_loss, 0.6);
  EXPECT_GT(stats.steps, 0);
}

TEST(OdnetModelTest, ThetaStaysInBounds) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 2;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  EXPECT_NEAR(model.theta(), 0.5, 1e-6);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  trainer.Train();
  EXPECT_GT(model.theta(), 0.3);
  EXPECT_LT(model.theta(), 0.7);
}

TEST(OdnetModelTest, FrozenThetaDoesNotMove) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  config.learnable_theta = false;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  trainer.Train();
  EXPECT_NEAR(model.theta(), 0.5, 1e-6);
}

// Trains a fresh model with the given sparse-update mode and returns its
// stats and every named parameter's final values.
std::pair<TrainStats, std::vector<std::vector<float>>> TrainWithSparseMode(
    const std::string& mode) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  config.sparse_embedding_updates = mode;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  TrainStats stats = trainer.Train();
  std::vector<std::vector<float>> params;
  for (const auto& [name, param] : model.NamedParameters()) {
    params.push_back(param.vec());
  }
  return {stats, std::move(params)};
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(OdnetTrainerTest, LazySparseUpdatesAreDeterministicAndDifferFromDense) {
  const auto lazy = TrainWithSparseMode("lazy");
  const auto twin = TrainWithSparseMode("lazy");
  EXPECT_EQ(lazy.first.first_epoch_loss, twin.first.first_epoch_loss);
  EXPECT_EQ(lazy.first.final_epoch_loss, twin.first.final_epoch_loss);
  ASSERT_EQ(lazy.second.size(), twin.second.size());
  for (size_t p = 0; p < lazy.second.size(); ++p) {
    EXPECT_TRUE(SameBits(lazy.second[p], twin.second[p])) << "param " << p;
  }
  // Lazy skips the decay of untouched active rows, an intentional numerics
  // change: some parameter must end up with different bits.
  const auto dense = TrainWithSparseMode("dense-equivalent");
  ASSERT_EQ(lazy.second.size(), dense.second.size());
  bool any_differs = false;
  for (size_t p = 0; p < lazy.second.size(); ++p) {
    any_differs = any_differs || !SameBits(lazy.second[p], dense.second[p]);
  }
  EXPECT_TRUE(any_differs);
}

TEST(OdnetModelTest, ServeScoresFollowEq11) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(f.dataset.train_samples, 0, 8);
  auto [po, pd] = model.Predict(batch);
  std::vector<double> scores = model.ServeScores(batch);
  const double theta = model.theta();
  for (size_t i = 0; i < scores.size(); ++i) {
    // float32 model outputs blended in double: tolerance at float epsilon.
    EXPECT_NEAR(scores[i], theta * po[i] + (1 - theta) * pd[i], 1e-6);
    EXPECT_GE(po[i], 0.0);
    EXPECT_LE(po[i], 1.0);
  }
}

TEST(OdnetModelTest, NoHsgcVariantRuns) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.use_hsgc = false;
  config.epochs = 1;
  OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  TrainStats stats = trainer.Train();
  EXPECT_LT(stats.final_epoch_loss, 1.0);
}

TEST(OdnetModelTest, PredictIsDeterministicUnderNoGrad) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  config.use_hsgc = false;  // HSGC resamples neighbors per pass
  OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                   config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(f.dataset.train_samples, 0, 4);
  auto [po1, pd1] = model.Predict(batch);
  auto [po2, pd2] = model.Predict(batch);
  for (size_t i = 0; i < po1.size(); ++i) {
    EXPECT_DOUBLE_EQ(po1[i], po2[i]);
    EXPECT_DOUBLE_EQ(pd1[i], pd2[i]);
  }
}

// --------------------------------------- per-batch sequence sharing ---

// Row `r` of a task batch as a batch of one.
data::TaskBatch SliceRow(const data::TaskBatch& src, int64_t r) {
  auto slice = [r](const auto& v, int64_t width) {
    using V = std::decay_t<decltype(v)>;
    return V(v.begin() + r * width, v.begin() + (r + 1) * width);
  };
  data::TaskBatch out;
  out.batch = 1;
  out.t_long = src.t_long;
  out.t_short = src.t_short;
  out.user_ids = slice(src.user_ids, 1);
  out.current_city = slice(src.current_city, 1);
  out.candidate = slice(src.candidate, 1);
  out.labels = slice(src.labels, 1);
  out.long_seq = slice(src.long_seq, src.t_long);
  out.long_pad = slice(src.long_pad, src.t_long);
  out.short_seq = slice(src.short_seq, src.t_short);
  out.short_pad = slice(src.short_pad, src.t_short);
  out.long_day_gap = slice(src.long_day_gap, src.t_long);
  out.long_dist_gap = slice(src.long_dist_gap, src.t_long);
  out.xst = slice(src.xst, data::TemporalFeatureIndex::kDim);
  return out;
}

// Predict on the whole batch must equal Predict on each row alone, bitwise:
// sharing PEC work between rows may not change any row's score.
void ExpectBatchMatchesPerRow(OdnetModel* model, const data::OdBatch& batch) {
  auto [po, pd] = model->Predict(batch);
  ASSERT_EQ(static_cast<int64_t>(po.size()), batch.origin.batch);
  for (int64_t r = 0; r < batch.origin.batch; ++r) {
    data::OdBatch row{SliceRow(batch.origin, r),
                      SliceRow(batch.destination, r)};
    auto [ro, rd] = model->Predict(row);
    EXPECT_EQ(po[static_cast<size_t>(r)], ro[0]) << "row " << r;
    EXPECT_EQ(pd[static_cast<size_t>(r)], rd[0]) << "row " << r;
  }
}

// The first `per_user` train samples of each listed user, in list order;
// users repeat freely (every occurrence takes that user's next sample).
std::vector<data::Sample> SamplesOf(const data::OdDataset& dataset,
                                    const std::vector<int64_t>& users) {
  std::vector<data::Sample> out;
  std::map<int64_t, size_t> taken;
  for (int64_t u : users) {
    size_t skip = taken[u]++;
    for (const data::Sample& s : dataset.train_samples) {
      if (s.user == u && skip-- == 0) {
        out.push_back(s);
        break;
      }
    }
  }
  ODNET_CHECK_EQ(out.size(), users.size());
  return out;
}

// Three users with non-empty long-term histories and at least three train
// samples each.
std::vector<int64_t> ThreeUsersWithHistory(const data::OdDataset& dataset) {
  std::map<int64_t, int> samples_per_user;
  for (const data::Sample& s : dataset.train_samples) {
    ++samples_per_user[s.user];
  }
  std::vector<int64_t> users;
  for (const auto& [u, n] : samples_per_user) {
    if (n >= 3 &&
        dataset.histories[static_cast<size_t>(u)].long_term.size() >= 3) {
      users.push_back(u);
    }
    if (users.size() == 3) break;
  }
  ODNET_CHECK_EQ(users.size(), 3u);
  return users;
}

OdnetConfig NoHsgcConfig() {
  OdnetConfig config;
  config.use_hsgc = false;  // no neighbour sampling: Predict is pure
  return config;
}

TEST(SequenceSharingTest, RepeatedUsersMatchPerRowPredict) {
  Fixture& f = SharedFixture();
  const OdnetConfig config = NoHsgcConfig();
  OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                   config);
  const std::vector<int64_t> abc = ThreeUsersWithHistory(f.dataset);
  const int64_t a = abc[0], b = abc[1], c = abc[2];
  std::vector<data::Sample> samples = SamplesOf(f.dataset, {a, b, a, c, a});
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(samples, 0, samples.size());
  data::DistinctSequences distinct;
  data::BuildDistinctSequences(batch.origin, &distinct);
  ASSERT_EQ(distinct.count, 3);
  EXPECT_EQ(distinct.row_to_distinct, (std::vector<int64_t>{0, 1, 0, 2, 0}));
  ExpectBatchMatchesPerRow(&model, batch);
}

TEST(SequenceSharingTest, SameUserIdWithDifferentSequencesIsNotMerged) {
  // A hand-built batch may repeat a user id over different sequences; each
  // row must be scored on its own sequence (a key on user_ids fails here).
  Fixture& f = SharedFixture();
  const OdnetConfig config = NoHsgcConfig();
  OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                   config);
  const std::vector<int64_t> abc = ThreeUsersWithHistory(f.dataset);
  std::vector<data::Sample> samples = SamplesOf(f.dataset, {abc[0], abc[1]});
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(samples, 0, samples.size());
  batch.origin.user_ids[1] = batch.origin.user_ids[0];
  batch.destination.user_ids[1] = batch.destination.user_ids[0];
  util::Rng rng(3);
  RoleEncoder role(nullptr, graph::Metapath::kDeparture, f.dataset.num_users,
                   f.dataset.num_cities, config, &rng);
  ASSERT_EQ(role.DistinctSequenceRows(batch.origin), 2);
  ExpectBatchMatchesPerRow(&model, batch);
}

TEST(SequenceSharingTest, AllPaddingRowsMerge) {
  Fixture& f = SharedFixture();
  const OdnetConfig config = NoHsgcConfig();
  OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                   config);
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(f.dataset.train_samples, 0, 4);
  // Rows 0-2 become cold-start users (different ids and candidates, no
  // behaviour at all); row 3 keeps its history.
  for (data::TaskBatch* view : {&batch.origin, &batch.destination}) {
    for (int64_t r = 0; r < 3; ++r) {
      view->user_ids[static_cast<size_t>(r)] = r;
      std::fill_n(view->long_seq.begin() + r * view->t_long, view->t_long, 0);
      std::fill_n(view->long_pad.begin() + r * view->t_long, view->t_long,
                  0.0f);
      std::fill_n(view->short_seq.begin() + r * view->t_short, view->t_short,
                  0);
      std::fill_n(view->short_pad.begin() + r * view->t_short, view->t_short,
                  0.0f);
    }
  }
  ASSERT_GT(f.dataset.histories[static_cast<size_t>(
                batch.origin.user_ids[3])].long_term.size(), 0u);
  data::DistinctSequences distinct;
  data::BuildDistinctSequences(batch.origin, &distinct);
  EXPECT_EQ(distinct.count, 2);
  EXPECT_EQ(distinct.row_to_distinct, (std::vector<int64_t>{0, 0, 0, 1}));
  ExpectBatchMatchesPerRow(&model, batch);
}

TEST(SequenceSharingTest, TelemetryCountsRowsAndDistinctRows) {
  Fixture& f = SharedFixture();
  const OdnetConfig config = NoHsgcConfig();
  OdnetModel model(nullptr, f.dataset.num_users, f.dataset.num_cities,
                   config);
  const std::vector<int64_t> abc = ThreeUsersWithHistory(f.dataset);
  std::vector<data::Sample> samples =
      SamplesOf(f.dataset, {abc[0], abc[1], abc[0], abc[2], abc[0]});
  data::BatchEncoder encoder(&f.dataset, f.temporal.get(),
                             data::SequenceSpec{config.t_long,
                                                config.t_short});
  data::OdBatch batch = encoder.EncodeJoint(samples, 0, samples.size());
  auto& reg = telemetry::TelemetryRegistry::Get();
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(false);
  const int64_t rows0 = reg.CounterValue("core.pec.rows");
  model.Predict(batch);  // disabled: counters stay put
  EXPECT_EQ(reg.CounterValue("core.pec.rows"), rows0);
  telemetry::SetEnabled(true);
  const int64_t distinct0 = reg.CounterValue("core.pec.distinct_rows");
  model.Predict(batch);
  telemetry::SetEnabled(was_enabled);
  EXPECT_EQ(reg.CounterValue("core.pec.rows"), rows0 + 10);  // 5 x 2 roles
  EXPECT_EQ(reg.CounterValue("core.pec.distinct_rows"), distinct0 + 6);
}

// Parameterized: the model trains at every paper-relevant depth/head combo.
struct HyperParams {
  int64_t heads;
  int64_t depth;
};

class OdnetHyperTest : public ::testing::TestWithParam<HyperParams> {};

TEST_P(OdnetHyperTest, TrainsAndPredicts) {
  Fixture& f = SharedFixture();
  OdnetConfig config;
  config.epochs = 1;
  config.num_heads = GetParam().heads;
  config.exploration_depth = GetParam().depth;
  OdnetModel model(f.hsg.get(), f.dataset.num_users, f.dataset.num_cities,
                   config);
  OdnetTrainer trainer(&model, &f.dataset, f.temporal.get());
  TrainStats stats = trainer.Train();
  EXPECT_TRUE(std::isfinite(stats.final_epoch_loss));
  EXPECT_LT(stats.final_epoch_loss, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OdnetHyperTest,
    ::testing::Values(HyperParams{1, 1}, HyperParams{2, 2}, HyperParams{4, 2},
                      HyperParams{8, 1}, HyperParams{4, 3}));

// ----------------------------------------------------------- HSG builder --

TEST(HsgBuilderTest, GraphMatchesHistories) {
  Fixture& f = SharedFixture();
  EXPECT_EQ(f.hsg->num_users(), f.dataset.num_users);
  EXPECT_EQ(f.hsg->num_cities(), f.dataset.num_cities);
  // Every booking's origin is a departure neighbor of its user.
  const data::UserHistory& h = f.dataset.histories[0];
  for (const data::Booking& b : h.long_term) {
    const auto& nbrs =
        f.hsg->UserNeighborCities(h.user, graph::Metapath::kDeparture);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), b.od.origin), nbrs.end());
  }
}

TEST(HsgBuilderTest, LabelsNotInGraph) {
  // The next booking must not leak into the HSG: if a user's label origin
  // is not in any of their historical bookings, it is not a neighbor.
  Fixture& f = SharedFixture();
  for (const data::UserHistory& h : f.dataset.histories) {
    bool in_history = false;
    for (const data::Booking& b : h.long_term) {
      if (b.od.origin == h.next_booking.origin) in_history = true;
    }
    if (in_history) continue;
    const auto& nbrs =
        f.hsg->UserNeighborCities(h.user, graph::Metapath::kDeparture);
    EXPECT_EQ(std::find(nbrs.begin(), nbrs.end(), h.next_booking.origin),
              nbrs.end());
  }
}

}  // namespace
}  // namespace core
}  // namespace odnet
