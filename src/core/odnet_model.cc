#include "src/core/odnet_model.h"

#include <algorithm>
#include <cmath>

#include "src/data/temporal_features.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/graph_plan.h"
#include "src/tensor/ops.h"
#include "src/tensor/plan_optimizer.h"

namespace odnet {
namespace core {

using tensor::Tensor;

RoleEncoder::RoleEncoder(const graph::HeterogeneousSpatialGraph* graph,
                         graph::Metapath rho, int64_t num_users,
                         int64_t num_cities, const OdnetConfig& config,
                         util::Rng* rng)
    : config_(config), d_(config.embed_dim), pec_(config, rng) {
  if (config_.use_hsgc) {
    ODNET_CHECK(graph != nullptr) << "use_hsgc requires a finalized HSG";
    hsgc_ = std::make_unique<Hsgc>(graph, rho, config, rng);
    RegisterModule("hsgc", hsgc_.get());
  } else {
    user_embed_ = std::make_unique<nn::Embedding>(num_users, d_, rng);
    city_embed_ = std::make_unique<nn::Embedding>(num_cities, d_, rng);
    RegisterModule("user_embed", user_embed_.get());
    RegisterModule("city_embed", city_embed_.get());
  }
  RegisterModule("pec", &pec_);
}

int64_t RoleEncoder::q_dim() const {
  return 4 * d_ + data::TemporalFeatureIndex::kDim;
}

void RoleEncoder::SeedSampleStream(uint64_t seed) {
  if (hsgc_ != nullptr) hsgc_->SeedSampleStream(seed);
}

namespace {

// Share of PEC work saved by sequence sharing: rows encoded vs distinct
// sequences actually run through PEC.
struct PecInstruments {
  telemetry::Counter* rows;
  telemetry::Counter* distinct_rows;

  static PecInstruments& Get() {
    static PecInstruments* in = [] {
      auto& reg = telemetry::TelemetryRegistry::Get();
      auto* i = new PecInstruments();
      i->rows = reg.GetCounter("core.pec.rows");
      i->distinct_rows = reg.GetCounter("core.pec.distinct_rows");
      return i;
    }();
    return *in;
  }
};

}  // namespace

int64_t RoleEncoder::DistinctSequenceRows(const data::TaskBatch& batch) {
  data::BuildDistinctSequences(batch, &seq_ws_);
  return seq_ws_.count;
}

Tensor RoleEncoder::Forward(const data::TaskBatch& batch) {
  if (hsgc_ == nullptr) {
    return Encode(batch, user_embed_->Forward(batch.user_ids),
                  city_embed_->table());
  }
  Hsgc::State state = hsgc_->Forward();
  Tensor e_user = hsgc_->EmbedUsers(state, batch.user_ids);
  return Encode(batch, e_user, state.city_levels.back());
}

Tensor RoleEncoder::ForwardServing(const data::TaskBatch& batch) {
  const Tensor& users = hsgc_ != nullptr ? tables_.users : user_embed_->table();
  const Tensor& cities =
      hsgc_ != nullptr ? tables_.cities : city_embed_->table();
  ODNET_CHECK(users.defined()) << "BuildServingTables() has not run";
  return Encode(batch,
                tensor::EmbeddingLookup(users, batch.user_ids, {batch.batch}),
                cities);
}

const Hsgc::Tables& RoleEncoder::BuildServingTables() {
  ODNET_CHECK(hsgc_ != nullptr);
  tables_ = hsgc_->BuildInferenceTables();
  return tables_;
}

Tensor RoleEncoder::Encode(const data::TaskBatch& batch, const Tensor& e_user,
                           const Tensor& city_table) {
  const int64_t b = batch.batch;
  ODNET_CHECK_GT(b, 0);
  // Spatial semantic embeddings of every id-typed input (Fig. 3's e^X_*).
  Tensor e_lbs = tensor::EmbeddingLookup(city_table, batch.current_city, {b});
  Tensor e_cand = tensor::EmbeddingLookup(city_table, batch.candidate, {b});

  // PEC: the attention-focused user preference vector v_L. It reads only
  // the behaviour sequences, never the candidate, so it runs on the U
  // distinct sequences of the batch (a serving request: one user x all its
  // candidates, U = 1) and v_L is gathered back to the B rows. The dedup is
  // a host stage, so a plan replay rebuilds it from the bound batch.
  data::DistinctSequences* ws = &seq_ws_;
  const data::TaskBatch* bp = &batch;
  tensor::PlanHostStage([ws, bp]() {
    data::BuildDistinctSequences(*bp, ws);
    if (telemetry::Enabled()) {
      PecInstruments::Get().rows->Add(bp->batch);
      PecInstruments::Get().distinct_rows->Add(ws->count);
    }
  });
  const int64_t u = ws->count;
  Tensor e_long =
      tensor::EmbeddingLookup(city_table, ws->long_seq, {u, batch.t_long});
  Tensor e_short =
      tensor::EmbeddingLookup(city_table, ws->short_seq, {u, batch.t_short});
  Tensor v_l_distinct =
      pec_.Forward(e_long, ws->long_pad, e_short, ws->short_pad);
  Tensor v_l = tensor::EmbeddingLookup(v_l_distinct, ws->row_to_distinct, {b});

  // q = [v_L ; e_user ; e_lbs ; e_cand ; x_st]  (Fig. 4, bottom).
  const std::vector<float>* xst = &batch.xst;
  Tensor x_st = tensor::HostTensor(
      {b, data::TemporalFeatureIndex::kDim},
      [xst](float* out) { std::copy(xst->begin(), xst->end(), out); });
  return tensor::Concat({v_l, e_user, e_lbs, e_cand, x_st}, -1);
}

OdnetModel::OdnetModel(const graph::HeterogeneousSpatialGraph* graph,
                       int64_t num_users, int64_t num_cities,
                       const OdnetConfig& config)
    : config_(config),
      init_rng_(config.seed),
      origin_encoder_(graph, graph::Metapath::kDeparture, num_users,
                      num_cities, config, &init_rng_),
      destination_encoder_(graph, graph::Metapath::kArrive, num_users,
                           num_cities, config, &init_rng_),
      jlc_(origin_encoder_.q_dim(), config, &init_rng_) {
  RegisterModule("origin_encoder", &origin_encoder_);
  RegisterModule("destination_encoder", &destination_encoder_);
  RegisterModule("jlc", &jlc_);
  // theta = sigmoid(theta_raw); raw 0 -> theta 0.5 at start.
  theta_raw_ = Tensor::Zeros({});
  if (config_.learnable_theta) {
    theta_raw_ = RegisterParameter("theta_raw", theta_raw_);
  }
}

OdnetModel::Output OdnetModel::Forward(const data::OdBatch& batch) {
  Tensor q_o = origin_encoder_.Forward(batch.origin);
  Tensor q_d = destination_encoder_.Forward(batch.destination);
  OdJlc::Output head = jlc_.Forward(q_o, q_d);
  return Output{head.logit_o, head.logit_d};
}

OdnetModel::Output OdnetModel::ForwardServing(const data::OdBatch& batch) {
  Tensor q_o = origin_encoder_.ForwardServing(batch.origin);
  Tensor q_d = destination_encoder_.ForwardServing(batch.destination);
  OdJlc::Output head = jlc_.Forward(q_o, q_d);
  return Output{head.logit_o, head.logit_d};
}

namespace {

// One build is one model version: both roles' tables. The gauges describe
// the latest build; an exactly-zero entry is a node whose last ReLU
// (Algorithm 1 line 5) output nothing in that dimension.
struct TableInstruments {
  telemetry::Counter* builds;
  telemetry::Gauge* entries;
  telemetry::Gauge* zero_entries;

  static TableInstruments& Get() {
    static TableInstruments* in = [] {
      auto& reg = telemetry::TelemetryRegistry::Get();
      auto* i = new TableInstruments();
      i->builds = reg.GetCounter("core.hsgc.table_builds");
      i->entries = reg.GetGauge("core.hsgc.table_entries");
      i->zero_entries = reg.GetGauge("core.hsgc.table_zero_entries");
      return i;
    }();
    return *in;
  }
};

}  // namespace

void OdnetModel::EnsureServingTables() {
  if (!config_.use_hsgc || origin_encoder_.has_serving_tables()) return;
  int64_t entries = 0;
  int64_t zeros = 0;
  for (RoleEncoder* encoder : {&origin_encoder_, &destination_encoder_}) {
    const Hsgc::Tables& tables = encoder->BuildServingTables();
    for (const Tensor* t : {&tables.users, &tables.cities}) {
      entries += t->numel();
      zeros += std::count(t->data(), t->data() + t->numel(), 0.0f);
    }
  }
  TableInstruments& in = TableInstruments::Get();
  in.builds->Add(1);
  in.entries->Set(entries);
  in.zero_entries->Set(zeros);
}

Tensor OdnetModel::Loss(const data::OdBatch& batch) {
  Output out = Forward(batch);
  const int64_t b = batch.origin.batch;
  const std::vector<float>* lo = &batch.origin.labels;
  const std::vector<float>* ld = &batch.destination.labels;
  Tensor labels_o = tensor::HostTensor(
      {b, 1}, [lo](float* o) { std::copy(lo->begin(), lo->end(), o); });
  Tensor labels_d = tensor::HostTensor(
      {b, 1}, [ld](float* o) { std::copy(ld->begin(), ld->end(), o); });
  Tensor loss_o = tensor::BceWithLogits(out.logit_o, labels_o);  // Eq. 9
  Tensor loss_d = tensor::BceWithLogits(out.logit_d, labels_d);  // Eq. 10
  // Eq. 8 with learnable theta. Unconstrained, d(Loss)/d(theta) =
  // L_O - L_D drives theta to whichever task currently has the smaller
  // loss, starving the other tower (winner-take-all collapse); bounding
  // theta to [0.3, 0.7] keeps it learnable without letting either task
  // loss reach weight zero.
  Tensor theta = tensor::AddScalar(
      tensor::MulScalar(tensor::Sigmoid(theta_raw_), 0.4f), 0.3f);
  Tensor one_minus = tensor::AddScalar(tensor::Neg(theta), 1.0f);
  return tensor::Add(tensor::Mul(theta, loss_o),
                     tensor::Mul(one_minus, loss_d));
}

std::pair<std::vector<double>, std::vector<double>> OdnetModel::Predict(
    const data::OdBatch& batch) {
  EnsureServingTables();
  tensor::NoGradGuard guard;
  // Op results lease from the thread's arena for the duration of the call;
  // the probabilities are copied out before the scope resets it.
  tensor::ArenaScope arena(tensor::BufferArena::ThreadLocal());
  Output out = ForwardServing(batch);
  Tensor p_o = tensor::Sigmoid(out.logit_o);
  Tensor p_d = tensor::Sigmoid(out.logit_d);
  std::vector<double> po(p_o.vec().begin(), p_o.vec().end());
  std::vector<double> pd(p_d.vec().begin(), p_d.vec().end());
  return {std::move(po), std::move(pd)};
}

namespace {

// `distinct_o`/`distinct_d` are each role's distinct sequence count: PEC
// runs at that leading dimension, so it is part of the plan's shape.
std::string ShapeSignature(const data::OdBatch& batch, int64_t distinct_o,
                           int64_t distinct_d) {
  // The fusion state is part of the signature: a plan captured with fusion
  // on must never be served to a caller that expects an unfused plan (the
  // A/B bench legs and ODNET_PLAN_FUSION=0 runs rely on this).
  return std::to_string(batch.origin.batch) + "x" +
         std::to_string(batch.origin.t_long) + "x" +
         std::to_string(batch.origin.t_short) + "x" +
         std::to_string(distinct_o) + "x" + std::to_string(distinct_d) +
         (tensor::PlanFusionEnabled() ? "|f1" : "|f0");
}

// Registry-facing plan-cache instruments (ISSUE 7): hits are replays,
// misses are first-time captures, recaptures are captures of a signature
// seen before (only possible after InvalidateServingPlans).
struct PlanCacheInstruments {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* recaptures;

  static PlanCacheInstruments& Get() {
    static PlanCacheInstruments* in = [] {
      auto& reg = telemetry::TelemetryRegistry::Get();
      auto* i = new PlanCacheInstruments();
      i->hits = reg.GetCounter("serving.plan_cache.hits");
      i->misses = reg.GetCounter("serving.plan_cache.misses");
      i->recaptures = reg.GetCounter("serving.plan_cache.recaptures");
      return i;
    }();
    return *in;
  }
};

// MemoryPlanStats of the most recent capture, surfaced as gauges (high
// water tracks the largest plan captured so far).
void PublishMemoryPlanStats(const tensor::MemoryPlanStats& m) {
  auto& reg = telemetry::TelemetryRegistry::Get();
  reg.GetGauge("serving.plan_cache.memory.num_nodes")->Set(m.num_nodes);
  reg.GetGauge("serving.plan_cache.memory.num_buffers")->Set(m.num_buffers);
  reg.GetGauge("serving.plan_cache.memory.peak_bytes")->Set(m.peak_bytes);
  reg.GetGauge("serving.plan_cache.memory.requested_bytes")
      ->Set(m.requested_bytes);
  reg.GetGauge("serving.plan_cache.memory.fused_nodes")->Set(m.fused_nodes);
  reg.GetGauge("serving.plan_cache.memory.folded_nodes")->Set(m.folded_nodes);
  reg.GetGauge("serving.plan_cache.memory.elided_bytes")->Set(m.elided_bytes);
}

}  // namespace

std::pair<std::vector<double>, std::vector<double>> OdnetModel::PredictPlanned(
    const data::OdBatch& batch) {
  if (!config_.capture_serving_plans) return Predict(batch);
  // Plans gather from the tables, so they are built outside any capture.
  EnsureServingTables();
  const std::string sig =
      ShapeSignature(batch, origin_encoder_.DistinctSequenceRows(batch.origin),
                     destination_encoder_.DistinctSequenceRows(
                         batch.destination));
  auto it = serving_plans_.find(sig);
  if (it == serving_plans_.end()) {
    // First batch of this shape: capture (which IS one eager run).
    ServingPlan entry;
    entry.bound = std::make_unique<data::OdBatch>(batch);
    const data::OdBatch* bound = entry.bound.get();
    std::vector<Tensor> outs;
    entry.plan = tensor::GraphPlan::CaptureInference(
        [this, bound]() {
          Output out = ForwardServing(*bound);
          return std::vector<Tensor>{tensor::Sigmoid(out.logit_o),
                                     tensor::Sigmoid(out.logit_d)};
        },
        &outs);
    ++serving_plan_stats_.captures;
    serving_plan_stats_.memory = entry.plan->memory_stats();
    const bool seen_before = !seen_signatures_.insert(sig).second;
    if (seen_before) {
      ++serving_plan_stats_.recaptures;
      PlanCacheInstruments::Get().recaptures->Add(1);
    } else {
      PlanCacheInstruments::Get().misses->Add(1);
    }
    PublishMemoryPlanStats(serving_plan_stats_.memory);
    serving_plans_.emplace(sig, std::move(entry));
    std::vector<double> po(outs[0].vec().begin(), outs[0].vec().end());
    std::vector<double> pd(outs[1].vec().begin(), outs[1].vec().end());
    return {std::move(po), std::move(pd)};
  }
  // Steady state: refresh the bound batch in place and replay.
  data::CopyOdBatchContents(batch, it->second.bound.get());
  PlanCacheInstruments::Get().hits->Add(1);
  const std::vector<Tensor>& outs = it->second.plan->Replay();
  ++serving_plan_stats_.replays;
  std::vector<double> po(outs[0].vec().begin(), outs[0].vec().end());
  std::vector<double> pd(outs[1].vec().begin(), outs[1].vec().end());
  return {std::move(po), std::move(pd)};
}

void OdnetModel::InvalidateServingPlans() {
  serving_plans_.clear();
  origin_encoder_.DropServingTables();
  destination_encoder_.DropServingTables();
}

std::vector<double> OdnetModel::ServeScores(const data::OdBatch& batch) {
  auto [po, pd] = Predict(batch);
  const double t = theta();
  std::vector<double> scores(po.size());
  for (size_t i = 0; i < po.size(); ++i) {
    scores[i] = t * po[i] + (1.0 - t) * pd[i];  // Eq. 11
  }
  return scores;
}

void OdnetModel::SeedSampleStreams(uint64_t seed) {
  // Distinct sub-stream per role so the two encoders never sample from the
  // same sequence (tags 1/2 mirror the O/D ordering of Fig. 3).
  origin_encoder_.SeedSampleStream(util::Rng::StreamSeed(seed, 1));
  destination_encoder_.SeedSampleStream(util::Rng::StreamSeed(seed, 2));
}

double OdnetModel::theta() const {
  double sig =
      1.0 / (1.0 + std::exp(-static_cast<double>(theta_raw_.data()[0])));
  return 0.3 + 0.4 * sig;
}

}  // namespace core
}  // namespace odnet
