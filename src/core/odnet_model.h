#ifndef ODNET_CORE_ODNET_MODEL_H_
#define ODNET_CORE_ODNET_MODEL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/hsgc.h"
#include "src/core/od_jlc.h"
#include "src/core/pec.h"
#include "src/data/encoding.h"
#include "src/graph/hsg.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/tensor/graph_plan.h"
#include "src/util/rng.h"

namespace odnet {
namespace core {

/// \brief One role-view encoder of Fig. 3: an (optional) HSGC copy plus a
/// PEC copy. Produces the task representation
///   q = [v_L ; e_user ; e_lbs ; e_candidate ; x_st]
/// for either the origin-aware or the destination-aware path.
class RoleEncoder : public nn::Module {
 public:
  /// With config.use_hsgc, embeddings come from the HSGC over `graph` and
  /// metapath `rho`; otherwise (the -G variants) ids embed directly.
  RoleEncoder(const graph::HeterogeneousSpatialGraph* graph,
              graph::Metapath rho, int64_t num_users, int64_t num_cities,
              const OdnetConfig& config, util::Rng* rng);

  /// Encodes a role-view batch into q: [B, q_dim()], running the HSGC with
  /// stochastic sampling (the training path). PEC runs once per distinct
  /// behaviour sequence of the batch (data::DistinctSequences) and v_L is
  /// gathered back to the B rows. When a plan capture is active, the
  /// caller must keep `batch` alive and address-stable across replays (a
  /// bound batch).
  tensor::Tensor Forward(const data::TaskBatch& batch);

  /// The serving path: like Forward, but e_user, e_lbs, e_cand and PEC's
  /// city sequences are gathered from the node tables, so no HSGC runs.
  /// With an HSGC the tables are the BuildServingTables snapshot, which
  /// must exist; without one they are the live id embeddings and this
  /// equals Forward. Same capture contract as Forward.
  tensor::Tensor ForwardServing(const data::TaskBatch& batch);

  /// Snapshots the HSGC's level-K output of every user and city from the
  /// current weights (Hsgc::BuildInferenceTables) and returns it. Requires
  /// an HSGC.
  const Hsgc::Tables& BuildServingTables();

  /// Releases the snapshot (no-op without one).
  void DropServingTables() { tables_ = Hsgc::Tables{}; }

  /// True once BuildServingTables has run and the snapshot was not dropped.
  bool has_serving_tables() const { return tables_.users.defined(); }

  /// Number of distinct behaviour sequences in `batch` (U): the leading
  /// dimension PEC runs at, hence part of a serving plan's signature.
  int64_t DistinctSequenceRows(const data::TaskBatch& batch);

  /// Reseeds the HSGC neighbor-sampling stream (no-op without an HSGC).
  void SeedSampleStream(uint64_t seed);

  /// 4 embeddings of width d plus the temporal-statistics block.
  int64_t q_dim() const;

 private:
  /// The part of Forward shared by both paths: `e_user` is [B, d] and
  /// `city_table` [num_cities, d] is what every city id embeds through.
  tensor::Tensor Encode(const data::TaskBatch& batch,
                        const tensor::Tensor& e_user,
                        const tensor::Tensor& city_table);

  OdnetConfig config_;
  int64_t d_;
  std::unique_ptr<Hsgc> hsgc_;                 // present iff use_hsgc
  std::unique_ptr<nn::Embedding> user_embed_;  // fallback (no HSGC)
  std::unique_ptr<nn::Embedding> city_embed_;  // fallback (no HSGC)
  Pec pec_;
  Hsgc::Tables tables_;  // serving snapshot; undefined until built
  // Distinct sequences of the batch being encoded. Rebuilt by a host stage
  // of every Forward (and plan replay); the PEC inputs and the v_L gather
  // read its vectors, whose addresses never change.
  data::DistinctSequences seq_ws_;
};

/// \brief The full ODNET model (paper Fig. 3): origin-aware and
/// destination-aware HSGC+PEC copies feeding the O&D joint learning
/// component, trained with the jointly-weighted loss of Eq. 8-10 and
/// served with the blended score of Eq. 11.
class OdnetModel : public nn::Module {
 public:
  /// `graph` may be null only when config.use_hsgc is false (ODNET-G).
  OdnetModel(const graph::HeterogeneousSpatialGraph* graph, int64_t num_users,
             int64_t num_cities, const OdnetConfig& config);

  struct Output {
    tensor::Tensor logit_o;  // [B, 1]
    tensor::Tensor logit_d;  // [B, 1]
  };

  /// Forward pass over a joint (origin-view, destination-view) batch.
  Output Forward(const data::OdBatch& batch);

  /// Training loss (Eq. 8): theta * L_O + (1 - theta) * L_D with the BCE
  /// task losses of Eq. 9-10.
  tensor::Tensor Loss(const data::OdBatch& batch);

  /// Inference (no tape): per-sample (p_O, p_D) probabilities. Eager, with
  /// op results leased from the thread's BufferArena for the duration of
  /// the call. Reads the HSGC node tables (RoleEncoder::ForwardServing),
  /// building them first when missing, so a row's score is a function of
  /// the weights and the row alone.
  std::pair<std::vector<double>, std::vector<double>> Predict(
      const data::OdBatch& batch);

  /// Like Predict, but served through a captured GraphPlan: the first batch
  /// of each shape signature (batch size x t_long x t_short x distinct
  /// sequence rows per role) is an eager capture, subsequent same-shape
  /// batches replay the plan with zero graph construction or storage
  /// allocation. Bitwise identical to Predict. A shape change falls back to
  /// an eager capture of a new plan. A serving request (one user x its
  /// candidates) always has one distinct row per role, so the signature
  /// count does not grow with it. With config.capture_serving_plans off
  /// this IS Predict.
  std::pair<std::vector<double>, std::vector<double>> PredictPlanned(
      const data::OdBatch& batch);

  /// Counters and memory-plan stats of the serving plan cache. Mirrored
  /// into the telemetry registry as `serving.plan_cache.{hits,misses,
  /// recaptures}` plus `serving.plan_cache.memory.*` gauges — snapshot
  /// consumers should read those rather than this struct.
  struct ServingPlanStats {
    int64_t captures = 0;    // plans captured (distinct shape signatures)
    int64_t replays = 0;     // batches served by plan replay
    int64_t recaptures = 0;  // captures of a previously-seen signature
                             // (i.e. after InvalidateServingPlans)
    tensor::MemoryPlanStats memory;  // of the most recent capture
  };
  const ServingPlanStats& serving_plan_stats() const {
    return serving_plan_stats_;
  }

  /// Drops all captured serving plans and the HSGC node tables: the next
  /// Predict/PredictPlanned rebuilds the tables from the current weights
  /// and re-captures. Call after changing the weights outside
  /// OdnetTrainer::Train (which calls it), or the tables serve the old ones.
  void InvalidateServingPlans();

  /// Serving score of Eq. 11: theta * p_O + (1 - theta) * p_D.
  std::vector<double> ServeScores(const data::OdBatch& batch);

  /// Reseeds both role encoders' HSGC sampling streams as a deterministic
  /// function of `seed` (distinct sub-streams per role). Data-parallel
  /// trainer workers call this on their replica before each batch slice so
  /// neighbor sampling is a function of (epoch, step, slice) alone. No-op
  /// for the -G variants.
  void SeedSampleStreams(uint64_t seed);

  /// Current value of the (learnable) loss weight theta.
  double theta() const;

  const OdnetConfig& config() const { return config_; }

 private:
  /// One cached serving plan: the plan plus the bound batch object its host
  /// closures point at (unique_ptr for address stability across map ops).
  struct ServingPlan {
    std::unique_ptr<data::OdBatch> bound;
    std::shared_ptr<tensor::GraphPlan> plan;
  };

  /// Forward over the serving path (RoleEncoder::ForwardServing).
  Output ForwardServing(const data::OdBatch& batch);

  /// Builds both roles' node tables unless they exist (HSGC variants only).
  /// Never under a plan capture: the build would be recorded.
  void EnsureServingTables();

  OdnetConfig config_;
  util::Rng init_rng_;  // initialization stream; must precede the encoders
  RoleEncoder origin_encoder_;
  RoleEncoder destination_encoder_;
  OdJlc jlc_;
  tensor::Tensor theta_raw_;  // theta = 0.3 + 0.4*sigmoid(raw), in (0.3, 0.7)

  std::map<std::string, ServingPlan> serving_plans_;  // by shape signature
  // Signatures ever captured; distinguishes a recapture (post-invalidation)
  // from a first-time miss.
  std::set<std::string> seen_signatures_;
  ServingPlanStats serving_plan_stats_;
};

}  // namespace core
}  // namespace odnet

#endif  // ODNET_CORE_ODNET_MODEL_H_
