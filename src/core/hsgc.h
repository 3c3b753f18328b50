#ifndef ODNET_CORE_HSGC_H_
#define ODNET_CORE_HSGC_H_

#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/graph/hsg.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace odnet {
namespace core {

/// \brief Heterogeneous Spatial Graph Component (paper Sec. IV-A,
/// Algorithm 1, Eq. 1-2).
///
/// One copy is origin-aware (metapath rho_1 over departure edges) and one
/// destination-aware (rho_2 over arrive edges). Per forward pass it runs
/// the K-step neighborhood aggregation of Algorithm 1:
///
///   e^0_v   = M_T h_v                                 (line 1)
///   e^k_N   = sum_j alpha^{k-1}_ij e^{k-1}_j          (line 4, Eq. 1)
///   e^k_v   = ReLU(W^k [e^{k-1}_v ; e^k_N])           (line 5)
///
/// City-level aggregation runs over the full (small) city set — exactly the
/// "for each v in V" loop — while user embeddings are computed lazily for
/// the batch's users, since no other node consumes them. Neighborhoods are
/// capped at the configured size (5, following [37]).
///
/// Training samples neighborhoods afresh each pass from one mutable stream,
/// as the paper does. Inference (Sampling::kPure) draws node v's level-k
/// neighbors from a stream seeded by (config.seed, role, node kind, k, v),
/// so its output is a function of the weights alone. Serving never runs
/// this aggregation per request: BuildInferenceTables snapshots the level-K
/// embedding of every user and city once per model version, and the
/// serving path gathers rows from those tables (DESIGN.md §4).
class Hsgc : public nn::Module {
 public:
  /// `graph` must be finalized and outlive this component.
  Hsgc(const graph::HeterogeneousSpatialGraph* graph, graph::Metapath rho,
       const OdnetConfig& config, util::Rng* rng);

  /// How neighbors are drawn when a node has more than neighbor_cap.
  enum class Sampling {
    kStochastic,  // training: fresh draws from the shared sample stream
    kPure,        // inference: a fixed draw per (role, kind, level, node)
  };

  /// Per-pass state: the level-k city embedding tables (k = 0..K).
  struct State {
    std::vector<tensor::Tensor> city_levels;  // each [num_cities, d]
  };

  /// Runs the city-side K-step aggregation (Algorithm 1 over city nodes).
  State Forward(Sampling sampling = Sampling::kStochastic);

  /// Level-K spatial semantic embeddings of `city_ids` laid out as
  /// `index_shape` (output index_shape + [d]). A plain gather from the
  /// state's top table.
  tensor::Tensor EmbedCities(const State& state,
                             const std::vector<int64_t>& city_ids,
                             const tensor::Shape& index_shape) const;

  /// Level-K embeddings of `user_ids` ([N, d]): runs the user-side chain
  /// of Algorithm 1 against the state's city tables. When a plan capture is
  /// active, the caller must keep the `user_ids` vector *object* alive and
  /// address-stable across replays (a bound-batch field), and call this at
  /// most once per capture (the per-level sampling workspaces are members).
  /// `sampling` must match the one `state` was built with.
  tensor::Tensor EmbedUsers(const State& state,
                            const std::vector<int64_t>& user_ids,
                            Sampling sampling = Sampling::kStochastic);

  /// Level-K embeddings of every node, one row per id.
  struct Tables {
    tensor::Tensor users;   // [num_users, d]
    tensor::Tensor cities;  // [num_cities, d]
  };

  /// Runs Forward + EmbedUsers over all users with pure sampling, without
  /// a tape, into owned storage. Row u equals a pure EmbedUsers of {u}
  /// bitwise (every op is row-wise). The tables snapshot the current
  /// weights: a caller that changes the weights must build new ones. Must
  /// not run under a plan capture.
  Tables BuildInferenceTables();

  int64_t embed_dim() const { return d_; }
  graph::Metapath metapath() const { return rho_; }

  /// Replaces the neighbor-sampling stream with one seeded at `seed`.
  /// The construction-time stream (drawn from the model's init Rng) keeps
  /// the single-threaded trainer's historical draw sequence; data-parallel
  /// workers reseed their replica's stream per batch slice with
  /// util::Rng::StreamSeed(seed, epoch, step, slice) so the sampled
  /// neighborhoods depend on the slice being processed, never on which
  /// worker ran it (DESIGN.md §15). Not thread-safe against a concurrent
  /// Forward/EmbedUsers on the same instance — each worker owns a replica.
  void SeedSampleStream(uint64_t seed) { sample_rng_ = util::Rng(seed); }

 private:
  /// Stable per-level sampling workspace. The neighbor re-sampling loops
  /// run inside PlanHostStage closures that write into these members, and
  /// the downstream lookup/mask tensors read them through HostTensor /
  /// EmbeddingLookup — so a captured plan re-samples into the very same
  /// vectors on every replay (advancing sample_rng_ exactly as an eager
  /// pass would).
  struct LevelWs {
    std::vector<int64_t> nbr_ids;  // [N * cap], 0 at pads
    std::vector<float> pad;        // [N * cap], 1 = real neighbor
    std::vector<float> spatial;    // [N * cap] w_ij, cities only
  };

  /// Metapath-neighbor cities of user or city `v` at level `k`, capped at
  /// neighbor_cap under `sampling`.
  std::vector<int64_t> SampleNeighbors(bool user, int64_t v, int64_t k,
                                       Sampling sampling);

  /// One aggregation step: given self embeddings [N, d] and per-row
  /// neighbor ids/pad ([N, cap]), computes e^k via Eq. 1 + line 5.
  /// `spatial` is the optional per-row w_ij matrix ([N, cap], cities
  /// only; null for the user chain). Both vectors must be address-stable
  /// workspace members (HostTensor closures capture them).
  tensor::Tensor AggregateStep(const tensor::Tensor& self_emb,
                               const tensor::Tensor& neighbor_emb,
                               const std::vector<float>* pad,
                               const std::vector<float>* spatial, int64_t n,
                               int64_t step) const;

  const graph::HeterogeneousSpatialGraph* graph_;
  graph::Metapath rho_;
  OdnetConfig config_;
  int64_t d_;

  nn::Embedding user_features_;  // h_v for user nodes
  nn::Embedding city_features_;  // h_v for city nodes
  nn::Linear transform_;         // M_T
  std::vector<std::unique_ptr<nn::Linear>> step_weights_;  // W^k, k=1..K

  std::vector<int64_t> all_cities_;     // [num_cities] identity id list
  std::vector<LevelWs> city_ws_;        // per level k = 1..K
  std::vector<LevelWs> user_ws_;        // per level k = 1..K

  mutable util::Rng sample_rng_;
  uint64_t pure_seed_;  // base of the per-node Sampling::kPure streams
};

}  // namespace core
}  // namespace odnet

#endif  // ODNET_CORE_HSGC_H_
