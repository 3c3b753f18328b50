#include <cmath>
#include <algorithm>
#include <map>
#include <set>

#include "gtest/gtest.h"
#include "src/baselines/gbdt.h"
#include "src/baselines/most_pop.h"
#include "src/baselines/odnet_recommender.h"
#include "src/data/fliggy_simulator.h"
#include "src/serving/ab_test.h"
#include "src/serving/batch_scorer.h"
#include "src/serving/evaluator.h"
#include "src/serving/ranking_service.h"
#include "src/serving/recall.h"
#include "src/tensor/compute_context.h"

namespace odnet {
namespace serving {
namespace {

struct Fixture {
  Fixture() : simulator(MakeConfig()), dataset(simulator.Generate()) {}
  static data::FliggyConfig MakeConfig() {
    data::FliggyConfig config;
    config.num_users = 200;
    config.num_cities = 30;
    config.seed = 29;
    return config;
  }
  data::FliggySimulator simulator;
  data::OdDataset dataset;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// ------------------------------------------------------------ Evaluator --

TEST(BuildCandidatesTest, RelevantFirstAndUnique) {
  Fixture& f = SharedFixture();
  const data::UserHistory& h = f.dataset.histories[0];
  std::vector<data::OdPair> candidates =
      BuildCandidates(h, f.dataset.num_cities, 20, 1);
  ASSERT_GE(candidates.size(), 2u);
  EXPECT_TRUE(candidates[0] == h.next_booking);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_NE(candidates[i].origin, candidates[i].destination);
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      EXPECT_FALSE(candidates[i] == candidates[j]);
    }
  }
}

TEST(BuildCandidatesTest, DeterministicPerSeed) {
  Fixture& f = SharedFixture();
  const data::UserHistory& h = f.dataset.histories[0];
  auto a = BuildCandidates(h, f.dataset.num_cities, 15, 9);
  auto b = BuildCandidates(h, f.dataset.num_cities, 15, 9);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
}

TEST(BuildCandidatesTest, WeightedSamplingFavorsHeavyCities) {
  Fixture& f = SharedFixture();
  const data::UserHistory& h = f.dataset.histories[0];
  std::vector<double> weights(static_cast<size_t>(f.dataset.num_cities),
                              1e-6);
  weights[5] = 1000.0;  // city 5 dominates
  auto candidates = BuildCandidates(h, f.dataset.num_cities, 12, 2, &weights);
  int64_t fives = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].origin == 5 || candidates[i].destination == 5) ++fives;
  }
  EXPECT_GT(fives, 0);
}

TEST(EvaluatorTest, PerfectOracleGetsPerfectMetrics) {
  // An oracle scoring the true OD highest must get HR@1 = MRR = 1 and
  // AUC = 1.
  class Oracle : public baselines::OdRecommender {
   public:
    explicit Oracle(const data::OdDataset* dataset) : dataset_(dataset) {}
    std::string name() const override { return "Oracle"; }
    util::Status Fit(const data::OdDataset&) override {
      return util::Status::OK();
    }
    std::vector<baselines::OdScore> Score(
        const data::OdDataset& dataset,
        const std::vector<data::Sample>& samples) override {
      std::vector<baselines::OdScore> out;
      for (const data::Sample& s : samples) {
        const data::UserHistory& h =
            dataset.histories[static_cast<size_t>(s.user)];
        baselines::OdScore score;
        score.p_o = s.candidate.origin == h.next_booking.origin ? 0.9 : 0.1;
        score.p_d =
            s.candidate.destination == h.next_booking.destination ? 0.9 : 0.1;
        out.push_back(score);
      }
      return out;
    }
    const data::OdDataset* dataset_;
  };

  Fixture& f = SharedFixture();
  Oracle oracle(&f.dataset);
  EvalOptions options;
  options.num_candidates = 10;
  metrics::OdMetrics m = EvaluateOdRecommender(&oracle, f.dataset, options);
  EXPECT_DOUBLE_EQ(m.auc_o, 1.0);
  EXPECT_DOUBLE_EQ(m.auc_d, 1.0);
  EXPECT_DOUBLE_EQ(m.hr1, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr10, 1.0);
}

TEST(EvaluatorTest, AntiOracleGetsZeroAuc) {
  class AntiOracle : public baselines::OdRecommender {
   public:
    std::string name() const override { return "Anti"; }
    util::Status Fit(const data::OdDataset&) override {
      return util::Status::OK();
    }
    std::vector<baselines::OdScore> Score(
        const data::OdDataset& dataset,
        const std::vector<data::Sample>& samples) override {
      std::vector<baselines::OdScore> out;
      for (const data::Sample& s : samples) {
        const data::UserHistory& h =
            dataset.histories[static_cast<size_t>(s.user)];
        baselines::OdScore score;
        score.p_o = s.candidate.origin == h.next_booking.origin ? 0.1 : 0.9;
        score.p_d =
            s.candidate.destination == h.next_booking.destination ? 0.1 : 0.9;
        out.push_back(score);
      }
      return out;
    }
  };
  Fixture& f = SharedFixture();
  AntiOracle anti;
  EvalOptions options;
  options.num_candidates = 10;
  metrics::OdMetrics m = EvaluateOdRecommender(&anti, f.dataset, options);
  EXPECT_DOUBLE_EQ(m.auc_o, 0.0);
  EXPECT_DOUBLE_EQ(m.hr1, 0.0);
}

TEST(EvaluatorTest, MaxTestUsersCapsQueries) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  EvalOptions options;
  options.num_candidates = 10;
  options.max_test_users = 3;
  metrics::OdMetrics m = EvaluateOdRecommender(&method, f.dataset, options);
  // With only 3 queries, hr1 is a multiple of 1/3.
  double scaled = m.hr1 * 3.0;
  EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
}

// --------------------------------------------------------------- Recall --

TEST(RecallTest, OriginsIncludeCurrentAndHistoricalCities) {
  Fixture& f = SharedFixture();
  RecallOptions options;
  CandidateRecall recall(&f.dataset, &f.simulator.atlas(), options);
  const data::UserHistory& h = f.dataset.histories[0];
  std::vector<int64_t> origins = recall.RecallOrigins(h);
  ASSERT_FALSE(origins.empty());
  EXPECT_EQ(origins[0], h.current_city);
  EXPECT_LE(static_cast<int64_t>(origins.size()), options.max_origins);
  std::set<int64_t> unique(origins.begin(), origins.end());
  EXPECT_EQ(unique.size(), origins.size());
}

TEST(RecallTest, DestinationsIncludeReturnPath) {
  // The return-ticket recall: historical origins appear as candidate
  // destinations.
  Fixture& f = SharedFixture();
  RecallOptions options;
  options.max_destinations = 30;
  CandidateRecall recall(&f.dataset, &f.simulator.atlas(), options);
  const data::UserHistory& h = f.dataset.histories[0];
  std::vector<int64_t> dests = recall.RecallDestinations(h);
  int64_t last_origin = h.long_term.back().od.origin;
  EXPECT_NE(std::find(dests.begin(), dests.end(), last_origin), dests.end());
}

TEST(RecallTest, PairsRespectRouteFilter) {
  Fixture& f = SharedFixture();
  RecallOptions options;
  options.route_exists = [&f](int64_t o, int64_t d) {
    return f.simulator.RouteExists(o, d);
  };
  CandidateRecall recall(&f.dataset, &f.simulator.atlas(), options);
  for (int64_t u = 0; u < 20; ++u) {
    for (const data::OdPair& od :
         recall.RecallPairs(f.dataset.histories[static_cast<size_t>(u)])) {
      EXPECT_TRUE(f.simulator.RouteExists(od.origin, od.destination));
      EXPECT_NE(od.origin, od.destination);
    }
  }
}

TEST(RecallTest, PairCapRespected) {
  Fixture& f = SharedFixture();
  RecallOptions options;
  options.max_pairs = 7;
  CandidateRecall recall(&f.dataset, &f.simulator.atlas(), options);
  EXPECT_LE(recall.RecallPairs(f.dataset.histories[0]).size(), 7u);
}

// -------------------------------------------------------- RankingService --

TEST(RankingServiceTest, ReturnsSortedTopK) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  RecallOptions options;
  CandidateRecall recall(&f.dataset, &f.simulator.atlas(), options);
  RankingService service(&method, &f.dataset, &recall);
  std::vector<RankedFlight> list = service.RecommendTopK(0, 5);
  EXPECT_LE(list.size(), 5u);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(list[i - 1].score, list[i].score);
  }
}

TEST(RankingServiceTest, RankCandidatesPreservesSet) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  RecallOptions options;
  CandidateRecall recall(&f.dataset, &f.simulator.atlas(), options);
  RankingService service(&method, &f.dataset, &recall);
  std::vector<data::OdPair> candidates{{1, 2}, {3, 4}, {5, 6}};
  std::vector<RankedFlight> ranked = service.RankCandidates(0, candidates);
  ASSERT_EQ(ranked.size(), 3u);
  std::set<std::pair<int64_t, int64_t>> in;
  std::set<std::pair<int64_t, int64_t>> out;
  for (const data::OdPair& od : candidates) in.insert({od.origin, od.destination});
  for (const RankedFlight& rf : ranked) out.insert({rf.od.origin, rf.od.destination});
  EXPECT_EQ(in, out);
}

TEST(RankingServiceTest, OdnetScoresDoNotDependOnTrafficOrThreads) {
  // ODNET with the HSGC: a user's scores are a function of the model
  // version and the request alone — the same scored first after a table
  // build, after other users, inside a shuffled sequence with repeats, and
  // at 1 or 4 threads.
  Fixture& f = SharedFixture();
  core::OdnetConfig config;
  config.embed_dim = 8;
  config.num_heads = 2;
  config.expert_dim = 8;
  config.tower_hidden = 4;
  config.epochs = 1;
  config.seed = 5;
  baselines::OdnetRecommender odnet("ODNET", &f.simulator.atlas(), config);
  ASSERT_TRUE(odnet.Fit(f.dataset).ok());
  RecallOptions options;
  CandidateRecall recall(&f.dataset, &f.simulator.atlas(), options);
  RankingService service(&odnet, &f.dataset, &recall);
  std::vector<int64_t> users;
  for (int64_t u = 0; users.size() < 6; ++u) {
    if (!service.RecallFor(u).empty()) users.push_back(u);
  }
  auto score = [&service](int64_t u) {
    return service.ScoreCandidates(u, service.RecallFor(u));
  };

  tensor::ComputeContext& ctx = tensor::ComputeContext::Get();
  const int saved_threads = ctx.num_threads();
  const int64_t saved_threshold = ctx.parallel_threshold();
  ctx.SetNumThreads(1);
  std::map<int64_t, std::vector<double>> alone;
  for (int64_t u : users) {
    odnet.InvalidateServingPlans();  // u is the first request of a version
    alone[u] = score(u);
  }
  util::Rng rng(11);
  for (int threads : {1, 4}) {
    ctx.SetNumThreads(threads);
    ctx.SetParallelThreshold(threads > 1 ? 64 : saved_threshold);
    odnet.InvalidateServingPlans();
    std::vector<int64_t> order = users;
    order.insert(order.end(), users.begin(), users.end());
    rng.Shuffle(&order);
    for (int64_t u : order) {
      EXPECT_EQ(score(u), alone[u]) << "user " << u << " at " << threads
                                    << " threads";
    }
  }
  ctx.SetNumThreads(saved_threads);
  ctx.SetParallelThreshold(saved_threshold);
}

// ---------------------------------------------------------------- A/B ----

TEST(AbTestTest, ProducesConsistentCounts) {
  Fixture& f = SharedFixture();
  baselines::MostPop pop;
  ASSERT_TRUE(pop.Fit(f.dataset).ok());
  AbTestOptions options;
  options.days = 3;
  options.users_per_method_per_day = 10;
  options.top_k = 4;
  AbTestResult result = RunAbTest({&pop}, f.simulator, f.dataset, options);
  ASSERT_EQ(result.methods.size(), 1u);
  const AbMethodResult& m = result.methods[0];
  EXPECT_EQ(m.method, "MostPop");
  EXPECT_EQ(m.daily_ctr.size(), 3u);
  EXPECT_EQ(m.impressions, 3 * 10 * 4);
  EXPECT_GE(m.clicks, 0);
  EXPECT_LE(m.clicks, m.impressions);
  EXPECT_NEAR(m.overall_ctr,
              static_cast<double>(m.clicks) /
                  static_cast<double>(m.impressions),
              1e-12);
}

TEST(AbTestTest, OracleBeatsRandomRanker) {
  // A ranker that knows the user's next booking must earn a higher CTR
  // than one that scores uniformly at random.
  class IntentOracle : public baselines::OdRecommender {
   public:
    std::string name() const override { return "IntentOracle"; }
    util::Status Fit(const data::OdDataset&) override {
      return util::Status::OK();
    }
    std::vector<baselines::OdScore> Score(
        const data::OdDataset& dataset,
        const std::vector<data::Sample>& samples) override {
      std::vector<baselines::OdScore> out;
      for (const data::Sample& s : samples) {
        const data::UserHistory& h =
            dataset.histories[static_cast<size_t>(s.user)];
        double hit = s.candidate == h.next_booking ? 0.99 : 0.01;
        out.push_back(baselines::OdScore{hit, hit});
      }
      return out;
    }
  };
  class RandomRanker : public baselines::OdRecommender {
   public:
    std::string name() const override { return "Random"; }
    util::Status Fit(const data::OdDataset&) override {
      return util::Status::OK();
    }
    std::vector<baselines::OdScore> Score(
        const data::OdDataset&,
        const std::vector<data::Sample>& samples) override {
      std::vector<baselines::OdScore> out;
      for (size_t i = 0; i < samples.size(); ++i) {
        out.push_back(baselines::OdScore{rng_.UniformDouble(),
                                         rng_.UniformDouble()});
      }
      return out;
    }
    util::Rng rng_{77};
  };

  Fixture& f = SharedFixture();
  IntentOracle oracle;
  RandomRanker random;
  AbTestOptions options;
  options.days = 5;
  options.users_per_method_per_day = 40;
  AbTestResult result =
      RunAbTest({&oracle, &random}, f.simulator, f.dataset, options);
  EXPECT_GT(result.methods[0].overall_ctr, result.methods[1].overall_ctr);
}

// ---------------------------------------------------------- BatchScorer --

// Restores the compute-context thread configuration on scope exit; the
// chunked fan-out path only engages with a multi-thread pool.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads)
      : previous_(tensor::ComputeContext::Get().num_threads()) {
    tensor::ComputeContext::Get().SetNumThreads(threads);
  }
  ~ThreadCountGuard() {
    tensor::ComputeContext::Get().SetNumThreads(previous_);
  }

 private:
  int previous_;
};

std::vector<data::Sample> RepeatRows(const data::OdDataset& dataset,
                                     size_t count) {
  std::vector<data::Sample> rows;
  EXPECT_FALSE(dataset.train_samples.empty());
  while (rows.size() < count) {
    for (const data::Sample& s : dataset.train_samples) {
      rows.push_back(s);
      if (rows.size() >= count) break;
    }
  }
  return rows;
}

void ExpectScoresIdentical(const std::vector<baselines::OdScore>& a,
                           const std::vector<baselines::OdScore>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Thread-safe scorers are pure per-sample functions, so the chunked
    // result must be bitwise identical, not merely close.
    EXPECT_EQ(a[i].p_o, b[i].p_o) << "row " << i;
    EXPECT_EQ(a[i].p_d, b[i].p_d) << "row " << i;
  }
}

TEST(BatchScorerTest, EmptyRowsYieldEmptyScores) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  ThreadCountGuard guard(4);
  std::vector<baselines::OdScore> scores =
      ScoreChunked(&method, f.dataset, {});
  EXPECT_TRUE(scores.empty());
}

TEST(BatchScorerTest, FewerRowsThanOneChunkMatchMonolithic) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  ThreadCountGuard guard(4);
  std::vector<data::Sample> rows = RepeatRows(f.dataset, 40);
  ExpectScoresIdentical(ScoreChunked(&method, f.dataset, rows),
                        method.Score(f.dataset, rows));
}

TEST(BatchScorerTest, NonMultipleOfChunkSizeMatchesMonolithic) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  ThreadCountGuard guard(4);
  // 600 = 2 full chunks of 256 plus an 88-row tail.
  std::vector<data::Sample> rows = RepeatRows(f.dataset, 600);
  ExpectScoresIdentical(ScoreChunked(&method, f.dataset, rows),
                        method.Score(f.dataset, rows));
}

TEST(BatchScorerTest, ExactChunkMultipleMatchesMonolithic) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  ThreadCountGuard guard(4);
  std::vector<data::Sample> rows = RepeatRows(f.dataset, 2 * kScoreChunkSize);
  ExpectScoresIdentical(ScoreChunked(&method, f.dataset, rows),
                        method.Score(f.dataset, rows));
}

TEST(BatchScorerTest, GbdtChunkedMatchesMonolithic) {
  Fixture& f = SharedFixture();
  baselines::GbdtConfig config;
  config.num_trees = 10;
  config.max_depth = 2;
  baselines::GbdtRecommender method(config);
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  ThreadCountGuard guard(4);
  std::vector<data::Sample> rows = RepeatRows(f.dataset, 300);
  ExpectScoresIdentical(ScoreChunked(&method, f.dataset, rows),
                        method.Score(f.dataset, rows));
}

TEST(BatchScorerTest, SingleThreadContextFallsBackToMonolithic) {
  Fixture& f = SharedFixture();
  baselines::MostPop method;
  ASSERT_TRUE(method.Fit(f.dataset).ok());
  ThreadCountGuard guard(1);  // no pool: chunked path must not engage
  std::vector<data::Sample> rows = RepeatRows(f.dataset, 600);
  ExpectScoresIdentical(ScoreChunked(&method, f.dataset, rows),
                        method.Score(f.dataset, rows));
}

}  // namespace
}  // namespace serving
}  // namespace odnet
