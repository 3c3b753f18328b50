#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "src/data/city_atlas.h"
#include "src/data/encoding.h"
#include "src/data/fliggy_simulator.h"
#include "src/data/lbsn_adapter.h"
#include "src/data/lbsn_simulator.h"
#include "src/data/temporal_features.h"
#include "src/util/math_util.h"

namespace odnet {
namespace data {
namespace {

FliggyConfig SmallConfig() {
  FliggyConfig config;
  config.num_users = 150;
  config.num_cities = 30;
  config.seed = 7;
  return config;
}

// ------------------------------------------------------------ CityAtlas --

TEST(CityAtlasTest, SeedCitiesHavePlausibleCoordinates) {
  for (const City& city : CityAtlas::SeedCities()) {
    EXPECT_GE(city.lat, 17.0) << city.name;
    EXPECT_LE(city.lat, 54.0) << city.name;
    EXPECT_GE(city.lon, 75.0) << city.name;
    EXPECT_LE(city.lon, 135.0) << city.name;
    EXPECT_GT(city.popularity, 0.0) << city.name;
  }
}

TEST(CityAtlasTest, PaperCaseStudyCitiesPresent) {
  CityAtlas atlas = CityAtlas::Generate(64, 1);
  for (const char* name :
       {"Shanghai", "Ningbo", "Sanya", "Qingdao", "Hangzhou", "Xi'an",
        "Chengdu", "Beijing", "Dali", "Nanning", "Shijiazhuang", "Yantai",
        "Dalian", "Kunming", "Weihai", "Xiamen"}) {
    EXPECT_GE(atlas.FindByName(name), 0) << name;
  }
}

TEST(CityAtlasTest, GeneratesRequestedSize) {
  EXPECT_EQ(CityAtlas::Generate(10, 1).size(), 10);
  EXPECT_EQ(CityAtlas::Generate(200, 1).size(), 200);
}

TEST(CityAtlasTest, SyntheticExtensionIsDeterministic) {
  CityAtlas a = CityAtlas::Generate(120, 9);
  CityAtlas b = CityAtlas::Generate(120, 9);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.city(i).name, b.city(i).name);
    EXPECT_DOUBLE_EQ(a.city(i).lat, b.city(i).lat);
  }
}

TEST(CityAtlasTest, PatternQueryExcludesSelf) {
  CityAtlas atlas = CityAtlas::Generate(64, 1);
  int64_t sanya = atlas.FindByName("Sanya");
  auto seaside = atlas.CitiesWithPattern(CityPattern::kSeaside, sanya);
  EXPECT_FALSE(seaside.empty());
  EXPECT_EQ(std::find(seaside.begin(), seaside.end(), sanya), seaside.end());
  // Qingdao and Dalian are seaside (the paper's same-pattern example).
  EXPECT_NE(std::find(seaside.begin(), seaside.end(),
                      atlas.FindByName("Qingdao")),
            seaside.end());
}

TEST(CityAtlasTest, NearestCitiesSortedByDistance) {
  CityAtlas atlas = CityAtlas::Generate(64, 1);
  int64_t hangzhou = atlas.FindByName("Hangzhou");
  auto nearest = atlas.NearestCities(hangzhou, 5);
  ASSERT_EQ(nearest.size(), 5u);
  const City& h = atlas.city(hangzhou);
  double prev = 0.0;
  for (int64_t c : nearest) {
    double d = util::HaversineKm(h.lat, h.lon, atlas.city(c).lat,
                                 atlas.city(c).lon);
    EXPECT_GE(d, prev);
    prev = d;
  }
  // Ningbo is among Hangzhou's nearest (the paper's Fig. 1 scenario).
  EXPECT_NE(std::find(nearest.begin(), nearest.end(),
                      atlas.FindByName("Ningbo")),
            nearest.end());
}

// ------------------------------------------------------ FliggySimulator --

TEST(FliggySimulatorTest, DeterministicGeneration) {
  FliggySimulator sim_a(SmallConfig());
  FliggySimulator sim_b(SmallConfig());
  OdDataset a = sim_a.Generate();
  OdDataset b = sim_b.Generate();
  ASSERT_EQ(a.train_samples.size(), b.train_samples.size());
  for (size_t i = 0; i < a.train_samples.size(); ++i) {
    EXPECT_EQ(a.train_samples[i].user, b.train_samples[i].user);
    EXPECT_TRUE(a.train_samples[i].candidate == b.train_samples[i].candidate);
  }
}

TEST(FliggySimulatorTest, NegativeSamplingComposition) {
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  int64_t pos = 0;
  int64_t partial = 0;
  int64_t neg = 0;
  for (const Sample& s : dataset.train_samples) {
    switch (s.kind) {
      case SampleKind::kPosPos:
        ++pos;
        EXPECT_EQ(s.label_o, 1.0f);
        EXPECT_EQ(s.label_d, 1.0f);
        break;
      case SampleKind::kPosNeg:
        ++partial;
        EXPECT_EQ(s.label_o, 1.0f);
        EXPECT_EQ(s.label_d, 0.0f);
        break;
      case SampleKind::kNegPos:
        ++partial;
        EXPECT_EQ(s.label_o, 0.0f);
        EXPECT_EQ(s.label_d, 1.0f);
        break;
      case SampleKind::kNegNeg:
        ++neg;
        EXPECT_EQ(s.label_o, 0.0f);
        EXPECT_EQ(s.label_d, 0.0f);
        break;
    }
  }
  // Paper Sec. V-A-1: exactly 4 partial and 2 negative per positive.
  EXPECT_EQ(partial, 4 * pos);
  EXPECT_EQ(neg, 2 * pos);
}

TEST(FliggySimulatorTest, HistoriesAreTimeOrderedAndInWindow) {
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  for (const UserHistory& h : dataset.histories) {
    ASSERT_GE(h.long_term.size(), 2u);
    for (size_t i = 1; i < h.long_term.size(); ++i) {
      EXPECT_LE(h.long_term[i - 1].day, h.long_term[i].day);
      EXPECT_LT(h.long_term[i].day, 730);
    }
    EXPECT_GT(h.decision_day, 730);
    for (const Click& c : h.short_term) {
      EXPECT_GE(c.day, h.decision_day - 7);
    }
  }
}

TEST(FliggySimulatorTest, BookingsUseExistingRoutes) {
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  for (const UserHistory& h : dataset.histories) {
    for (const Booking& b : h.long_term) {
      EXPECT_NE(b.od.origin, b.od.destination);
      EXPECT_TRUE(simulator.RouteExists(b.od.origin, b.od.destination));
    }
    EXPECT_TRUE(simulator.RouteExists(h.next_booking.origin,
                                      h.next_booking.destination));
  }
}

TEST(FliggySimulatorTest, RouteExistenceMatchesPriceFiniteness) {
  FliggySimulator simulator(SmallConfig());
  for (int64_t o = 0; o < 30; ++o) {
    for (int64_t d = 0; d < 30; ++d) {
      if (o == d) {
        EXPECT_FALSE(simulator.RouteExists(o, d));
        continue;
      }
      EXPECT_EQ(simulator.RouteExists(o, d),
                std::isfinite(simulator.Price(o, d)));
    }
  }
}

TEST(FliggySimulatorTest, EveryCityReachable) {
  FliggySimulator simulator(SmallConfig());
  for (int64_t c = 0; c < 30; ++c) {
    bool has_out = false;
    bool has_in = false;
    for (int64_t other = 0; other < 30; ++other) {
      if (simulator.RouteExists(c, other)) has_out = true;
      if (simulator.RouteExists(other, c)) has_in = true;
    }
    EXPECT_TRUE(has_out) << "city " << c << " has no outbound route";
    EXPECT_TRUE(has_in) << "city " << c << " has no inbound route";
  }
}

TEST(FliggySimulatorTest, PlantedSignalsPresent) {
  FliggyConfig config = SmallConfig();
  config.num_users = 600;
  FliggySimulator simulator(config);
  OdDataset dataset = simulator.Generate();
  int64_t returns = 0;
  int64_t unseen_origin = 0;
  for (const UserHistory& h : dataset.histories) {
    const OdPair& last = h.long_term.back().od;
    if (h.next_booking.origin == last.destination &&
        h.next_booking.destination == last.origin) {
      ++returns;
    }
    bool seen = false;
    for (const Booking& b : h.long_term) {
      if (b.od.origin == h.next_booking.origin) seen = true;
    }
    if (!seen) ++unseen_origin;
  }
  double n = static_cast<double>(dataset.histories.size());
  // Unity-of-O&D signal: a solid fraction of labels are return flights.
  EXPECT_GT(returns / n, 0.15);
  // Exploration signal: a solid fraction of label origins are unseen.
  EXPECT_GT(unseen_origin / n, 0.10);
}

TEST(FliggySimulatorTest, TrueUtilityPrefersCheaperSameAffinity) {
  FliggySimulator simulator(SmallConfig());
  // Infeasible pairs are strongly penalized.
  EXPECT_LT(simulator.TrueUtility(0, OdPair{0, 0}, 100), -1e8);
}

TEST(FliggySimulatorTest, SplitIsDisjointAndCoversUsers) {
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  std::set<int64_t> train_users;
  for (const Sample& s : dataset.train_samples) train_users.insert(s.user);
  for (int64_t u : dataset.test_users) {
    EXPECT_EQ(train_users.count(u), 0u);
  }
  EXPECT_EQ(static_cast<int64_t>(train_users.size() +
                                 dataset.test_users.size()),
            dataset.num_users);
}

// ------------------------------------------------------- LbsnSimulator --

TEST(LbsnSimulatorTest, GeneratesConsistentCounts) {
  LbsnSimulator simulator(LbsnConfig::FoursquarePreset(3));
  LbsnDataset dataset = simulator.Generate();
  EXPECT_EQ(dataset.num_users,
            static_cast<int64_t>(dataset.sequences.size()));
  int64_t total = 0;
  for (const auto& seq : dataset.sequences) {
    EXPECT_GE(seq.size(), 4u);
    total += static_cast<int64_t>(seq.size());
    for (size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LE(seq[i - 1].day, seq[i].day);
    }
    for (const CheckIn& c : seq) {
      EXPECT_GE(c.poi, 0);
      EXPECT_LT(c.poi, dataset.num_pois);
    }
  }
  EXPECT_EQ(dataset.num_checkins, total);
}

TEST(LbsnSimulatorTest, PresetsDifferInShape) {
  LbsnDataset foursquare =
      LbsnSimulator(LbsnConfig::FoursquarePreset(3)).Generate();
  LbsnDataset gowalla = LbsnSimulator(LbsnConfig::GowallaPreset(3)).Generate();
  EXPECT_LT(foursquare.num_pois, gowalla.num_pois);
  double fs_density = static_cast<double>(foursquare.num_checkins) /
                      static_cast<double>(foursquare.num_users);
  double gw_density = static_cast<double>(gowalla.num_checkins) /
                      static_cast<double>(gowalla.num_users);
  EXPECT_GT(fs_density, gw_density);
}

TEST(LbsnSimulatorTest, PopularityIsSkewed) {
  LbsnDataset dataset =
      LbsnSimulator(LbsnConfig::FoursquarePreset(5)).Generate();
  std::vector<int64_t> counts(static_cast<size_t>(dataset.num_pois), 0);
  for (const auto& seq : dataset.sequences) {
    for (const CheckIn& c : seq) counts[static_cast<size_t>(c.poi)]++;
  }
  std::sort(counts.rbegin(), counts.rend());
  int64_t top_decile = 0;
  int64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i < counts.size() / 10) top_decile += counts[i];
    total += counts[i];
  }
  // Zipf-ish: top 10% of POIs take far more than 10% of check-ins.
  EXPECT_GT(static_cast<double>(top_decile) / static_cast<double>(total),
            0.3);
}

// --------------------------------------------------------- LbsnAdapter --

TEST(LbsnAdapterTest, HoldsOutFinalCheckIn) {
  LbsnDataset lbsn = LbsnSimulator(LbsnConfig::FoursquarePreset(3)).Generate();
  OdDataset dataset = LbsnToOdDataset(lbsn, LbsnAdapterOptions{});
  EXPECT_EQ(dataset.num_users, lbsn.num_users);
  EXPECT_EQ(dataset.num_cities, lbsn.num_pois);
  for (int64_t u = 0; u < dataset.num_users; ++u) {
    const UserHistory& h = dataset.histories[static_cast<size_t>(u)];
    const auto& seq = lbsn.sequences[static_cast<size_t>(u)];
    EXPECT_EQ(h.long_term.size(), seq.size() - 1);
    EXPECT_EQ(h.next_booking.destination, seq.back().poi);
    // Degenerate OD pairs (no origin information).
    EXPECT_EQ(h.next_booking.origin, h.next_booking.destination);
    for (const Booking& b : h.long_term) {
      EXPECT_EQ(b.od.origin, b.od.destination);
    }
  }
}

TEST(LbsnAdapterTest, NegativesNeverEqualPositive) {
  LbsnDataset lbsn = LbsnSimulator(LbsnConfig::FoursquarePreset(3)).Generate();
  OdDataset dataset = LbsnToOdDataset(lbsn, LbsnAdapterOptions{});
  for (const Sample& s : dataset.train_samples) {
    const UserHistory& h = dataset.histories[static_cast<size_t>(s.user)];
    if (s.kind == SampleKind::kNegNeg) {
      EXPECT_NE(s.candidate.destination, h.next_booking.destination);
    }
  }
}

// ---------------------------------------------------- TemporalFeatures --

TEST(TemporalFeatureTest, CountsUserRoleInteractions) {
  OdDataset dataset;
  dataset.num_users = 1;
  dataset.num_cities = 5;
  UserHistory h;
  h.user = 0;
  h.current_city = 0;
  h.decision_day = 100;
  h.long_term = {{{1, 2}, 80}, {{1, 3}, 90}, {{2, 1}, 95}};
  h.short_term = {{{1, 2}, 98}, {{4, 2}, 99}};
  dataset.histories.push_back(h);
  TemporalFeatureIndex index(dataset, 5, 200);

  // City 1 as origin: 2 own departures; 1 click with origin 1.
  auto f = index.OriginFeatures(h, 1);
  EXPECT_NEAR(f[2], std::log1p(2.0), 1e-5);
  EXPECT_NEAR(f[3], std::log1p(1.0), 1e-5);
  // City 2 as destination: 1 own arrival... plus global counts.
  auto g = index.DestinationFeatures(h, 2);
  EXPECT_NEAR(g[2], std::log1p(1.0), 1e-5);
  EXPECT_NEAR(g[3], std::log1p(2.0), 1e-5);
}

TEST(TemporalFeatureTest, TrailingMonthWindow) {
  OdDataset dataset;
  dataset.num_users = 2;
  dataset.num_cities = 3;
  UserHistory a;
  a.user = 0;
  a.decision_day = 100;
  a.long_term = {{{1, 2}, 85}};  // inside [70, 99]
  UserHistory b;
  b.user = 1;
  b.decision_day = 100;
  b.long_term = {{{1, 2}, 10}};  // far outside the window
  dataset.histories = {a, b};
  TemporalFeatureIndex index(dataset, 3, 200);
  auto f = index.OriginFeatures(a, 1);
  // Only one global departure from city 1 falls in the trailing month.
  EXPECT_NEAR(f[0], std::log1p(1.0), 1e-5);
}

TEST(TemporalFeatureTest, NoLabelLeakage) {
  // Features must come from histories only: decision-day bookings (the
  // labels) are never in long_term, so a city visited only as the label
  // contributes nothing.
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  TemporalFeatureIndex index(dataset, dataset.num_cities, 800);
  (void)index;  // construction itself must not touch next_booking
  SUCCEED();
}

// ----------------------------------------------------------- Encoding --

TEST(BatchEncoderTest, PadsAndAlignsSequences) {
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  TemporalFeatureIndex temporal(dataset, dataset.num_cities, 800);
  BatchEncoder encoder(&dataset, &temporal, SequenceSpec{8, 4});

  TaskBatch batch = encoder.EncodeOrigin(dataset.train_samples, 0, 16);
  EXPECT_EQ(batch.batch, 16);
  EXPECT_EQ(batch.long_seq.size(), 16u * 8u);
  EXPECT_EQ(batch.xst.size(), 16u * TemporalFeatureIndex::kDim);
  for (int64_t row = 0; row < batch.batch; ++row) {
    // Padding is at the front: once a real element appears, the rest of
    // the row is real.
    bool seen_real = false;
    for (int64_t i = 0; i < batch.t_long; ++i) {
      float pad = batch.long_pad[static_cast<size_t>(row * 8 + i)];
      if (pad > 0.5f) seen_real = true;
      if (seen_real) EXPECT_GT(pad, 0.5f);
    }
    EXPECT_TRUE(seen_real);
  }
}

TEST(BatchEncoderTest, RoleViewsProjectCorrectCity) {
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  BatchEncoder encoder(&dataset, nullptr, SequenceSpec{10, 5});
  OdBatch batch = encoder.EncodeJoint(dataset.train_samples, 0, 8);
  for (int64_t row = 0; row < 8; ++row) {
    const Sample& s = dataset.train_samples[static_cast<size_t>(row)];
    EXPECT_EQ(batch.origin.candidate[static_cast<size_t>(row)],
              s.candidate.origin);
    EXPECT_EQ(batch.destination.candidate[static_cast<size_t>(row)],
              s.candidate.destination);
    EXPECT_EQ(batch.origin.labels[static_cast<size_t>(row)], s.label_o);
    EXPECT_EQ(batch.destination.labels[static_cast<size_t>(row)], s.label_d);

    // The last real long-term element matches the user's last booking in
    // the right role.
    const UserHistory& h = dataset.histories[static_cast<size_t>(s.user)];
    EXPECT_EQ(batch.origin.long_seq[static_cast<size_t>(row * 10 + 9)],
              h.long_term.back().od.origin);
    EXPECT_EQ(batch.destination.long_seq[static_cast<size_t>(row * 10 + 9)],
              h.long_term.back().od.destination);
  }
}

TEST(BatchEncoderTest, AdditiveMaskMatchesPad) {
  std::vector<float> pad{1.0f, 0.0f, 1.0f};
  std::vector<float> mask(pad.size());
  AdditiveMask(pad, mask.data());
  EXPECT_EQ(mask[0], 0.0f);
  EXPECT_LT(mask[1], -1e8f);
  EXPECT_EQ(mask[2], 0.0f);
}

TEST(BatchEncoderTest, NullTemporalIndexGivesZeroXst) {
  FliggySimulator simulator(SmallConfig());
  OdDataset dataset = simulator.Generate();
  BatchEncoder encoder(&dataset, nullptr, SequenceSpec{4, 2});
  TaskBatch batch = encoder.EncodeOrigin(dataset.train_samples, 0, 4);
  for (float v : batch.xst) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace data
}  // namespace odnet
