// The sharded market's acceptance contract: for EVERY registered
// Mechanism, the ShardedAuctionSelector — any shard count, any (uneven)
// split, either tie-break mode — produces winners, payments, scores and
// the recorded ranking BIT-identical to the monolithic AuctionSelector
// over the same population. Sharding is an execution strategy, not a
// different mechanism; these properties are what make that claim checkable
// rather than aspirational (see ARCHITECTURE.md "Sharding the market").
//
// The comparison is EXPECT_EQ on doubles on purpose: the contract is
// bit-identity, not tolerance-equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::mec {
namespace {

constexpr double kDataHi = 150.0;

/// The simulator's market (Section V.A scoring/cost), solved once for the
/// whole suite — the equilibrium tabulation is the expensive part and is
/// shared by both selectors, so it cannot influence the equivalence.
struct Market {
    std::vector<stats::MinMaxNormalizer> norms;
    std::unique_ptr<auction::ScaledProductScoring> scoring;
    std::unique_ptr<auction::AdditiveCost> cost;
    std::unique_ptr<stats::UniformDistribution> theta;
    std::unique_ptr<auction::EquilibriumStrategy> strategy;

    Market() {
        norms.emplace_back(0.0, kDataHi);
        norms.emplace_back(0.0, 1.0);
        scoring = std::make_unique<auction::ScaledProductScoring>(25.0, 2, norms);
        cost = std::make_unique<auction::AdditiveCost>(
            std::vector<double>{6.0 / kDataHi, 2.0});
        theta = std::make_unique<stats::UniformDistribution>(0.5, 1.5);
        auction::EquilibriumConfig eq;
        eq.num_bidders = 100;
        eq.num_winners = 8;
        strategy = std::make_unique<auction::EquilibriumStrategy>(
            auction::EquilibriumSolver(*scoring, *cost, *theta, {1.0, 0.05},
                                       {kDataHi, 1.0}, eq)
                .solve());
    }
};

const Market& market() {
    static const Market m;
    return m;
}

PopulationStore make_store(std::size_t n, std::uint64_t seed) {
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(seed);
    return PopulationStore(n, data, *market().theta, spec, rng);
}

QualityLayout layout() {
    return {ResourceDim::data_size, ResourceDim::category_proportion};
}

/// `count - 1` strictly increasing cut points in (0, n) — an arbitrary
/// UNEVEN partition, the case even-split-only code would never exercise.
std::vector<std::size_t> random_boundaries(std::size_t n, std::size_t count,
                                           stats::Rng& rng) {
    std::vector<std::size_t> all(n - 1);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i + 1;
    rng.shuffle(all);
    std::vector<std::size_t> cuts(all.begin(),
                                  all.begin() + static_cast<std::ptrdiff_t>(count - 1));
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

void expect_outcomes_equal(const auction::AuctionOutcome& mono,
                           const auction::AuctionOutcome& sharded) {
    ASSERT_EQ(mono.winners.size(), sharded.winners.size());
    for (std::size_t w = 0; w < mono.winners.size(); ++w) {
        EXPECT_EQ(mono.winners[w].node, sharded.winners[w].node);
        EXPECT_EQ(mono.winners[w].score, sharded.winners[w].score);
        EXPECT_EQ(mono.winners[w].payment, sharded.winners[w].payment);
    }
    ASSERT_EQ(mono.ranking.size(), sharded.ranking.size());
    for (std::size_t r = 0; r < mono.ranking.size(); ++r) {
        EXPECT_EQ(mono.ranking[r].bid.node, sharded.ranking[r].bid.node);
        EXPECT_EQ(mono.ranking[r].score, sharded.ranking[r].score);
        EXPECT_EQ(mono.ranking[r].bid.payment, sharded.ranking[r].bid.payment);
        EXPECT_EQ(mono.ranking[r].bid.quality, sharded.ranking[r].bid.quality);
    }
}

void expect_records_equal(const fl::SelectionRecord& mono,
                          const fl::SelectionRecord& sharded) {
    ASSERT_EQ(mono.selected.size(), sharded.selected.size());
    for (std::size_t w = 0; w < mono.selected.size(); ++w) {
        EXPECT_EQ(mono.selected[w].client, sharded.selected[w].client);
        EXPECT_EQ(mono.selected[w].payment, sharded.selected[w].payment);
        EXPECT_EQ(mono.selected[w].score, sharded.selected[w].score);
        EXPECT_EQ(mono.selected[w].train_samples, sharded.selected[w].train_samples);
    }
    EXPECT_EQ(mono.all_scores, sharded.all_scores);
    EXPECT_EQ(mono.scores_by_node, sharded.scores_by_node);
    EXPECT_TRUE(sharded.dropped_shards.empty());
}

/// Run `rounds` auction rounds on the monolithic selector and the sharded
/// one cut at `boundaries` — SAME initial population (independently built
/// from `seed`), SAME generator seed — and compare every outcome
/// bit-for-bit.
void check_equivalence(const auction::WinnerDeterminationConfig& wd, std::size_t n,
                       std::size_t k, const std::vector<std::size_t>& boundaries,
                       std::size_t rounds, std::uint64_t seed) {
    const Market& m = market();
    MecPopulation population(make_store(n, seed));
    AuctionSelector mono(population, *m.scoring, *m.strategy, wd,
                         data_category_extractor(), /*data_dimension=*/0);
    MecPopulation sharded_population(make_store(n, seed));
    ShardedAuctionSelector sharded(sharded_population, *m.scoring, *m.strategy, wd, layout(),
                                   /*data_dimension=*/0, boundaries);
    ASSERT_EQ(sharded.num_shards(), boundaries.size() + 1);
    ASSERT_EQ(sharded.population_size(), n);

    stats::Rng mono_rng(seed ^ 0xf00dULL);
    stats::Rng shard_rng(seed ^ 0xf00dULL);
    for (std::size_t round = 1; round <= rounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auction::AuctionOutcome& a = mono.run_auction_round(round, k, mono_rng);
        const auction::AuctionOutcome& b = sharded.run_auction_round(round, k, shard_rng);
        expect_outcomes_equal(a, b);
    }
}

TEST(ShardEquivalence, EveryRegisteredMechanismMatchesMonolithic) {
    // Whatever is registered right now — including mechanisms other suites
    // in this binary registered before us. The sharded market must not
    // care which mechanism it is running.
    for (const std::string& name : auction::MechanismRegistry::instance().names()) {
        for (const std::uint64_t seed : {11ULL, 47ULL}) {
            SCOPED_TRACE("mechanism " + name + ", seed " + std::to_string(seed));
            auction::WinnerDeterminationConfig wd;
            wd.mechanism = name;
            wd.num_winners = 7;
            // Give the extension knobs real work where the mechanism reads
            // them; the other built-ins ignore what they don't price.
            if (name.find("psi") != std::string::npos) wd.psi = 0.6;
            if (name.find("budget") != std::string::npos) wd.budget = 40.0;
            if (name.find("second") != std::string::npos)
                wd.payment_rule = auction::PaymentRule::second_price;
            stats::Rng cuts(seed * 1000003ULL);
            check_equivalence(wd, /*n=*/60, /*k=*/7,
                              random_boundaries(60, /*count=*/5, cuts),
                              /*rounds=*/4, seed);
        }
    }
}

TEST(ShardEquivalence, RandomizedMarketsMatchMonolithic) {
    // Randomized N/K/S with arbitrary uneven splits, K occasionally larger
    // than N. first_score exercises the fused bounded-head lane with the
    // partial O(N log K) cutoff (full_ranking = false).
    stats::Rng meta(0x5eedULL);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = static_cast<std::size_t>(meta.uniform_int(3, 200));
        const std::size_t k = static_cast<std::size_t>(meta.uniform_int(1, 40));
        const std::size_t s =
            static_cast<std::size_t>(meta.uniform_int(1, static_cast<std::int64_t>(
                                                             std::min<std::size_t>(n, 9))));
        SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" + std::to_string(n)
                     + " k=" + std::to_string(k) + " s=" + std::to_string(s));
        auction::WinnerDeterminationConfig wd;
        wd.num_winners = k;
        wd.full_ranking = false;
        const std::vector<std::size_t> cuts =
            s == 1 ? std::vector<std::size_t>{} : random_boundaries(n, s, meta);
        check_equivalence(wd, n, k, cuts, /*rounds=*/3,
                          0xabcdULL + static_cast<std::uint64_t>(trial));
    }
}

TEST(ShardEquivalence, SecondScorePartialRankingMatchesMonolithic) {
    // The top-(K+1) cutoff: the best-loser row must survive the shard
    // merge for second-score payments to come out identical.
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 6;
    wd.payment_rule = auction::PaymentRule::second_price;
    wd.full_ranking = false;
    stats::Rng cuts(99);
    check_equivalence(wd, /*n=*/80, /*k=*/6, random_boundaries(80, 4, cuts),
                      /*rounds=*/4, 0xbeefULL);
}

TEST(ShardEquivalence, SaltedTieBreakMatchesMonolithic) {
    // TieBreak::salted (the multi-process wire mode): one 8-byte salt
    // replaces the global permutation; the sharded market must still be
    // bit-identical to the monolithic salted market.
    for (const std::uint64_t seed : {3ULL, 17ULL, 91ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auction::WinnerDeterminationConfig wd;
        wd.num_winners = 9;
        wd.tie_break = auction::TieBreak::salted;
        wd.full_ranking = false;
        stats::Rng cuts(seed + 7);
        check_equivalence(wd, /*n=*/120, /*k=*/9, random_boundaries(120, 7, cuts),
                          /*rounds=*/4, seed);
    }
}

TEST(ShardEquivalence, OneShardPerNodeMatchesMonolithic) {
    // The degenerate maximal split: S = N single-node shards.
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 5;
    std::vector<std::size_t> cuts(16);
    for (std::size_t i = 0; i < cuts.size(); ++i) cuts[i] = i + 1;
    check_equivalence(wd, /*n=*/17, /*k=*/5, cuts, /*rounds=*/3, 0x1d1ULL);
}

/// Gather-lane coverage: a custom mechanism that is NOT the exact built-in
/// engine (it drops every third selected winner — arbitrary but
/// deterministic), registered like any third-party extension would be. The
/// sharded selector must take the gather lane and reproduce the monolithic
/// round exactly, custom select and all.
class EveryThirdMechanism final : public auction::ScoreAuctionMechanism {
public:
    explicit EveryThirdMechanism(auction::MechanismSpec spec)
        : ScoreAuctionMechanism(std::move(spec), "every_third") {}

    // The engine's select() delegates to this virtual, so one override
    // covers both the vector API and frame rounds (calling the virtual
    // select() from here would recurse).
    void select_into(const std::vector<auction::ScoredBid>& ranking, stats::Rng& rng,
                     std::vector<std::size_t>& chosen) const override {
        ScoreAuctionMechanism::select_into(ranking, rng, chosen);
        std::size_t kept = 0;
        for (std::size_t i = 0; i < chosen.size(); ++i) {
            if (i % 3 != 2) chosen[kept++] = chosen[i];
        }
        chosen.resize(kept);
    }
};

TEST(ShardEquivalence, CustomMechanismTakesGatherLaneAndMatches) {
    auto& registry = auction::MechanismRegistry::instance();
    registry.replace("every_third", [](const auction::MechanismSpec& spec) {
        return std::make_unique<EveryThirdMechanism>(spec);
    });
    auction::WinnerDeterminationConfig wd;
    wd.mechanism = "every_third";
    wd.num_winners = 9;
    stats::Rng cuts(5);
    check_equivalence(wd, /*n=*/70, /*k=*/9, random_boundaries(70, 5, cuts),
                      /*rounds=*/4, 0xcafeULL);
    registry.remove("every_third");
}

TEST(ShardEquivalence, SelectionRecordsAndBlacklistStayIdentical) {
    // The full select() path — compliance rolls, blacklist bans, record
    // assembly — with defectors banned mid-run: the ban must flow into
    // both markets' later rounds identically (banned nodes stop bidding).
    // Salted rounds take the active count from the blacklist's size, so
    // both tie-break modes run.
    const Market& m = market();
    const std::uint64_t seed = 0x7e57ULL;
    const std::size_t n = 90;
    const std::size_t k = 10;
    for (const auction::TieBreak tie_break :
         {auction::TieBreak::shuffle, auction::TieBreak::salted}) {
        SCOPED_TRACE(tie_break == auction::TieBreak::salted ? "salted" : "shuffle");
        auction::WinnerDeterminationConfig wd;
        wd.num_winners = k;
        wd.tie_break = tie_break;

        MecPopulation population(make_store(n, seed));
        AuctionSelector mono(population, *m.scoring, *m.strategy, wd,
                             data_category_extractor(), /*data_dimension=*/0);
        stats::Rng cuts(21);
        MecPopulation sharded_population(make_store(n, seed));
        ShardedAuctionSelector sharded(sharded_population, *m.scoring, *m.strategy, wd,
                                       layout(), /*data_dimension=*/0,
                                       random_boundaries(n, 6, cuts));
        ComplianceSpec compliance;
        compliance.defect_probability = 0.35;
        mono.set_compliance(compliance);
        sharded.set_compliance(compliance);

        stats::Rng mono_rng(seed);
        stats::Rng shard_rng(seed);
        for (std::size_t round = 1; round <= 6; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const fl::SelectionRecord a = mono.select(round, k, mono_rng);
            const fl::SelectionRecord b = sharded.select(round, k, shard_rng);
            expect_records_equal(a, b);
            EXPECT_EQ(mono.blacklist().size(), sharded.blacklist().size());
        }
        EXPECT_GT(mono.blacklist().size(), 0u) << "compliance model never banned anyone — "
                                                  "the blacklist propagation went untested";
    }
}

TEST(ShardEquivalence, RejectsBadBoundaries) {
    // Cut points are local rows strictly inside the store: a cut at either
    // edge, a duplicate or an unsorted pair would leave a shard empty or
    // the shards out of order, and a cut past the end names no row.
    const Market& m = market();
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 4;
    MecPopulation population(make_store(50, 0xb0dULL));
    const auto make = [&](const std::vector<std::size_t>& cuts) {
        return ShardedAuctionSelector(population, *m.scoring, *m.strategy, wd, layout(),
                                      /*data_dimension=*/0, cuts);
    };
    EXPECT_THROW((void)make({0}), std::invalid_argument);       // at the edge
    EXPECT_THROW((void)make({50}), std::invalid_argument);      // past the edge
    EXPECT_THROW((void)make({3, 77}), std::invalid_argument);   // out of range
    EXPECT_THROW((void)make({10, 10}), std::invalid_argument);  // duplicate
    EXPECT_THROW((void)make({20, 10}), std::invalid_argument);  // unsorted
    EXPECT_EQ(make({}).num_shards(), 1u);                       // the whole store
    std::vector<std::size_t> every(49);
    std::iota(every.begin(), every.end(), std::size_t{1});
    EXPECT_EQ(make(every).num_shards(), 50u);                   // one node per shard
    for (const std::size_t shards : {std::size_t{0}, std::size_t{51}})
        EXPECT_THROW(ShardedAuctionSelector(population, *m.scoring, *m.strategy, wd, layout(),
                                            /*data_dimension=*/0, shards),
                     std::invalid_argument)
            << shards << " shards";
}

TEST(ShardEquivalence, HeavyScoreTiesDecidedByKey) {
    // The shard head skips a row's tie key once the heap is full and the
    // row scores below its root. Frames where most rows tie on score at
    // the cut check that this changes nothing: the reference sorts every
    // active row by (score desc, key asc, node asc) and keeps `limit`.
    const std::size_t rows = 150;
    const std::size_t node_offset = 1000;
    auction::BidFrame frame(rows, 2);
    const double levels[] = {5.0, 5.0, 3.0, 5.0, 7.0, 5.0, 0.0, -0.0, 5.0, 3.0};
    for (std::size_t row = 0; row < rows; ++row) {
        frame.score(row) = levels[(row * 7) % 10];
        frame.payment(row) = 0.25 * static_cast<double>(row);
        frame.quality_row(row)[0] = static_cast<double>(row);
        frame.quality_row(row)[1] = -static_cast<double>(row);
        if (row % 11 == 4) frame.set_active(row, false);
    }
    frame.set_scored(true);

    std::vector<std::uint32_t> pos(node_offset + rows);
    std::iota(pos.begin(), pos.end(), 0u);
    stats::Rng shuffle_rng(5);
    std::shuffle(pos.begin(), pos.end(), shuffle_rng.engine());
    auction::TieKeys shuffled;
    shuffled.pos = pos.data();
    auction::TieKeys salted;
    salted.salted = true;
    salted.salt = 0x5a17ULL;

    for (const auction::TieKeys* keys : {&salted, &shuffled}) {
        std::vector<auction::HeadRow> all;
        for (std::size_t row = 0; row < rows; ++row) {
            if (!frame.active(row)) continue;
            const std::size_t global = node_offset + row;
            const std::uint64_t key = keys->salted
                                          ? stats::derive_stream_seed(keys->salt, global)
                                          : keys->pos[global];
            all.push_back({global, frame.score(row), key, frame.payment(row)});
        }
        std::sort(all.begin(), all.end(),
                  [](const auction::HeadRow& a, const auction::HeadRow& b) {
                      if (a.score != b.score) return a.score > b.score;
                      if (a.key != b.key) return a.key < b.key;
                      return a.node < b.node;
                  });
        for (std::size_t limit = 1; limit <= rows + 1; ++limit) {
            SCOPED_TRACE(std::string(keys->salted ? "salted" : "shuffle") + ", limit "
                         + std::to_string(limit));
            auction::ShardHead head;
            auction::collect_shard_head(frame, node_offset, *keys, limit, head);
            const std::size_t kept = std::min(limit, all.size());
            ASSERT_EQ(head.rows.size(), kept);
            ASSERT_EQ(head.quality.size(), kept * 2);
            for (std::size_t r = 0; r < kept; ++r) {
                EXPECT_EQ(head.rows[r].node, all[r].node) << "rank " << r;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(head.rows[r].score),
                          std::bit_cast<std::uint64_t>(all[r].score))
                    << "rank " << r;
                EXPECT_EQ(head.rows[r].key, all[r].key) << "rank " << r;
                EXPECT_EQ(head.rows[r].payment, all[r].payment) << "rank " << r;
                EXPECT_EQ(head.quality_row(r)[0],
                          static_cast<double>(all[r].node - node_offset));
            }
        }
    }
}

TEST(ShardEquivalence, HeadDecoderRejectsInconsistentHeader) {
    // A head's header declares its row count and dims; both must agree
    // with the payload before the decoder reads or reserves by them.
    const auto append = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
        std::uint8_t bytes[sizeof(v)];
        std::memcpy(bytes, &v, sizeof(v));
        out.insert(out.end(), bytes, bytes + sizeof(v));
    };
    // dims = 2^63 over two rows: count * dims wraps to 0 in 64 bits.
    std::vector<std::uint8_t> wrapping;
    append(wrapping, 2);
    append(wrapping, std::uint64_t{1} << 63);
    for (std::uint64_t word = 0; word < 8; ++word) append(wrapping, word);
    EXPECT_THROW((void)auction::ShardHead::deserialize(wrapping.data(), wrapping.size()),
                 std::invalid_argument);

    // 2^40 rows declared over a few bytes: rejected before any reserve.
    std::vector<std::uint8_t> oversized;
    append(oversized, std::uint64_t{1} << 40);
    append(oversized, 2);
    for (std::uint64_t word = 0; word < 8; ++word) append(oversized, word);
    EXPECT_THROW((void)auction::ShardHead::deserialize(oversized.data(), oversized.size()),
                 std::invalid_argument);

    // A well-formed head round-trips; one byte more or less does not.
    auction::ShardHead head;
    head.dims = 2;
    head.rows = {{7, 3.5, 11, 1.25}, {9, 2.0, 4, 0.5}};
    head.quality = {1.0, 2.0, 3.0, 4.0};
    std::vector<std::uint8_t> bytes;
    head.serialize(bytes);
    const auction::ShardHead back = auction::ShardHead::deserialize(bytes.data(), bytes.size());
    EXPECT_EQ(back.dims, 2u);
    EXPECT_EQ(back.rows.size(), 2u);
    EXPECT_EQ(back.quality, head.quality);
    EXPECT_THROW((void)auction::ShardHead::deserialize(bytes.data(), bytes.size() - 1),
                 std::invalid_argument);
    bytes.push_back(0);
    EXPECT_THROW((void)auction::ShardHead::deserialize(bytes.data(), bytes.size()),
                 std::invalid_argument);
}

} // namespace
} // namespace fmore::mec
