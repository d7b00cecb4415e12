// The streaming market's acceptance contract: for EVERY registered
// Mechanism, a streaming round — bids offered one at a time in ANY arrival
// order, either tie-break mode, any thread grid on the batch side —
// closes with winners, payments, scores and ranking BIT-identical to the
// batch `Mechanism::run_frame` over the same arrived set. Streaming is an
// ingestion strategy, not a different mechanism (see ARCHITECTURE.md "The
// streaming marketplace").
//
// The comparison is EXPECT_EQ on doubles on purpose: the contract is
// bit-identity, not tolerance-equality.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/mec/streaming_selector.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::auction {
namespace {

class ScopedEnv {
public:
    ScopedEnv(const char* name, const std::string& value) : name_(name) {
        const char* previous = std::getenv(name);
        had_previous_ = previous != nullptr;
        if (had_previous_) previous_ = previous;
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() {
        if (had_previous_) ::setenv(name_, previous_.c_str(), 1);
        else ::unsetenv(name_);
    }

private:
    const char* name_;
    bool had_previous_ = false;
    std::string previous_;
};

constexpr double kDataHi = 150.0;

/// The simulator's scoring (Section V.A), enough for frame-level rounds.
const ScaledProductScoring& scoring() {
    static const std::vector<stats::MinMaxNormalizer> norms = [] {
        std::vector<stats::MinMaxNormalizer> n;
        n.emplace_back(0.0, kDataHi);
        n.emplace_back(0.0, 1.0);
        return n;
    }();
    static const ScaledProductScoring rule(25.0, 2, norms);
    return rule;
}

/// A fully scored random frame: every row active, quality/payment drawn
/// from the simulator's ranges, score column = score_span (the fused
/// collector's contract).
BidFrame random_frame(std::size_t n, stats::Rng& rng) {
    BidFrame frame(n, 2);
    for (NodeId node = 0; node < n; ++node) {
        double* q = frame.quality_row(node);
        q[0] = rng.uniform(5.0, kDataHi);
        q[1] = rng.uniform(0.1, 1.0);
        frame.payment(node) = rng.uniform(0.0, 3.0);
        frame.score(node) = scoring().score_span(q, 2, frame.payment(node));
    }
    frame.set_scored(true);
    return frame;
}

void expect_outcomes_equal(const AuctionOutcome& batch, const AuctionOutcome& stream) {
    ASSERT_EQ(batch.winners.size(), stream.winners.size());
    for (std::size_t w = 0; w < batch.winners.size(); ++w) {
        EXPECT_EQ(batch.winners[w].node, stream.winners[w].node);
        EXPECT_EQ(batch.winners[w].score, stream.winners[w].score);
        EXPECT_EQ(batch.winners[w].payment, stream.winners[w].payment);
    }
    ASSERT_EQ(batch.ranking.size(), stream.ranking.size());
    for (std::size_t r = 0; r < batch.ranking.size(); ++r) {
        EXPECT_EQ(batch.ranking[r].bid.node, stream.ranking[r].bid.node);
        EXPECT_EQ(batch.ranking[r].score, stream.ranking[r].score);
        EXPECT_EQ(batch.ranking[r].bid.payment, stream.ranking[r].bid.payment);
        EXPECT_EQ(batch.ranking[r].bid.quality, stream.ranking[r].bid.quality);
    }
}

/// Offer every row of `frame` to a fresh streaming round in `order`, close,
/// and compare against batch run_frame over the same frame — SAME seed on
/// both generators.
void check_frame_equivalence(const MechanismSpec& spec, const BidFrame& frame,
                             const std::vector<NodeId>& order, std::uint64_t seed) {
    const std::shared_ptr<const Mechanism> mech(make_mechanism(spec));

    stats::Rng batch_rng(seed);
    RankScratch scratch;
    AuctionOutcome batch;
    mech->run_frame(scoring(), frame, batch_rng, scratch, batch);

    StreamingMarket market(mech, scoring());
    stats::Rng stream_rng(seed);
    market.open_round(frame.rows(), frame.dims(), {}, stream_rng);
    double clock = 0.0;
    for (const NodeId node : order) {
        ASSERT_TRUE(market.offer(node, frame.quality_row(node), frame.payment(node),
                                 frame.score(node), clock));
        clock += 0.001;
    }
    EXPECT_TRUE(market.closed());
    EXPECT_EQ(market.close_reason(), CloseReason::exhausted);
    expect_outcomes_equal(batch, market.close_round(stream_rng));
}

TEST(StreamingEquivalence, RandomizedFramesAnyArrivalOrderMatchRunFrame) {
    // Randomized N/K, shuffled arrival orders, both tie-break modes, both
    // ranking depths, second-price cutoffs — under every batch thread grid
    // (the batch side parallelizes; the streaming side is one arrival at a
    // time by construction).
    for (const char* threads : {"1", "4"}) {
        const ScopedEnv env("FMORE_ROUND_THREADS", threads);
        stats::Rng meta(0x57ea3ULL);
        for (int trial = 0; trial < 12; ++trial) {
            const std::size_t n = static_cast<std::size_t>(meta.uniform_int(2, 160));
            const std::size_t k = static_cast<std::size_t>(meta.uniform_int(1, 40));
            MechanismSpec spec;
            spec.num_winners = k;
            spec.full_ranking = trial % 2 == 0;
            if (trial % 3 == 0) {
                spec.payment_rule = PaymentRule::second_price;
                spec.mechanism = "second_score";
            }
            if (trial % 4 == 1) spec.tie_break = TieBreak::salted;
            SCOPED_TRACE("threads=" + std::string(threads) + " trial "
                         + std::to_string(trial) + ": n=" + std::to_string(n)
                         + " k=" + std::to_string(k)
                         + (spec.tie_break == TieBreak::salted ? " salted" : " shuffle"));

            stats::Rng data_rng(0xabcULL + static_cast<std::uint64_t>(trial));
            const BidFrame frame = random_frame(n, data_rng);
            std::vector<NodeId> order(n);
            for (NodeId i = 0; i < n; ++i) order[i] = i;
            meta.shuffle(order);
            check_frame_equivalence(spec, frame, order,
                                    0x5eedULL + static_cast<std::uint64_t>(trial));
        }
    }
}

TEST(StreamingEquivalence, EveryRegisteredMechanismMatchesRunFrame) {
    // Whatever is registered right now — the streaming close must not care
    // which mechanism it is running: the built-in engine streams the salted
    // lane incrementally, everything else replays the batch pass over the
    // arrived frame.
    for (const std::string& name : MechanismRegistry::instance().names()) {
        for (const std::uint64_t seed : {13ULL, 59ULL}) {
            SCOPED_TRACE("mechanism " + name + ", seed " + std::to_string(seed));
            MechanismSpec spec;
            spec.mechanism = name;
            spec.num_winners = 9;
            spec.tie_break = seed == 13ULL ? TieBreak::salted : TieBreak::shuffle;
            if (name.find("psi") != std::string::npos) spec.psi = 0.6;
            if (name.find("budget") != std::string::npos) spec.budget = 40.0;
            if (name.find("second") != std::string::npos)
                spec.payment_rule = PaymentRule::second_price;
            if (name == "latency_discounted") {
                spec.latency_discount = 0.8;
                for (std::size_t i = 0; i < 72; ++i)
                    spec.expected_latency_s.push_back(0.01 * static_cast<double>(i % 9));
            }
            stats::Rng data_rng(seed * 1000003ULL);
            const BidFrame frame = random_frame(72, data_rng);
            std::vector<NodeId> order(72);
            for (NodeId i = 0; i < 72; ++i) order[i] = i;
            data_rng.shuffle(order);
            check_frame_equivalence(spec, frame, order, seed);
        }
    }
}

TEST(StreamingEquivalence, DeadlineCloseMatchesBatchOverArrivedSet) {
    // A deadline round is the exact batch market over whoever made the cut:
    // rebuild a frame with only the arrived rows active and compare.
    for (const TieBreak tie : {TieBreak::shuffle, TieBreak::salted}) {
        SCOPED_TRACE(tie == TieBreak::salted ? "salted" : "shuffle");
        MechanismSpec spec;
        spec.num_winners = 6;
        spec.tie_break = tie;
        const std::shared_ptr<const Mechanism> mech(make_mechanism(spec));

        const std::size_t n = 50;
        stats::Rng data_rng(0xdeadULL);
        const BidFrame frame = random_frame(n, data_rng);

        StreamingMarket market(mech, scoring());
        stats::Rng stream_rng(0x11ULL);
        StreamingRoundSpec round;
        round.deadline_s = 0.5;
        market.open_round(n, 2, round, stream_rng);
        std::size_t arrived = 0;
        for (NodeId node = 0; node < n; ++node) {
            // Node i arrives at 0.02 * i: nodes 0..25 make the 0.5 s cut,
            // node 26 misses it and closes the round.
            if (!market.offer(node, frame.quality_row(node), frame.payment(node),
                              frame.score(node), 0.02 * static_cast<double>(node)))
                break;
            ++arrived;
        }
        ASSERT_EQ(arrived, 26u);
        EXPECT_EQ(market.close_reason(), CloseReason::deadline);
        EXPECT_EQ(market.close_time_s(), 0.5);
        EXPECT_EQ(market.arrived(), arrived);

        BidFrame truncated = frame;
        for (NodeId node = arrived; node < n; ++node) truncated.set_active(node, false);
        // Same seed on both sides: the streaming round drew its tie salt
        // when it OPENED (before any bid), exactly where batch run_frame
        // draws it, so the generator streams align.
        RankScratch scratch;
        AuctionOutcome batch;
        stats::Rng replay_rng(0x11ULL);
        mech->run_frame(scoring(), truncated, replay_rng, scratch, batch);
        expect_outcomes_equal(batch, market.close_round(stream_rng));
    }
}

TEST(StreamingEquivalence, QuorumCloseMatchesBatchOverArrivedSet) {
    MechanismSpec spec;
    spec.num_winners = 5;
    const std::shared_ptr<const Mechanism> mech(make_mechanism(spec));

    const std::size_t n = 40;
    const std::size_t quorum = 17;
    stats::Rng data_rng(0x40ULL);
    const BidFrame frame = random_frame(n, data_rng);

    StreamingMarket market(mech, scoring());
    stats::Rng stream_rng(0x21ULL);
    StreamingRoundSpec round;
    round.quorum = quorum;
    round.deadline_s = 100.0; // never fires: the quorum races it and wins
    market.open_round(n, 2, round, stream_rng);
    for (NodeId node = 0; node < n; ++node) {
        const bool accepted =
            market.offer(node, frame.quality_row(node), frame.payment(node),
                         frame.score(node), 0.01 * static_cast<double>(node));
        if (node < quorum) EXPECT_TRUE(accepted);
        else EXPECT_FALSE(accepted) << "bid accepted after the quorum close";
        if (market.closed() && node >= quorum) break;
    }
    EXPECT_EQ(market.close_reason(), CloseReason::quorum);
    EXPECT_EQ(market.arrived(), quorum);
    EXPECT_EQ(market.close_time_s(), 0.01 * static_cast<double>(quorum - 1));

    BidFrame truncated = frame;
    for (NodeId node = quorum; node < n; ++node) truncated.set_active(node, false);
    RankScratch scratch;
    AuctionOutcome batch;
    stats::Rng batch_rng(0x21ULL);
    mech->run_frame(scoring(), truncated, batch_rng, scratch, batch);
    expect_outcomes_equal(batch, market.close_round(stream_rng));
}

TEST(StreamingEquivalence, IngestionGuardsAndIdempotentClose) {
    MechanismSpec spec;
    spec.num_winners = 3;
    StreamingMarket market(std::shared_ptr<const Mechanism>(make_mechanism(spec)),
                           scoring());
    stats::Rng rng(7);
    stats::Rng data_rng(8);
    const BidFrame frame = random_frame(6, data_rng);
    market.open_round(6, 2, {}, rng);
    EXPECT_FALSE(market.closed());
    ASSERT_TRUE(market.offer(2, frame.quality_row(2), frame.payment(2), frame.score(2),
                             1.0));
    // Duplicate bid, unknown node, and a clock running backwards are caller
    // bugs, not close conditions.
    EXPECT_THROW(market.offer(2, frame.quality_row(2), frame.payment(2),
                              frame.score(2), 2.0),
                 std::invalid_argument);
    EXPECT_THROW(market.offer(6, frame.quality_row(0), frame.payment(0),
                              frame.score(0), 2.0),
                 std::invalid_argument);
    EXPECT_THROW(market.offer(3, frame.quality_row(3), frame.payment(3),
                              frame.score(3), 0.5),
                 std::invalid_argument);

    // Closing an open round finalizes it as exhausted; closing again is a
    // no-op that must not consume the generator.
    const AuctionOutcome& first = market.close_round(rng);
    EXPECT_EQ(market.close_reason(), CloseReason::exhausted);
    const AuctionOutcome& again = market.close_round(rng);
    EXPECT_EQ(&first, &again);
    // A closed round refuses further bids without throwing.
    EXPECT_FALSE(market.offer(4, frame.quality_row(4), frame.payment(4),
                              frame.score(4), 9.0));
}

TEST(StreamingEquivalence, HeadChurnCountsProvisionalEvictions) {
    // Scores rise with the node id, so after the head first fills every
    // later arrival evicts a resident: churn = n - k exactly.
    MechanismSpec spec;
    spec.num_winners = 4;
    spec.tie_break = TieBreak::salted;
    spec.full_ranking = false;
    StreamingMarket market(std::shared_ptr<const Mechanism>(make_mechanism(spec)),
                           scoring());
    stats::Rng rng(3);
    const std::size_t n = 20;
    BidFrame frame(n, 2);
    for (NodeId node = 0; node < n; ++node) {
        double* q = frame.quality_row(node);
        q[0] = 10.0 + static_cast<double>(node) * 5.0;
        q[1] = 0.5;
        frame.payment(node) = 0.25;
        frame.score(node) = scoring().score_span(q, 2, 0.25);
    }
    frame.set_scored(true);
    market.open_round(n, 2, {}, rng);
    for (NodeId node = 0; node < n; ++node)
        (void)market.offer(node, frame.quality_row(node), frame.payment(node),
                           frame.score(node), 0.0);
    EXPECT_EQ(market.head_churn(), n - spec.num_winners);
}

TEST(StreamingEquivalence, QuorumOnTheFinalExpectedBidOutranksExhaustion) {
    // When the quorum fills on the very last expected bid, the round closes
    // as `quorum` (at that bid's arrival), not `exhausted` — the rule the
    // cross-process coordinator replicates in resolve_stream_close.
    MechanismSpec spec;
    spec.num_winners = 3;
    StreamingMarket market(std::shared_ptr<const Mechanism>(make_mechanism(spec)),
                           scoring());
    stats::Rng rng(5);
    stats::Rng data_rng(6);
    const std::size_t n = 12;
    const BidFrame frame = random_frame(n, data_rng);
    StreamingRoundSpec round;
    round.quorum = n;
    market.open_round(n, 2, round, rng);
    for (NodeId node = 0; node < n; ++node)
        ASSERT_TRUE(market.offer(node, frame.quality_row(node),
                                 frame.payment(node), frame.score(node),
                                 0.05 * static_cast<double>(node)));
    EXPECT_EQ(market.close_reason(), CloseReason::quorum);
    EXPECT_EQ(market.arrived(), n);
    EXPECT_EQ(market.close_time_s(), 0.05 * static_cast<double>(n - 1));
}

// ---------------------------------------------------------------------------
// Shard streams: StreamingHeadMerge must reproduce merge_heads — and through
// it the monolithic head — for any shard count, heads arriving one at a time.

TEST(StreamingEquivalence, ShardStreamsMergeIdenticallyAcrossShardCounts) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        for (const bool salted : {false, true}) {
            SCOPED_TRACE("S=" + std::to_string(shards)
                         + (salted ? " salted" : " shuffle"));
            MechanismSpec spec;
            spec.num_winners = 12;
            spec.full_ranking = false;
            spec.tie_break = salted ? TieBreak::salted : TieBreak::shuffle;
            const std::shared_ptr<const Mechanism> mech(make_mechanism(spec));
            const auto* engine = dynamic_cast<const ScoreAuctionMechanism*>(mech.get());
            ASSERT_NE(engine, nullptr);

            const std::size_t n = 97; // deliberately not divisible by S
            stats::Rng data_rng(0x9ULL + shards);
            const BidFrame frame = random_frame(n, data_rng);
            const std::size_t cutoff = engine->ranking_cutoff(n);

            // The same tie keys the monolithic salted pass would derive —
            // drawn exactly like rank_frame draws them (first draw).
            stats::Rng key_rng(0x77ULL);
            TieKeys keys;
            keys.salted = salted;
            keys.salt = key_rng.engine()();
            std::vector<std::uint32_t> pos;
            if (!salted) {
                // Shuffle mode's inverse permutation over all active rows,
                // derived with the batch pass's draw order.
                std::vector<std::size_t> order(n);
                for (std::size_t i = 0; i < n; ++i) order[i] = i;
                stats::Rng shuffle_rng(0x77ULL);
                shuffle_rng.shuffle(order);
                pos.resize(n);
                for (std::uint32_t j = 0; j < n; ++j)
                    pos[order[j]] = j;
                keys.pos = pos.data();
                keys.salted = false;
            }

            // Per-shard frames over contiguous row ranges (local row ids),
            // heads collected in market coordinates via node_offset.
            std::vector<ShardHead> heads(shards);
            StreamingHeadMerge streaming;
            streaming.open(2, cutoff);
            const std::size_t base = n / shards;
            std::size_t lo = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                const std::size_t hi = s + 1 == shards ? n : lo + base;
                BidFrame local(hi - lo, 2);
                for (std::size_t row = 0; row < hi - lo; ++row) {
                    const NodeId node = static_cast<NodeId>(lo + row);
                    double* q = local.quality_row(row);
                    q[0] = frame.quality_row(node)[0];
                    q[1] = frame.quality_row(node)[1];
                    local.payment(row) = frame.payment(node);
                    local.score(row) = frame.score(node);
                }
                local.set_scored(true);
                collect_shard_head(local, lo, keys, cutoff, heads[s]);
                streaming.ingest(heads[s]);
                lo = hi;
            }
            EXPECT_EQ(streaming.ingested(), shards);

            std::vector<ScoredBid> batch_ranking;
            merge_heads(heads, cutoff, batch_ranking);
            std::vector<ScoredBid> stream_ranking;
            streaming.finish(stream_ranking);

            ASSERT_EQ(batch_ranking.size(), stream_ranking.size());
            for (std::size_t r = 0; r < batch_ranking.size(); ++r) {
                EXPECT_EQ(batch_ranking[r].bid.node, stream_ranking[r].bid.node);
                EXPECT_EQ(batch_ranking[r].score, stream_ranking[r].score);
                EXPECT_EQ(batch_ranking[r].bid.payment, stream_ranking[r].bid.payment);
                EXPECT_EQ(batch_ranking[r].bid.quality, stream_ranking[r].bid.quality);
            }
        }
    }
}

TEST(StreamingEquivalence, HeadMergeRejectsMismatchedDimensions) {
    StreamingHeadMerge merge;
    merge.open(2, 4);
    ShardHead head;
    head.dims = 3;
    head.rows.push_back({0, 1.0, 0, 0.5});
    head.quality = {1.0, 2.0, 3.0};
    EXPECT_THROW(merge.ingest(head), std::invalid_argument);
}

} // namespace
} // namespace fmore::auction

// ---------------------------------------------------------------------------
// Selector-level equivalence: the StreamingAuctionSelector over a live
// population — straggler-ordered closed-loop arrivals, no deadline, no
// quorum — must reproduce the batch AuctionSelector's rounds bit for bit,
// records, compliance rolls and blacklist bans included.

namespace fmore::mec {
namespace {

constexpr double kDataHi = 150.0;

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

StreamingRoundConfig staggered_arrivals(std::size_t n) {
    // Non-uniform closed-loop latencies: arrival order is NOT node order,
    // which is the point — the close must not care.
    StreamingRoundConfig sc;
    sc.bid_latencies_s.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        sc.bid_latencies_s[i] = 0.005 * static_cast<double>((i * 7 + 3) % 23);
    return sc;
}

TEST(StreamingSelectorEquivalence, EveryRegisteredMechanismMatchesBatchSelector) {
    const Market& m = market();
    for (const std::string& name : auction::MechanismRegistry::instance().names()) {
        const std::uint64_t seed = 0x5ca1eULL ^ std::hash<std::string>{}(name);
        SCOPED_TRACE("mechanism " + name);
        auction::WinnerDeterminationConfig wd;
        wd.mechanism = name;
        wd.num_winners = 7;
        if (name.find("psi") != std::string::npos) wd.psi = 0.6;
        if (name.find("budget") != std::string::npos) wd.budget = 40.0;
        if (name.find("second") != std::string::npos)
            wd.payment_rule = auction::PaymentRule::second_price;
        if (name == "latency_discounted") {
            wd.latency_discount = 0.5;
            for (std::size_t i = 0; i < 60; ++i)
                wd.expected_latency_s.push_back(0.02 * static_cast<double>(i % 5));
        }

        const std::size_t n = 60;
        MecPopulation batch_pop(make_store(n, seed));
        MecPopulation stream_pop(make_store(n, seed));
        AuctionSelector batch(batch_pop, *m.scoring, *m.strategy, wd,
                              data_category_extractor(), /*data_dimension=*/0);
        StreamingAuctionSelector streaming(
            stream_pop, *m.scoring, *m.strategy, wd,
            {ResourceDim::data_size, ResourceDim::category_proportion},
            /*data_dimension=*/0, staggered_arrivals(n));

        stats::Rng batch_rng(seed ^ 0xf00dULL);
        stats::Rng stream_rng(seed ^ 0xf00dULL);
        for (std::size_t round = 1; round <= 4; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const auction::AuctionOutcome& a =
                batch.run_auction_round(round, 7, batch_rng);
            const auction::AuctionOutcome& b =
                streaming.run_auction_round(round, 7, stream_rng);
            auction::expect_outcomes_equal(a, b);
            EXPECT_EQ(streaming.last_close_reason(), auction::CloseReason::exhausted);
            EXPECT_EQ(streaming.last_arrived(), n);
        }
    }
}

TEST(StreamingSelectorEquivalence, SaltedTieBreakMatchesBatchSelector) {
    const Market& m = market();
    for (const std::uint64_t seed : {5ULL, 23ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auction::WinnerDeterminationConfig wd;
        wd.num_winners = 9;
        wd.tie_break = auction::TieBreak::salted;
        wd.full_ranking = false;

        const std::size_t n = 110;
        MecPopulation batch_pop(make_store(n, seed));
        MecPopulation stream_pop(make_store(n, seed));
        AuctionSelector batch(batch_pop, *m.scoring, *m.strategy, wd,
                              data_category_extractor(), /*data_dimension=*/0);
        StreamingAuctionSelector streaming(
            stream_pop, *m.scoring, *m.strategy, wd,
            {ResourceDim::data_size, ResourceDim::category_proportion},
            /*data_dimension=*/0, staggered_arrivals(n));

        stats::Rng batch_rng(seed);
        stats::Rng stream_rng(seed);
        for (std::size_t round = 1; round <= 4; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            auction::expect_outcomes_equal(
                batch.run_auction_round(round, 9, batch_rng),
                streaming.run_auction_round(round, 9, stream_rng));
        }
    }
}

TEST(StreamingSelectorEquivalence, SelectionRecordsAndBlacklistStayIdentical) {
    const Market& m = market();
    const std::uint64_t seed = 0x7e58ULL;
    const std::size_t n = 80;
    const std::size_t k = 10;
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = k;

    MecPopulation batch_pop(make_store(n, seed));
    MecPopulation stream_pop(make_store(n, seed));
    AuctionSelector batch(batch_pop, *m.scoring, *m.strategy, wd,
                          data_category_extractor(), /*data_dimension=*/0);
    StreamingAuctionSelector streaming(
        stream_pop, *m.scoring, *m.strategy, wd,
        {ResourceDim::data_size, ResourceDim::category_proportion},
        /*data_dimension=*/0, staggered_arrivals(n));
    ComplianceSpec compliance;
    compliance.defect_probability = 0.35;
    batch.set_compliance(compliance);
    streaming.set_compliance(compliance);

    stats::Rng batch_rng(seed);
    stats::Rng stream_rng(seed);
    for (std::size_t round = 1; round <= 6; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const fl::SelectionRecord a = batch.select(round, k, batch_rng);
        const fl::SelectionRecord b = streaming.select(round, k, stream_rng);
        ASSERT_EQ(a.selected.size(), b.selected.size());
        for (std::size_t w = 0; w < a.selected.size(); ++w) {
            EXPECT_EQ(a.selected[w].client, b.selected[w].client);
            EXPECT_EQ(a.selected[w].payment, b.selected[w].payment);
            EXPECT_EQ(a.selected[w].score, b.selected[w].score);
            EXPECT_EQ(a.selected[w].train_samples, b.selected[w].train_samples);
        }
        EXPECT_EQ(a.all_scores, b.all_scores);
        EXPECT_EQ(a.scores_by_node, b.scores_by_node);
        EXPECT_EQ(batch.blacklist().size(), streaming.blacklist().size());
    }
    EXPECT_GT(batch.blacklist().size(), 0u)
        << "compliance model never banned anyone — blacklist propagation untested";
}

TEST(StreamingSelectorEquivalence, QuorumAndDeadlineTruncateTheRound) {
    const Market& m = market();
    const std::size_t n = 64;
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 6;

    // Quorum: the round closes at the 20th arrival even though all 64 bid.
    {
        MecPopulation pop(make_store(n, 0x9aULL));
        StreamingRoundConfig sc = staggered_arrivals(n);
        sc.quorum = 20;
        StreamingAuctionSelector streaming(
            pop, *m.scoring, *m.strategy, wd,
            {ResourceDim::data_size, ResourceDim::category_proportion},
            /*data_dimension=*/0, sc);
        stats::Rng rng(1);
        const auction::AuctionOutcome& outcome = streaming.run_auction_round(1, 6, rng);
        EXPECT_EQ(streaming.last_close_reason(), auction::CloseReason::quorum);
        EXPECT_EQ(streaming.last_arrived(), 20u);
        EXPECT_EQ(outcome.winners.size(), 6u);
    }
    // Deadline: only nodes whose latency beats the cut arrive.
    {
        MecPopulation pop(make_store(n, 0x9aULL));
        StreamingRoundConfig sc = staggered_arrivals(n);
        sc.deadline_s = 0.05;
        StreamingAuctionSelector streaming(
            pop, *m.scoring, *m.strategy, wd,
            {ResourceDim::data_size, ResourceDim::category_proportion},
            /*data_dimension=*/0, sc);
        stats::Rng rng(1);
        (void)streaming.run_auction_round(1, 6, rng);
        EXPECT_EQ(streaming.last_close_reason(), auction::CloseReason::deadline);
        EXPECT_EQ(streaming.last_close_time_s(), 0.05);
        std::size_t within = 0;
        for (const double latency : sc.bid_latencies_s)
            within += latency <= 0.05 ? 1 : 0;
        EXPECT_EQ(streaming.last_arrived(), within);
    }
    // Poisson arrivals: every active node still bids exactly once when no
    // trigger fires, and the process is deterministic under the seed.
    {
        MecPopulation pop(make_store(n, 0x9aULL));
        StreamingRoundConfig sc;
        sc.process = ArrivalProcess::poisson;
        sc.arrival_rate_hz = 500.0;
        StreamingAuctionSelector streaming(
            pop, *m.scoring, *m.strategy, wd,
            {ResourceDim::data_size, ResourceDim::category_proportion},
            /*data_dimension=*/0, sc);
        stats::Rng rng(1);
        const auction::AuctionOutcome& outcome = streaming.run_auction_round(1, 6, rng);
        EXPECT_EQ(streaming.last_close_reason(), auction::CloseReason::exhausted);
        EXPECT_EQ(streaming.last_arrived(), n);
        EXPECT_EQ(outcome.winners.size(), 6u);
    }
}

/// The reference for the streaming selector's round: the same drift and
/// collect into a frame of its own, the same arrival schedule offered bid
/// by bid to an `auction::StreamingMarket`, whose triggers and close decide
/// the round, and the winners' compliance rolls. It shares the selector's
/// rules and draw order, and no code of its close walk.
class MarketReplay {
public:
    MarketReplay(PopulationStore store, const auction::WinnerDeterminationConfig& wd,
                 StreamingRoundConfig sc)
        : population_(std::move(store)),
          sc_(std::move(sc)),
          market_(std::shared_ptr<const auction::Mechanism>(auction::make_mechanism(wd)),
                  *market().scoring) {}

    /// One round: drift (round > 1), collect, arrivals, ingest, close.
    const auction::StreamingMarket& run_round(std::size_t round, stats::Rng& rng) {
        const Market& m = market();
        if (round > 1) population_.evolve(rng);
        const std::size_t n = population_.size();
        frame_.reset(n, 2);
        collect_bid_rows(population_.store(), 0, n, data_category_extractor(), *m.strategy,
                         *m.scoring, m.strategy->scoring_rule() == m.scoring.get(),
                         auction::PaymentMethod::integral, bans_, frame_, 0, columns_,
                         /*parallel=*/true);
        frame_.set_scored(true);
        const ArrivalModel arrivals =
            sc_.process == ArrivalProcess::poisson
                ? ArrivalModel::poisson(n, sc_.arrival_rate_hz, rng)
                : ArrivalModel::closed_loop(sc_.bid_latencies_s);
        auction::StreamingRoundSpec spec;
        spec.deadline_s = sc_.deadline_s;
        spec.quorum = sc_.quorum;
        spec.expected_bids = frame_.active_count();
        market_.open_round(n, 2, spec, rng);
        for (const Arrival& arrival : arrivals.schedule()) {
            if (!frame_.active(arrival.node)) continue;
            if (!market_.offer(arrival.node, frame_.quality_row(arrival.node),
                               frame_.payment(arrival.node), frame_.score(arrival.node),
                               arrival.seconds))
                break;
        }
        (void)market_.close_round(rng);
        return market_;
    }

    /// The winners' compliance rolls; defectors are banned from later
    /// rounds.
    void settle(const ComplianceSpec& compliance, stats::Rng& rng) {
        (void)assemble_selection_record(
            market_.outcome(), population_.size(),
            [this](auction::NodeId node) { return market_.frame().quality_row(node)[0]; },
            compliance, bans_, rng);
    }

private:
    MecPopulation population_;
    StreamingRoundConfig sc_;
    auction::StreamingMarket market_;
    Blacklist bans_;
    auction::BidFrame frame_;
    std::vector<const double*> columns_;
};

TEST(StreamingSelectorEquivalence, CloseMatchesStreamingMarketReplay) {
    // The selector resolves its close in one walk of the schedule and ranks
    // the arrived rows with run_frame; the replay offers the same bids one
    // at a time to a StreamingMarket and closes it. Every round must agree
    // on the outcome, the close reason and time, the arrived count and the
    // draws consumed, over both tie modes, first-score, second-score and
    // psi < 1, closed-loop and Poisson arrivals, and every trigger, with
    // compliance bans thinning the market round by round.
    const Market& m = market();
    const std::size_t n = 60;
    const std::size_t k = 6;
    ComplianceSpec compliance;
    compliance.defect_probability = 0.3;
    std::size_t closes[4] = {};  // by CloseReason
    std::size_t bans = 0;
    std::uint64_t seed = 0xc105e0ULL;

    const auto check = [&](const auction::WinnerDeterminationConfig& wd,
                           const StreamingRoundConfig& sc) {
        ++seed;
        MecPopulation pop(make_store(n, seed));
        StreamingAuctionSelector selector(
            pop, *m.scoring, *m.strategy, wd,
            {ResourceDim::data_size, ResourceDim::category_proportion},
            /*data_dimension=*/0, sc);
        MarketReplay replay(make_store(n, seed), wd, sc);
        stats::Rng rng(seed);
        stats::Rng replay_rng(seed);
        for (std::size_t round = 1; round <= 5; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const auction::AuctionOutcome& got = selector.run_auction_round(round, k, rng);
            const auction::StreamingMarket& want = replay.run_round(round, replay_rng);
            auction::expect_outcomes_equal(want.outcome(), got);
            EXPECT_EQ(selector.last_close_reason(), want.close_reason());
            EXPECT_EQ(selector.last_close_time_s(), want.close_time_s());
            EXPECT_EQ(selector.last_arrived(), want.arrived());
            EXPECT_TRUE(rng.engine() == replay_rng.engine()) << "the rounds drew differently";
            ++closes[static_cast<std::size_t>(selector.last_close_reason())];

            // Compliance on both sides: the replay bans through its record,
            // the selector through its checkpoint hook, as a resumed run
            // restores its bans.
            replay.settle(compliance, replay_rng);
            Blacklist selector_bans = selector.blacklist();
            (void)assemble_selection_record(
                got, n,
                [&got](auction::NodeId node) {
                    for (const auction::ScoredBid& sb : got.ranking)
                        if (sb.bid.node == node) return sb.bid.quality[0];
                    throw std::logic_error("not a ranked node");
                },
                compliance, selector_bans, rng);
            fl::SelectorCheckpoint ckpt;
            for (const std::size_t node : selector_bans.banned_ids())
                ckpt.banned_nodes.push_back(node);
            selector.restore_checkpoint(ckpt);
        }
        bans += selector.blacklist().size();
    };

    for (const auction::TieBreak tie : {auction::TieBreak::shuffle, auction::TieBreak::salted}) {
        for (const std::string mechanism : {"first_score", "second_score", "psi_fmore"}) {
            auction::WinnerDeterminationConfig wd;
            wd.num_winners = k;
            wd.tie_break = tie;
            wd.full_ranking = false;
            if (mechanism == "second_score")
                wd.payment_rule = auction::PaymentRule::second_price;
            if (mechanism == "psi_fmore") wd.psi = 0.6;
            for (const bool poisson : {false, true}) {
                for (const std::string trigger : {"none", "quorum", "deadline", "both"}) {
                    SCOPED_TRACE(mechanism
                                 + (tie == auction::TieBreak::salted ? " salted" : " shuffle")
                                 + (poisson ? " poisson " : " closed-loop ") + trigger);
                    StreamingRoundConfig sc = staggered_arrivals(n);
                    if (poisson) {
                        sc.process = ArrivalProcess::poisson;
                        sc.arrival_rate_hz = 1000.0;  // all 60 bids in about 60 ms
                    }
                    if (trigger == "quorum" || trigger == "both") sc.quorum = 25;
                    // Closed-loop latencies repeat, so nodes 1, 24 and 47
                    // arrive exactly at this deadline, and count.
                    if (trigger == "deadline" || trigger == "both")
                        sc.deadline_s = poisson ? 0.03 : sc.bid_latencies_s[1];
                    check(wd, sc);
                }
            }
        }
    }
    // Every close reason fired, and bans thinned the market.
    EXPECT_GT(closes[static_cast<std::size_t>(auction::CloseReason::quorum)], 0u);
    EXPECT_GT(closes[static_cast<std::size_t>(auction::CloseReason::deadline)], 0u);
    EXPECT_GT(closes[static_cast<std::size_t>(auction::CloseReason::exhausted)], 0u);
    EXPECT_GT(bans, 0u);
}

TEST(StreamingSelectorEquivalence, AdaptiveQuorumRetunesAndReplaysByteIdentical) {
    // `timing.adaptive_quorum`: a deadline tight enough that rounds keep
    // deadline-closing walks the quorum DOWN window by window; the
    // schedule lands in the records (`bid_quorum`) and replays
    // byte-identically under the same seed.
    const Market& m = market();
    const std::size_t n = 64;
    const std::size_t k = 6;
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = k;
    StreamingRoundConfig sc = staggered_arrivals(n);
    sc.deadline_s = 0.05;   // ~1/3 of the latency tape beats this cut
    sc.quorum = 60;         // unreachable before the deadline: stalls
    sc.adaptive_quorum = true;
    const std::size_t rounds = 12;

    auto run = [&](std::vector<std::size_t>& schedule,
                   std::vector<std::size_t>& opened_with) {
        MecPopulation pop(make_store(n, 0xadadULL));
        StreamingAuctionSelector selector(
            pop, *m.scoring, *m.strategy, wd,
            {ResourceDim::data_size, ResourceDim::category_proportion},
            /*data_dimension=*/0, sc);
        stats::Rng rng(11);
        for (std::size_t round = 1; round <= rounds; ++round) {
            const fl::SelectionRecord record = selector.select(round, k, rng);
            opened_with.push_back(record.bid_quorum);
            EXPECT_EQ(record.bid_quorum, selector.last_quorum());
        }
        schedule = selector.quorum_schedule();
    };
    std::vector<std::size_t> schedule_a, schedule_b, opened_a, opened_b;
    run(schedule_a, opened_a);
    run(schedule_b, opened_b);
    ASSERT_EQ(schedule_a.size(), rounds);
    EXPECT_EQ(schedule_a, schedule_b);
    EXPECT_EQ(opened_a, opened_b);
    // The controller actually moved: deadline dominance stepped the target
    // below its seed, and every later round opened with the retuned value.
    EXPECT_EQ(opened_a.front(), sc.quorum);
    EXPECT_LT(schedule_a.back(), sc.quorum);
    EXPECT_EQ(opened_a.back(), schedule_a[rounds - 2]);
}

} // namespace
} // namespace fmore::mec
