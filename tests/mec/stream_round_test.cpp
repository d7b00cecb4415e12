// The cross-process streaming market: the position-independent arrival
// clock (stream_round.hpp), the coordinator-resolved close decision, and
// THE tentpole acceptance — `ProcessShardAggregator::run_streaming_round`
// bit-identical to the in-process StreamingMarket/StreamingHeadMerge
// composition over the same arrivals, for every wire mechanism, including
// under crash/respawn and wire-corruption fault plans.
//
// Deadline-boundary semantics pinned here (both layers): a bid arriving
// EXACTLY at the deadline is counted, a strictly later one misses; a
// quorum that fills on the very last eligible arrival closes as `quorum`,
// not `exhausted`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/mec/shard_aggregator.hpp"
#include "fmore/mec/stream_round.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/util/fault_injector.hpp"

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

QualityLayout layout() {
    return {ResourceDim::data_size, ResourceDim::category_proportion};
}

auction::WinnerDeterminationConfig wire_config(std::size_t k) {
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = k;
    wd.tie_break = auction::TieBreak::salted;
    wd.full_ranking = false;
    return wd;
}

void expect_outcomes_equal(const auction::AuctionOutcome& a,
                           const auction::AuctionOutcome& b) {
    ASSERT_EQ(a.winners.size(), b.winners.size());
    for (std::size_t w = 0; w < a.winners.size(); ++w) {
        EXPECT_EQ(a.winners[w].node, b.winners[w].node);
        EXPECT_EQ(a.winners[w].score, b.winners[w].score);
        EXPECT_EQ(a.winners[w].payment, b.winners[w].payment);
    }
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t r = 0; r < a.ranking.size(); ++r) {
        EXPECT_EQ(a.ranking[r].bid.node, b.ranking[r].bid.node);
        EXPECT_EQ(a.ranking[r].score, b.ranking[r].score);
        EXPECT_EQ(a.ranking[r].bid.payment, b.ranking[r].bid.payment);
    }
}

/// Sorted eligible arrival times of `[0, n)` minus `banned` under `salt`.
std::vector<std::pair<double, std::uint64_t>> arrival_order(
    std::size_t n, const Blacklist& banned, std::uint64_t salt, double horizon) {
    std::vector<std::pair<double, std::uint64_t>> order;
    for (std::uint64_t node = 0; node < n; ++node) {
        if (banned.contains(static_cast<auction::NodeId>(node))) continue;
        order.emplace_back(stream_arrival_s(salt, node, horizon), node);
    }
    std::sort(order.begin(), order.end());
    return order;
}

// ---------------------------------------------------------------------------
// The arrival clock and the close decision: pure-function semantics
// ---------------------------------------------------------------------------

TEST(StreamRound, ArrivalExactlyAtTheCloseCountsStrictlyLaterMisses) {
    // Time-only cut (deadline/exhaustion): the boundary sentinel admits
    // every node AT the close time.
    EXPECT_TRUE(stream_arrived(0.5, 7, 0.5, kStreamBoundaryAny));
    EXPECT_TRUE(stream_arrived(0.4999, 7, 0.5, kStreamBoundaryAny));
    EXPECT_FALSE(stream_arrived(std::nextafter(0.5, 1.0), 7, 0.5,
                                kStreamBoundaryAny));
    // Quorum cut: at the close time the boundary NODE decides — the
    // lexicographic (seconds, node) order the market replays.
    EXPECT_TRUE(stream_arrived(0.5, 7, 0.5, 7));
    EXPECT_TRUE(stream_arrived(0.5, 6, 0.5, 7));
    EXPECT_FALSE(stream_arrived(0.5, 8, 0.5, 7));
}

TEST(StreamRound, ResolveCloseMatchesTheArrivalScheduleExactly) {
    const std::size_t n = 64;
    const std::uint64_t salt = 0xfeedULL;
    const double horizon = 1.0;
    Blacklist none;
    const auto order = arrival_order(n, none, salt, horizon);

    // No quorum, no deadline: exhaustion at the last arrival.
    const StreamCloseDecision all =
        resolve_stream_close(n, none, salt, horizon, 0.0, 0);
    EXPECT_EQ(all.reason, auction::CloseReason::exhausted);
    EXPECT_EQ(all.arrived, n);
    EXPECT_EQ(all.close_time_s, order.back().first);
    EXPECT_EQ(all.boundary_node, kStreamBoundaryAny);

    // Quorum q: the round closes AT the q-th arrival, whose node is the
    // lexicographic boundary.
    const std::size_t q = 10;
    const StreamCloseDecision quorum =
        resolve_stream_close(n, none, salt, horizon, 0.0, q);
    EXPECT_EQ(quorum.reason, auction::CloseReason::quorum);
    EXPECT_EQ(quorum.arrived, q);
    EXPECT_EQ(quorum.close_time_s, order[q - 1].first);
    EXPECT_EQ(quorum.boundary_node, order[q - 1].second);

    // Deadline between two arrivals: everyone at or before it is in.
    const double deadline = 0.5 * (order[19].first + order[20].first);
    const StreamCloseDecision dl =
        resolve_stream_close(n, none, salt, horizon, deadline, 0);
    EXPECT_EQ(dl.reason, auction::CloseReason::deadline);
    EXPECT_EQ(dl.arrived, 20u);
    EXPECT_EQ(dl.close_time_s, deadline);

    // A deadline EXACTLY on an arrival counts that arrival.
    const StreamCloseDecision at =
        resolve_stream_close(n, none, salt, horizon, order[20].first, 0);
    EXPECT_EQ(at.reason, auction::CloseReason::deadline);
    EXPECT_EQ(at.arrived, 21u);

    // Replays are bit-identical: the decision is pure in its inputs.
    const StreamCloseDecision replay =
        resolve_stream_close(n, none, salt, horizon, deadline, 0);
    EXPECT_EQ(replay.arrived, dl.arrived);
    EXPECT_EQ(replay.close_time_s, dl.close_time_s);
    EXPECT_EQ(replay.boundary_node, dl.boundary_node);
}

TEST(StreamRound, QuorumOnTheFinalArrivalOutranksExhaustion) {
    const std::size_t n = 16;
    const std::uint64_t salt = 0xabcULL;
    Blacklist none;
    const auto order = arrival_order(n, none, salt, 1.0);
    const StreamCloseDecision d =
        resolve_stream_close(n, none, salt, 1.0, 0.0, n);
    EXPECT_EQ(d.reason, auction::CloseReason::quorum);
    EXPECT_EQ(d.arrived, n);
    EXPECT_EQ(d.close_time_s, order.back().first);
    EXPECT_EQ(d.boundary_node, order.back().second);

    // One more than the population can deliver: exhaustion, not a hang.
    const StreamCloseDecision short_of =
        resolve_stream_close(n, none, salt, 1.0, 0.0, n + 1);
    EXPECT_EQ(short_of.reason, auction::CloseReason::exhausted);
    EXPECT_EQ(short_of.arrived, n);
}

TEST(StreamRound, QuorumFillingArrivalPastTheDeadlineClosesAsDeadline) {
    const std::size_t n = 32;
    const std::uint64_t salt = 0x77ULL;
    Blacklist none;
    const auto order = arrival_order(n, none, salt, 1.0);
    // Deadline placed so only 5 bids make it; a quorum of 6 can't fill.
    const double deadline = 0.5 * (order[4].first + order[5].first);
    const StreamCloseDecision d =
        resolve_stream_close(n, none, salt, 1.0, deadline, 6);
    EXPECT_EQ(d.reason, auction::CloseReason::deadline);
    EXPECT_EQ(d.arrived, 5u);
    EXPECT_EQ(d.close_time_s, deadline);
    EXPECT_EQ(d.boundary_node, kStreamBoundaryAny);
}

TEST(StreamRound, BannedNodesNeverArrive) {
    const std::size_t n = 24;
    const std::uint64_t salt = 0x1234ULL;
    Blacklist banned;
    const auto order = arrival_order(n, banned, salt, 1.0);
    // Ban the two earliest arrivals: the quorum must fill from later ones.
    banned.ban(static_cast<auction::NodeId>(order[0].second));
    banned.ban(static_cast<auction::NodeId>(order[1].second));
    const StreamCloseDecision d =
        resolve_stream_close(n, banned, salt, 1.0, 0.0, 3);
    EXPECT_EQ(d.reason, auction::CloseReason::quorum);
    EXPECT_EQ(d.arrived, 3u);
    EXPECT_EQ(d.close_time_s, order[4].first);
    EXPECT_EQ(d.boundary_node, order[4].second);
}

// ---------------------------------------------------------------------------
// The in-process twin: StreamingMarket + close_round_sharded over the same
// store, draws, and arrival clock as the cross-process aggregator
// ---------------------------------------------------------------------------

/// Drives one in-process streaming round per call, consuming exactly the
/// aggregator's generator draws: one drift salt (round > 1), one tie salt
/// (inside open_round), one arrival salt.
class InProcessTwin {
public:
    InProcessTwin(std::size_t n, std::uint64_t store_seed,
                  const auction::WinnerDeterminationConfig& wd,
                  std::size_t num_shards)
        : store_(make_store(n, store_seed)),
          layout_(layout()),
          mechanism_(auction::make_mechanism(wd)),
          market_(mechanism_, *market().scoring),
          shard_starts_{0} {
        for (const std::size_t cut :
             PopulationStore::even_boundaries(n, num_shards))
            shard_starts_.push_back(cut);
    }

    void ban(auction::NodeId node) { banned_.ban(node); }

    const auction::AuctionOutcome& run_round(
        std::size_t round,
        const ProcessShardAggregator::StreamRoundPolicy& policy,
        stats::Rng& rng) {
        const Market& m = market();
        if (round > 1) store_.evolve_with_salt(rng.engine()());

        auction::StreamingRoundSpec spec;
        spec.deadline_s = policy.deadline_s;
        spec.quorum = policy.quorum;
        market_.open_round(store_.size(), layout_.size(), spec, rng);
        const std::uint64_t arrival_salt = rng.engine()();

        frame_.reset(store_.size(), layout_.size());
        collect_bid_rows(store_, 0, store_.size(), layout_, *m.strategy,
                         *m.scoring,
                         m.strategy->scoring_rule() == m.scoring.get(),
                         auction::PaymentMethod::integral, banned_, frame_, 0,
                         columns_, /*parallel=*/false);
        frame_.set_scored(true);

        // Offer the eligible bids in (seconds, node) order — the replay
        // order the close cut is defined over.
        std::vector<std::pair<double, std::uint64_t>> order;
        for (auction::NodeId node = 0; node < frame_.rows(); ++node) {
            if (!frame_.active(node)) continue;
            order.emplace_back(
                stream_arrival_s(arrival_salt, node, policy.arrival_horizon_s),
                node);
        }
        std::sort(order.begin(), order.end());
        for (const auto& [sec, node64] : order) {
            const auction::NodeId node = static_cast<auction::NodeId>(node64);
            if (!market_.offer(node, frame_.quality_row(node),
                               frame_.payment(node), frame_.score(node), sec))
                break;
        }
        return market_.close_round_sharded(rng, shard_starts_);
    }

    [[nodiscard]] const auction::StreamingMarket& market_state() const {
        return market_;
    }

private:
    PopulationStore store_;
    QualityLayout layout_;
    std::shared_ptr<const auction::Mechanism> mechanism_;
    auction::StreamingMarket market_;
    Blacklist banned_;
    auction::BidFrame frame_;
    std::vector<const double*> columns_;
    std::vector<std::size_t> shard_starts_;
};

/// The round policies the equivalence runs cycle through: a deadline
/// close, a quorum close, an exhaustion close (no triggers), and a quorum
/// that fills exactly on the final eligible arrival.
ProcessShardAggregator::StreamRoundPolicy policy_for(std::size_t round,
                                                     std::size_t eligible) {
    ProcessShardAggregator::StreamRoundPolicy policy;
    switch (round % 4) {
    case 1: policy.deadline_s = 0.6; break;
    case 2: policy.quorum = eligible / 4; break;
    case 3: break;  // exhaustion
    default:
        policy.quorum = eligible;  // fills on the final offer
        policy.deadline_s = 0.0;
        break;
    }
    return policy;
}

TEST(StreamRound, CrossProcessRoundMatchesInProcessCompositionEveryMechanism) {
    const Market& m = market();
    const std::size_t n = 80;
    const std::size_t k = 8;
    const std::size_t shards = 4;
    const std::uint64_t seed = 0x57e11aULL;
    for (const std::string& name :
         {std::string("first_score"), std::string("second_score"),
          std::string("psi_fmore"), std::string("budget_feasible")}) {
        SCOPED_TRACE(name);
        auction::WinnerDeterminationConfig wd = wire_config(k);
        wd.mechanism = name;
        if (name == "budget_feasible") wd.budget = 500.0;

        ProcessShardAggregator aggregator(make_store(n, seed), *m.scoring,
                                          *m.strategy, wd, layout(), shards,
                                          /*shard_timeout_s=*/30.0);
        InProcessTwin twin(n, seed, wd, shards);
        stats::Rng agg_rng(seed);
        stats::Rng twin_rng(seed);
        std::size_t eligible = n;
        for (std::size_t round = 1; round <= 5; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const auto policy = policy_for(round, eligible);
            const auction::AuctionOutcome& a =
                aggregator.run_streaming_round(round, k, policy, agg_rng);
            const auction::AuctionOutcome& b =
                twin.run_round(round, policy, twin_rng);
            EXPECT_TRUE(aggregator.last_dropped_shards().empty());
            expect_outcomes_equal(a, b);
            // Close telemetry is part of the bit-identity contract.
            EXPECT_EQ(aggregator.last_close_reason(),
                      twin.market_state().close_reason());
            EXPECT_EQ(aggregator.last_close_time_s(),
                      twin.market_state().close_time_s());
            EXPECT_EQ(aggregator.last_arrived(),
                      twin.market_state().arrived());
            // Bans propagate to the next round on both sides.
            if (round == 2 && !a.winners.empty()) {
                aggregator.ban(a.winners.front().node);
                twin.ban(a.winners.front().node);
                --eligible;
            }
        }
    }
}

TEST(StreamRound, CrossProcessStreamingSurvivesCrashRespawnBitIdentical) {
    // Kill shard 1's worker in round 2; with a respawn budget
    // the supervisor re-forks and re-syncs it, and every later streaming
    // round must match both a never-faulted aggregator AND the in-process
    // twin — for every wire mechanism.
    const Market& m = market();
    const std::size_t n = 80;
    const std::size_t k = 8;
    const std::size_t shards = 4;
    const std::uint64_t seed = 0x57e22bULL;
    for (const std::string& name :
         {std::string("first_score"), std::string("second_score"),
          std::string("psi_fmore"), std::string("budget_feasible")}) {
        SCOPED_TRACE(name);
        auction::WinnerDeterminationConfig wd = wire_config(k);
        wd.mechanism = name;
        if (name == "budget_feasible") wd.budget = 500.0;
        ShardSupervisorConfig sup;
        sup.faults = util::FaultInjector::from_events(
            {{/*shard=*/1, /*round=*/2, util::FaultKind::crash_before_reply, 0.0}});
        sup.max_respawns = 2;

        ProcessShardAggregator clean(make_store(n, seed), *m.scoring, *m.strategy,
                                     wd, layout(), shards,
                                     /*shard_timeout_s=*/30.0);
        ProcessShardAggregator faulty(make_store(n, seed), *m.scoring,
                                      *m.strategy, wd, layout(), shards,
                                      /*shard_timeout_s=*/30.0, sup);
        InProcessTwin twin(n, seed, wd, shards);
        stats::Rng rng_clean(seed);
        stats::Rng rng_faulty(seed);
        stats::Rng rng_twin(seed);
        for (std::size_t round = 1; round <= 5; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            ProcessShardAggregator::StreamRoundPolicy policy;
            policy.quorum = n / 3;
            const auction::AuctionOutcome& a =
                clean.run_streaming_round(round, k, policy, rng_clean);
            const auction::AuctionOutcome& b =
                faulty.run_streaming_round(round, k, policy, rng_faulty);
            const auction::AuctionOutcome& c =
                twin.run_round(round, policy, rng_twin);
            expect_outcomes_equal(a, c);
            if (round == 2) {
                EXPECT_EQ(faulty.last_dropped_shards(),
                          (std::vector<std::size_t>{1}));
                EXPECT_EQ(faulty.last_health().evictions, 1u);
                continue;
            }
            EXPECT_TRUE(faulty.last_dropped_shards().empty());
            if (round == 3) {
                EXPECT_EQ(faulty.last_health().respawns, 1u);
                EXPECT_EQ(faulty.live_shards(), shards);
            }
            expect_outcomes_equal(a, b);
            EXPECT_EQ(faulty.last_close_reason(), clean.last_close_reason());
            EXPECT_EQ(faulty.last_close_time_s(), clean.last_close_time_s());
        }
        EXPECT_EQ(faulty.lifetime_health().evictions, 1u);
        EXPECT_EQ(faulty.lifetime_health().respawns, 1u);
    }
}

TEST(StreamRound, CorruptHeadIsResentOnceAndNeverConsumed) {
    // A bit-flipped head fails the payload CRC; the coordinator asks for it
    // once more and consumes only the clean resend — outcome identical to
    // an un-faulted twin, zero evictions.
    const Market& m = market();
    const std::size_t n = 60;
    const std::uint64_t seed = 0x57e33cULL;
    const auction::WinnerDeterminationConfig wd = wire_config(6);
    ProcessShardAggregator clean(make_store(n, seed), *m.scoring, *m.strategy,
                                 wd, layout(), /*num_shards=*/3,
                                 /*shard_timeout_s=*/30.0);
    ProcessShardAggregator corrupt(
        make_store(n, seed), *m.scoring, *m.strategy, wd, layout(),
        /*num_shards=*/3, /*shard_timeout_s=*/30.0,
        ShardSupervisorConfig{
            .faults = util::FaultInjector::from_events(
                {{/*shard=*/0, /*round=*/2, util::FaultKind::bit_flip, 0.0}})});
    stats::Rng rng_clean(seed);
    stats::Rng rng_corrupt(seed);
    for (std::size_t round = 1; round <= 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        ProcessShardAggregator::StreamRoundPolicy policy;
        policy.deadline_s = 0.7;
        const auction::AuctionOutcome& a =
            clean.run_streaming_round(round, 6, policy, rng_clean);
        const auction::AuctionOutcome& b =
            corrupt.run_streaming_round(round, 6, policy, rng_corrupt);
        EXPECT_TRUE(corrupt.last_dropped_shards().empty());
        EXPECT_EQ(corrupt.last_health().frame_retries, round == 2 ? 1u : 0u);
        EXPECT_EQ(corrupt.last_health().evictions, 0u);
        expect_outcomes_equal(a, b);
    }
    EXPECT_GE(corrupt.lifetime_health().corrupt_frames, 1u);
    EXPECT_EQ(corrupt.dead_shards(), 0u);
}

TEST(StreamRound, StreamingPolicyValidation) {
    const Market& m = market();
    ProcessShardAggregator aggregator(make_store(20, 9), *m.scoring, *m.strategy,
                                      wire_config(4), layout(), /*num_shards=*/2,
                                      /*shard_timeout_s=*/30.0);
    stats::Rng rng(9);
    ProcessShardAggregator::StreamRoundPolicy bad_horizon;
    bad_horizon.arrival_horizon_s = 0.0;
    EXPECT_THROW((void)aggregator.run_streaming_round(1, 4, bad_horizon, rng),
                 std::invalid_argument);
    ProcessShardAggregator::StreamRoundPolicy bad_deadline;
    bad_deadline.deadline_s = -1.0;
    EXPECT_THROW((void)aggregator.run_streaming_round(1, 4, bad_deadline, rng),
                 std::invalid_argument);
    // The aggregator is still usable after a rejected policy.
    ProcessShardAggregator::StreamRoundPolicy ok;
    const auction::AuctionOutcome& o =
        aggregator.run_streaming_round(1, 4, ok, rng);
    EXPECT_EQ(o.winners.size(), 4u);
    EXPECT_EQ(aggregator.last_close_reason(), auction::CloseReason::exhausted);
    EXPECT_EQ(aggregator.last_arrived(), 20u);
}

} // namespace
} // namespace fmore::mec
