// The latency-discounted mechanism against an oracle that shares no code
// with it: every bid's discounted score s(q) - p - lambda * latency[node]
// written out here, a plain std::sort over (score desc, salted tie key asc,
// node asc), truncation at the cutoff the spec implies, and second-score
// prices max(ask, s(q) - best losing discounted score). The twin suites
// (StreamingEquivalence) compare two paths that both call the mechanism's
// ranking, so a ranking that dropped the discount would pass them; this
// one would not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {
namespace {

struct Expected {
    NodeId node = 0;
    double score = 0.0;
    std::uint64_t key = 0;
    std::size_t bid = 0;
};

/// Bids on a coarse grid, so exact score ties (decided by the tie key) are
/// common. Node ids are a random subset of [0, 2n), listed out of order.
std::vector<Bid> random_bids(std::size_t n, stats::Rng& rng) {
    std::vector<std::size_t> ids(2 * n);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    rng.shuffle(ids);
    std::vector<Bid> bids;
    for (std::size_t i = 0; i < n; ++i) {
        Bid bid;
        bid.node = ids[i];
        bid.quality = {static_cast<double>(rng.uniform_int(1, 4)),
                       static_cast<double>(rng.uniform_int(1, 3))};
        bid.payment = 0.5 * static_cast<double>(rng.uniform_int(0, 4));
        bids.push_back(bid);
    }
    return bids;
}

/// The whole oracle: discount, salted keys, a full sort, the cut.
std::vector<Expected> oracle_ranking(const ScoringRule& scoring, const std::vector<Bid>& bids,
                                     const MechanismSpec& spec, std::uint64_t salt) {
    std::vector<Expected> rows;
    for (std::size_t i = 0; i < bids.size(); ++i) {
        const Bid& bid = bids[i];
        const double latency = bid.node < spec.expected_latency_s.size()
                                   ? spec.expected_latency_s[bid.node]
                                   : 0.0;
        const double s = scoring.quality_score(bid.quality);
        rows.push_back({bid.node, s - bid.payment - spec.latency_discount * latency,
                        stats::derive_stream_seed(salt, bid.node), i});
    }
    std::sort(rows.begin(), rows.end(), [](const Expected& a, const Expected& b) {
        if (a.score > b.score) return true;
        if (b.score > a.score) return false;
        if (a.key != b.key) return a.key < b.key;
        return a.node < b.node;
    });
    std::size_t cut = rows.size();
    if (!spec.full_ranking) {
        cut = std::min(cut, spec.num_winners
                                + (spec.payment_rule == PaymentRule::second_price ? 1 : 0));
    }
    rows.resize(cut);
    return rows;
}

MechanismSpec random_spec(std::size_t n, bool full, bool second, stats::Rng& rng) {
    MechanismSpec spec;
    spec.num_winners = static_cast<std::size_t>(rng.uniform_int(1, 6));
    spec.full_ranking = full;
    spec.payment_rule = second ? PaymentRule::second_price : PaymentRule::first_price;
    spec.tie_break = TieBreak::salted;
    spec.latency_discount = 0.25 * static_cast<double>(rng.uniform_int(1, 4));
    // Shorter than the id range: nodes past its end read as zero latency.
    spec.expected_latency_s.resize(n);
    for (double& latency : spec.expected_latency_s)
        latency = 0.5 * static_cast<double>(rng.uniform_int(0, 3));
    return spec;
}

TEST(LatencyDiscountOracle, RankingIsTheDiscountedSort) {
    const AdditiveScoring scoring({1.0, 0.5});
    stats::Rng gen(0x1a7e0c1eULL);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = static_cast<std::size_t>(gen.uniform_int(1, 40));
        const bool full = trial % 2 == 0;
        const bool second = trial % 3 == 0;
        const MechanismSpec spec = random_spec(n, full, second, gen);
        const std::vector<Bid> bids = random_bids(n, gen);
        const std::unique_ptr<Mechanism> mechanism = make_mechanism(spec);
        ASSERT_EQ(mechanism->name(), "latency_discounted");

        stats::Rng rng(0x5eedULL + static_cast<std::uint64_t>(trial));
        stats::Rng oracle_rng = rng;
        const std::uint64_t salt = oracle_rng.engine()();
        const std::vector<Expected> expected = oracle_ranking(scoring, bids, spec, salt);
        const std::vector<ScoredBid> ranking = mechanism->rank(scoring, bids, rng);

        SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n));
        ASSERT_EQ(ranking.size(), expected.size());
        for (std::size_t r = 0; r < expected.size(); ++r) {
            EXPECT_EQ(ranking[r].bid.node, expected[r].node) << "rank " << r;
            EXPECT_EQ(ranking[r].score, expected[r].score) << "rank " << r;
            EXPECT_EQ(ranking[r].bid.payment, bids[expected[r].bid].payment);
            EXPECT_EQ(ranking[r].bid.quality, bids[expected[r].bid].quality);
        }
        // The generator advanced by exactly the salt draw.
        EXPECT_EQ(rng.engine()(), oracle_rng.engine()());
    }
}

TEST(LatencyDiscountOracle, WinnersPayAgainstTheBestLosingDiscountedScore) {
    const AdditiveScoring scoring({1.0, 0.5});
    stats::Rng gen(0xb1dd15c0ULL);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = static_cast<std::size_t>(gen.uniform_int(1, 40));
        const bool full = trial % 2 == 0;
        const bool second = trial % 4 != 0;
        const MechanismSpec spec = random_spec(n, full, second, gen);
        const std::vector<Bid> bids = random_bids(n, gen);
        const std::unique_ptr<Mechanism> mechanism = make_mechanism(spec);

        stats::Rng rng(0xfeedULL + static_cast<std::uint64_t>(trial));
        stats::Rng oracle_rng = rng;
        const std::uint64_t salt = oracle_rng.engine()();
        const std::vector<Expected> expected = oracle_ranking(scoring, bids, spec, salt);

        // Frame rounds reach the mechanism through the vector adapter, so
        // they must price the same way.
        BidFrame frame;
        frame.from_bids(bids);
        RankScratch scratch;
        AuctionOutcome from_frame;
        stats::Rng frame_rng = rng;
        mechanism->run_frame(scoring, frame, frame_rng, scratch, from_frame);
        const AuctionOutcome outcome = mechanism->run(scoring, bids, rng);

        const std::size_t k = std::min(spec.num_winners, expected.size());
        const double best_losing = k < expected.size() ? expected[k].score : 0.0;
        SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n));
        ASSERT_EQ(outcome.winners.size(), k);
        ASSERT_EQ(from_frame.winners.size(), k);
        for (std::size_t w = 0; w < k; ++w) {
            const Bid& bid = bids[expected[w].bid];
            const double price =
                second ? std::max(bid.payment, scoring.quality_score(bid.quality) - best_losing)
                       : bid.payment;
            EXPECT_EQ(outcome.winners[w].node, expected[w].node) << "winner " << w;
            EXPECT_EQ(outcome.winners[w].score, expected[w].score) << "winner " << w;
            EXPECT_EQ(outcome.winners[w].payment, price) << "winner " << w;
            EXPECT_EQ(from_frame.winners[w].node, expected[w].node) << "winner " << w;
            EXPECT_EQ(from_frame.winners[w].payment, price) << "winner " << w;
        }
    }
}

} // namespace
} // namespace fmore::auction
