// Sort-everything oracles for every site that keeps the market's head: the
// fused frame ranking at 1 and 4 round threads, per-shard heads through the
// batch and the streaming merge, the streaming market's close, and the
// stream-close decision over arrival times. Each site is compared with a
// std::sort of every row, written out here, truncated at the site's cap.
// Inputs are built to break comparators: random N up to 3000, caps at the
// edges (0, 1, K, N - 1, N, N + 1, unbounded), scores from a handful of
// values (exact ties decided by the key, keys themselves from three
// values), and NaN, +-inf and +-0 scores. NaN ranks after every number and
// +0 ties -0; the oracle states that rule independently of the code.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/stream_round.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

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

bool same_bits(double a, double b) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

/// One row as the oracle sees it.
struct Row {
    NodeId node = 0;
    double score = 0.0;
    std::uint64_t key = 0;
};

/// The market order, stated on its own: numbers before NaN, numbers by
/// value descending (+0 equal to -0), then tie key ascending, then node.
bool oracle_before(const Row& a, const Row& b) {
    const int a_class = std::isnan(a.score) ? 1 : 0;
    const int b_class = std::isnan(b.score) ? 1 : 0;
    if (a_class != b_class) return a_class < b_class;
    if (a_class == 0 && !(a.score == b.score)) return a.score > b.score;
    if (a.key != b.key) return a.key < b.key;
    return a.node < b.node;
}

std::vector<Row> sorted_cut(std::vector<Row> rows, std::size_t cap) {
    std::sort(rows.begin(), rows.end(), oracle_before);
    if (rows.size() > cap) rows.resize(cap);
    return rows;
}

/// A score source for one trial: either a pool of at most four values
/// (heavy ties, specials included) or continuous scores with specials
/// sprinkled in.
class ScoreSource {
public:
    explicit ScoreSource(stats::Rng& rng) {
        static const double kSpecials[] = {kNaN, kInf, -kInf, 0.0, -0.0, 1.5, -2.25, 3.0};
        heavy_ = rng.bernoulli(0.6);
        if (heavy_) {
            const auto count = static_cast<std::size_t>(rng.uniform_int(1, 4));
            for (std::size_t i = 0; i < count; ++i)
                pool_.push_back(kSpecials[rng.uniform_int(0, 7)]);
        }
    }
    double draw(stats::Rng& rng) const {
        if (heavy_) return pool_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool_.size()) - 1))];
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.05) return kNaN;
        if (u < 0.07) return u < 0.06 ? kInf : -kInf;
        if (u < 0.09) return u < 0.08 ? 0.0 : -0.0;
        return rng.uniform(-5.0, 5.0);
    }

private:
    bool heavy_ = false;
    std::vector<double> pool_;
};

/// A scored frame of `n` rows, ~90% active, scores from `source`.
BidFrame random_frame(std::size_t n, const ScoreSource& source, stats::Rng& rng) {
    BidFrame frame(n, 2);
    for (NodeId row = 0; row < n; ++row) {
        frame.set_active(row, rng.uniform(0.0, 1.0) < 0.9);
        frame.quality_row(row)[0] = rng.uniform(0.0, 100.0);
        frame.quality_row(row)[1] = rng.uniform(0.0, 1.0);
        frame.payment(row) = rng.uniform(0.0, 3.0);
        frame.score(row) = source.draw(rng);
    }
    frame.set_scored(true);
    return frame;
}

std::size_t random_n(stats::Rng& rng) {
    // Mostly small boards (edge caps bite there), some past one 2048-row
    // chunk so the fused pass splits across worker slots.
    return rng.bernoulli(0.3) ? static_cast<std::size_t>(rng.uniform_int(2049, 3000))
                              : static_cast<std::size_t>(rng.uniform_int(0, 64));
}

/// A cap at one of the edges the heaps must get right.
std::size_t random_cap(std::size_t n, stats::Rng& rng) {
    switch (rng.uniform_int(0, 6)) {
        case 0: return 0;
        case 1: return 1;
        case 2: return static_cast<std::size_t>(rng.uniform_int(2, 40));
        case 3: return n == 0 ? 0 : n - 1;
        case 4: return n;
        case 5: return n + 1;
        default: return kUnbounded;
    }
}

/// Random sorted cut points splitting [0, n) into 1..8 shards (some empty).
std::vector<std::size_t> random_starts(std::size_t n, stats::Rng& rng) {
    const auto shards = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<std::size_t> starts{0};
    for (std::size_t s = 1; s < shards; ++s)
        starts.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n))));
    std::sort(starts.begin(), starts.end());
    return starts;
}

/// Rows [lo, hi) of `frame` in a frame of their own, as a shard holds its
/// bids: local rows, node ids `lo + row`.
BidFrame shard_frame(const BidFrame& frame, std::size_t lo, std::size_t hi) {
    BidFrame local(hi - lo, frame.dims());
    for (NodeId row = 0; row < hi - lo; ++row) {
        local.set_active(row, frame.active(lo + row));
        const double* q = frame.quality_row(lo + row);
        std::copy(q, q + frame.dims(), local.quality_row(row));
        local.payment(row) = frame.payment(lo + row);
        local.score(row) = frame.score(lo + row);
    }
    local.set_scored(true);
    return local;
}

std::vector<Row> active_rows(const BidFrame& frame, const TieKeys& keys) {
    std::vector<Row> rows;
    for (NodeId row = 0; row < frame.rows(); ++row) {
        if (frame.active(row)) rows.push_back({row, frame.score(row), keys.key(row)});
    }
    return rows;
}

/// Shuffle-mode keys with at most three distinct values, so the key
/// clause ties as often as the score clause does.
std::vector<std::uint32_t> heavy_key_table(std::size_t n, stats::Rng& rng) {
    std::vector<std::uint32_t> pos(n);
    for (std::uint32_t& p : pos) p = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
    return pos;
}

void expect_ranking(const std::vector<ScoredBid>& ranking, const std::vector<Row>& expected,
                    const BidFrame& frame) {
    ASSERT_EQ(ranking.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(ranking[r].bid.node, expected[r].node) << "rank " << r;
        EXPECT_TRUE(same_bits(ranking[r].score, expected[r].score)) << "rank " << r;
        EXPECT_TRUE(same_bits(ranking[r].bid.payment, frame.payment(expected[r].node)));
        ASSERT_EQ(ranking[r].bid.quality.size(), frame.dims());
        EXPECT_TRUE(same_bits(ranking[r].bid.quality[0], frame.quality_row(expected[r].node)[0]));
    }
}

void expect_head(const ShardHead& head, const std::vector<Row>& expected) {
    ASSERT_EQ(head.rows.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(head.rows[r].node, expected[r].node) << "row " << r;
        EXPECT_EQ(head.rows[r].key, expected[r].key) << "row " << r;
        EXPECT_TRUE(same_bits(head.rows[r].score, expected[r].score)) << "row " << r;
    }
}

/// The cut a score-auction spec implies over `m` active bids.
std::size_t spec_cut(const MechanismSpec& spec, std::size_t m) {
    if (spec.full_ranking) return m;
    const std::size_t extra = spec.payment_rule == PaymentRule::second_price ? 1 : 0;
    return std::min(m, spec.num_winners + extra);
}

/// A spec whose cut lands on one of the edge caps over `m` active bids.
MechanismSpec edge_spec(std::size_t m, bool salted, stats::Rng& rng) {
    MechanismSpec spec;
    spec.tie_break = salted ? TieBreak::salted : TieBreak::shuffle;
    spec.payment_rule =
        rng.bernoulli(0.3) ? PaymentRule::second_price : PaymentRule::first_price;
    const std::size_t cap = random_cap(m, rng);
    spec.full_ranking = cap == kUnbounded;
    spec.num_winners = std::max<std::size_t>(1, spec.full_ranking ? 1 : cap);
    return spec;
}

/// The keys a ranking site draws from `rng` over the active rows: the
/// salt, or the shuffled position of each row (drawn on a copy).
std::vector<std::uint32_t> oracle_keys(const BidFrame& frame, bool salted, stats::Rng rng,
                                       TieKeys& keys) {
    std::vector<std::uint32_t> pos(frame.rows());
    keys = TieKeys{};
    if (salted) {
        keys.salted = true;
        keys.salt = rng.engine()();
        return pos;
    }
    std::vector<std::size_t> order;
    for (NodeId row = 0; row < frame.rows(); ++row)
        if (frame.active(row)) order.push_back(row);
    rng.shuffle(order);
    for (std::size_t j = 0; j < order.size(); ++j)
        pos[order[j]] = static_cast<std::uint32_t>(j);
    return pos;
}

TEST(MarketOrderOracle, RankFrameIsTheFullSortCut) {
    const ScaledProductScoring scoring(
        25.0, 2, {stats::MinMaxNormalizer(0.0, 100.0), stats::MinMaxNormalizer(0.0, 1.0)});
    stats::Rng gen(0x0a1c1e01ULL);
    for (int trial = 0; trial < 160; ++trial) {
        const std::size_t n = random_n(gen);
        const ScoreSource source(gen);
        const BidFrame frame = random_frame(n, source, gen);
        const std::size_t m = frame.active_count();
        const bool salted = gen.bernoulli(0.5);
        const MechanismSpec spec = edge_spec(m, salted, gen);
        const ScoreAuctionMechanism engine(spec);
        const std::uint64_t seed = gen.engine()();

        TieKeys keys;
        const std::vector<std::uint32_t> pos = oracle_keys(frame, salted, stats::Rng(seed), keys);
        if (!salted) keys.pos = pos.data();
        const std::vector<Row> expected =
            sorted_cut(active_rows(frame, keys), spec_cut(spec, m));

        for (const char* threads : {"1", "4"}) {
            const ScopedEnv env("FMORE_ROUND_THREADS", threads);
            SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n)
                         + ", threads " + threads);
            stats::Rng rng(seed);
            RankScratch scratch;
            std::vector<ScoredBid> head;
            engine.rank_frame(scoring, frame, rng, scratch, head);
            expect_ranking(head, expected, frame);
        }
    }
}

TEST(MarketOrderOracle, ShardHeadsMergeToTheFullSortCut) {
    stats::Rng gen(0x0a1c1e02ULL);
    for (int trial = 0; trial < 240; ++trial) {
        const std::size_t n = random_n(gen);
        const ScoreSource source(gen);
        const BidFrame frame = random_frame(n, source, gen);
        std::vector<std::uint32_t> pos;
        TieKeys keys;
        if (gen.bernoulli(0.5)) {
            keys.salted = true;
            keys.salt = gen.engine()();
        } else {
            pos = heavy_key_table(n, gen);
            keys.pos = pos.data();
        }
        const std::size_t cap = random_cap(frame.active_count(), gen);
        const std::vector<std::size_t> starts = random_starts(n, gen);
        const std::vector<Row> expected = sorted_cut(active_rows(frame, keys), cap);
        SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n)
                     + ", cap " + std::to_string(cap) + ", shards "
                     + std::to_string(starts.size()));

        std::vector<ShardHead> heads(starts.size());
        for (std::size_t s = 0; s < starts.size(); ++s) {
            const std::size_t end = s + 1 < starts.size() ? starts[s + 1] : n;
            collect_shard_head(shard_frame(frame, starts[s], end), starts[s], keys, cap,
                               heads[s]);
            std::vector<Row> shard_rows;
            for (const Row& row : active_rows(frame, keys))
                if (row.node >= starts[s] && row.node < end) shard_rows.push_back(row);
            expect_head(heads[s], sorted_cut(shard_rows, cap));
        }

        std::vector<ScoredBid> merged;
        merge_heads(heads, cap, merged);
        expect_ranking(merged, expected, frame);

        // The streaming merge, heads in random order, half of them fed row
        // by row.
        std::vector<std::size_t> feed(heads.size());
        for (std::size_t s = 0; s < feed.size(); ++s) feed[s] = s;
        gen.shuffle(feed);
        // The merge's arena holds `cutoff` rows, so it takes a cut no
        // larger than the market.
        StreamingHeadMerge streaming;
        streaming.open(frame.dims(), std::min(cap, n));
        for (const std::size_t s : feed) {
            if (gen.bernoulli(0.5)) {
                streaming.ingest(heads[s]);
            } else {
                for (std::size_t r = 0; r < heads[s].rows.size(); ++r)
                    streaming.ingest_row(heads[s].rows[r], heads[s].quality_row(r));
            }
        }
        std::vector<ScoredBid> streamed;
        streaming.finish(streamed);
        expect_ranking(streamed, expected, frame);
    }
}

TEST(MarketOrderOracle, StreamingCloseIsTheFullSortCut) {
    const ScaledProductScoring scoring(
        25.0, 2, {stats::MinMaxNormalizer(0.0, 100.0), stats::MinMaxNormalizer(0.0, 1.0)});
    stats::Rng gen(0x0a1c1e03ULL);
    for (int trial = 0; trial < 160; ++trial) {
        const std::size_t n = random_n(gen);
        const ScoreSource source(gen);
        const BidFrame bids = random_frame(n, source, gen);
        const std::size_t m = bids.active_count();
        const bool salted = gen.bernoulli(0.7);
        const MechanismSpec spec = edge_spec(m, salted, gen);
        const auto engine = std::make_shared<const ScoreAuctionMechanism>(spec);
        const std::uint64_t seed = gen.engine()();

        // Bids arrive in a random order; the arrived set is the active rows.
        std::vector<NodeId> arrival;
        for (NodeId row = 0; row < n; ++row)
            if (bids.active(row)) arrival.push_back(row);
        std::vector<std::size_t> order(arrival.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        gen.shuffle(order);

        StreamingMarket market(engine, scoring);
        stats::Rng rng(seed);
        StreamingRoundSpec round;
        round.expected_bids = m;
        market.open_round(n, 2, round, rng);
        double clock = 0.0;
        for (const std::size_t i : order) {
            const NodeId node = arrival[i];
            ASSERT_TRUE(market.offer(node, bids.quality_row(node), bids.payment(node),
                                     bids.score(node), clock));
            clock += 0.001;
        }
        const AuctionOutcome& outcome = market.close_round(rng);

        // Salted rounds draw their salt at open; shuffle rounds replay the
        // batch pass at close. Either way the first draw is the coin flip.
        TieKeys keys;
        const std::vector<std::uint32_t> pos = oracle_keys(market.frame(), salted,
                                                           stats::Rng(seed), keys);
        if (!salted) keys.pos = pos.data();
        SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n)
                     + (salted ? ", salted" : ", shuffle"));
        expect_ranking(outcome.ranking, sorted_cut(active_rows(bids, keys), spec_cut(spec, m)),
                       bids);
    }
}

TEST(MarketOrderOracle, StreamCloseMatchesSortedArrivals) {
    stats::Rng gen(0x0a1c1e04ULL);
    for (int trial = 0; trial < 300; ++trial) {
        const auto n = static_cast<std::size_t>(gen.uniform_int(0, 400));
        mec::Blacklist banned;
        for (std::size_t node = 0; node < n; ++node)
            if (gen.bernoulli(0.1)) banned.ban(node);
        const std::uint64_t salt = gen.engine()();
        const double horizon = gen.uniform(0.5, 4.0);
        const double deadline = gen.bernoulli(0.3) ? 0.0 : gen.uniform(0.0, horizon);
        const auto quorum = static_cast<std::size_t>(
            gen.uniform_int(0, static_cast<std::int64_t>(n) + 2));

        struct Tick {
            double seconds;
            std::uint64_t node;
        };
        std::vector<Tick> ticks;
        for (std::size_t node = 0; node < n; ++node)
            if (!banned.contains(node))
                ticks.push_back({mec::stream_arrival_s(salt, node, horizon), node});
        std::sort(ticks.begin(), ticks.end(), [](const Tick& a, const Tick& b) {
            return a.seconds < b.seconds || (a.seconds == b.seconds && a.node < b.node);
        });

        mec::StreamCloseDecision expected;
        std::size_t by_deadline = 0;
        for (const Tick& tick : ticks)
            if (deadline <= 0.0 || tick.seconds <= deadline) ++by_deadline;
        if (quorum > 0 && ticks.size() >= quorum
            && (deadline <= 0.0 || ticks[quorum - 1].seconds <= deadline)) {
            expected.reason = CloseReason::quorum;
            expected.close_time_s = ticks[quorum - 1].seconds;
            expected.boundary_node = ticks[quorum - 1].node;
            expected.arrived = quorum;
        } else if (deadline > 0.0 && by_deadline < ticks.size()) {
            expected.reason = CloseReason::deadline;
            expected.close_time_s = deadline;
            expected.arrived = by_deadline;
        } else {
            expected.reason = CloseReason::exhausted;
            expected.close_time_s = ticks.empty() ? 0.0 : ticks.back().seconds;
            expected.arrived = ticks.size();
        }

        const mec::StreamCloseDecision close =
            mec::resolve_stream_close(n, banned, salt, horizon, deadline, quorum);
        SCOPED_TRACE("trial " + std::to_string(trial) + ", n " + std::to_string(n)
                     + ", quorum " + std::to_string(quorum));
        EXPECT_EQ(close.reason, expected.reason);
        EXPECT_TRUE(same_bits(close.close_time_s, expected.close_time_s));
        EXPECT_EQ(close.boundary_node, expected.boundary_node);
        EXPECT_EQ(close.arrived, expected.arrived);
    }
}

} // namespace
} // namespace fmore::auction
