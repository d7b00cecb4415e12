// collect_head_rows is a shard worker's round in one pass: each store row is
// quoted and offered straight to a bounded head, with no bid frame between.
// These tests hold it to the frame composition it replaced (collect_bid_rows,
// the arrival-cut filter, collect_shard_head), to a std::sort of every
// quoted row under MarketOrder, and each kept row to the per-row quote
// (quality_into, the cap clamp, quote_span), over short and uneven blocks,
// heavy score ties, bans, every kind of limit, both arrival cuts, both
// tie-key modes and a strategy solved against another rule; and a row
// range of a store to the slice of those rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/market_order.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/mec/stream_round.hpp"
#include "fmore/mec/wire_format.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::mec {
namespace {

constexpr double kDataHi = 150.0;
constexpr double kHorizonS = 2.0;

/// The simulator's market, plus a second broadcast rule the strategy was
/// not solved against (the `quality_score_rows` branch of the quote).
struct Market {
    std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, kDataHi),
                                               stats::MinMaxNormalizer(0.0, 1.0)};
    auction::ScaledProductScoring product{25.0, 2, norms};
    auction::AdditiveScoring additive{{0.3, 0.7}, norms};
    auction::AdditiveCost cost{{6.0 / kDataHi, 2.0}};
    stats::UniformDistribution theta{0.5, 1.5};
    std::unique_ptr<auction::EquilibriumStrategy> strategy;

    Market() {
        auction::EquilibriumConfig eq;
        eq.num_bidders = 200;
        eq.num_winners = 8;
        strategy = std::make_unique<auction::EquilibriumStrategy>(
            auction::EquilibriumSolver(product, cost, theta, {1.0, 0.05}, {kDataHi, 1.0}, eq)
                .solve());
    }
};

const Market& market() {
    static const Market m;
    return m;
}

QualityLayout layout() {
    return {ResourceDim::data_size, ResourceDim::category_proportion};
}

/// The second half of a `2 * rows`-node store, so global ids start at
/// `rows`. With `tied`, thetas come from four values and the data and
/// category caps from a few low ones, so many rows quote the same bid and
/// score ties are everywhere, the head's cut included.
PopulationStore make_shard(std::size_t rows, bool tied) {
    PopulationSpec spec;
    SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(41 + rows);
    const PopulationStore whole(2 * rows, data, market().theta, spec, rng);
    PopulationStore shard = whole.slice(rows, 2 * rows);
    if (tied) {
        PopulationSnapshot planted = shard.snapshot();
        const double thetas[] = {0.6, 0.9, 0.9, 1.3};
        const double data_caps[] = {15.0, 30.0, kDataHi};
        const double category_caps[] = {0.05, 1.0};
        for (std::size_t i = 0; i < rows; ++i) {
            planted.columns[0][i] = thetas[(i * 7) % 4];
            planted.columns[1][i] = data_caps[i % 3];
            planted.columns[2][i] = category_caps[(i / 3) % 2];
        }
        shard.restore(planted);
    }
    return shard;
}

/// A quote block of 256 local rows banned whole when the shard has one,
/// plus every thirteenth row.
Blacklist make_bans(const PopulationStore& shard) {
    Blacklist bans;
    const std::size_t offset = shard.node_offset();
    for (std::size_t i = 256; i < std::min<std::size_t>(512, shard.size()); ++i)
        bans.ban(offset + i);
    for (std::size_t i = 5; i < shard.size(); i += 13) bans.ban(offset + i);
    return bans;
}

/// The per-row quote of store row `i`, written without the row kernels:
/// quality, ask and aggregator score.
struct RowQuote {
    double q[2];
    double payment;
    double score;
};

RowQuote quote_row(const PopulationStore& shard, std::size_t i,
                   const auction::ScoringRule& broadcast, bool own_rule) {
    const Market& m = market();
    const QualityLayout cols = layout();
    RowQuote quote{};
    m.strategy->quality_into(shard.theta(i), quote.q);
    for (std::size_t d = 0; d < 2; ++d) {
        const double cap = shard.column(cols[d])[i];
        if (quote.q[d] > cap) quote.q[d] = cap;
    }
    const auction::EquilibriumStrategy::SealedQuote sealed =
        m.strategy->quote_span(quote.q, 2, shard.theta(i), auction::PaymentMethod::integral);
    quote.payment = sealed.payment;
    quote.score = own_rule ? sealed.quality_score - sealed.payment
                           : broadcast.score_span(quote.q, 2, sealed.payment);
    return quote;
}

bool arrived(const wire::StreamExtra* cut, std::uint64_t node) {
    return cut == nullptr
           || stream_arrived(stream_arrival_s(cut->arrival_salt, node, cut->horizon_s), node,
                             cut->close_time_s, cut->boundary_node);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_heads_equal(const auction::ShardHead& expected, const auction::ShardHead& got) {
    EXPECT_EQ(got.dims, expected.dims);
    ASSERT_EQ(got.rows.size(), expected.rows.size());
    ASSERT_EQ(got.quality.size(), expected.quality.size());
    for (std::size_t r = 0; r < expected.rows.size(); ++r) {
        EXPECT_EQ(got.rows[r].node, expected.rows[r].node) << "rank " << r;
        EXPECT_EQ(bits(got.rows[r].score), bits(expected.rows[r].score)) << "rank " << r;
        EXPECT_EQ(got.rows[r].key, expected.rows[r].key) << "rank " << r;
        EXPECT_EQ(bits(got.rows[r].payment), bits(expected.rows[r].payment)) << "rank " << r;
    }
    for (std::size_t c = 0; c < expected.quality.size(); ++c)
        EXPECT_EQ(bits(got.quality[c]), bits(expected.quality[c])) << "cell " << c;
}

TEST(CollectHeadRows, MatchesFrameCompositionAndFullSort) {
    const Market& m = market();
    const QualityLayout cols = layout();
    constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

    // One set of caller-owned scratch for every case: each call must start
    // from a clean head, whatever the previous call left behind.
    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;

    std::size_t ties_at_cut = 0;
    for (const std::size_t rows : {1u, 37u, 255u, 257u, 700u, 1000u}) {
        for (const bool tied : {false, true}) {
            const PopulationStore shard = make_shard(rows, tied);
            const Blacklist bans = make_bans(shard);
            const std::size_t offset = shard.node_offset();
            ASSERT_EQ(offset, rows);

            // Arrival cuts: time-only at the median arrival, and a quorum
            // cut at a middle node's arrival with that node in and out.
            std::vector<double> times(rows);
            const std::uint64_t arrival_salt = 0xa11ce + rows;
            for (std::size_t i = 0; i < rows; ++i)
                times[i] = stream_arrival_s(arrival_salt, offset + i, kHorizonS);
            const std::size_t middle = rows / 2;
            std::vector<double> sorted_times = times;
            std::sort(sorted_times.begin(), sorted_times.end());
            wire::StreamExtra time_cut{arrival_salt, kHorizonS, sorted_times[rows / 2],
                                       kStreamBoundaryAny};
            wire::StreamExtra node_in{arrival_salt, kHorizonS, times[middle], offset + middle};
            wire::StreamExtra node_out = node_in;
            node_out.boundary_node = offset + middle - 1;
            const wire::StreamExtra* cuts[] = {nullptr, &time_cut, &node_in, &node_out};
            const char* cut_names[] = {"no cut", "time cut", "node in", "node out"};

            std::vector<std::uint32_t> pos(offset + rows);
            std::iota(pos.begin(), pos.end(), 0u);
            stats::Rng shuffle_rng(rows);
            std::shuffle(pos.begin(), pos.end(), shuffle_rng.engine());
            auction::TieKeys shuffled;
            shuffled.pos = pos.data();
            auction::TieKeys salted;
            salted.salted = true;
            salted.salt = 0x5a17ULL + rows;

            for (const auction::ScoringRule* broadcast :
                 {static_cast<const auction::ScoringRule*>(&m.product),
                  static_cast<const auction::ScoringRule*>(&m.additive)}) {
                const bool own_rule = m.strategy->scoring_rule() == broadcast;
                auction::BidFrame quoted(rows, cols.size());
                std::vector<const double*> frame_columns;
                collect_bid_rows(shard, 0, rows, cols, *m.strategy, *broadcast, own_rule,
                                 auction::PaymentMethod::integral, bans, quoted, 0,
                                 frame_columns, /*parallel=*/false);
                quoted.set_scored(true);

                for (std::size_t c = 0; c < 4; ++c) {
                    const wire::StreamExtra* cut = cuts[c];
                    auction::BidFrame frame = quoted;
                    for (std::size_t i = 0; i < rows; ++i)
                        if (frame.active(i) && !arrived(cut, offset + i))
                            frame.set_active(i, false);
                    for (const auction::TieKeys* keys : {&salted, &shuffled}) {
                        std::vector<auction::HeadRow> all;
                        for (std::size_t i = 0; i < rows; ++i) {
                            if (!frame.active(i)) continue;
                            all.push_back({offset + i, frame.score(i), keys->key(offset + i),
                                           frame.payment(i)});
                        }
                        std::sort(all.begin(), all.end(), auction::MarketOrder{});

                        for (const std::size_t limit :
                             {std::size_t{0}, std::size_t{1}, std::size_t{7}, rows,
                              rows + 5, kAll}) {
                            SCOPED_TRACE(std::to_string(rows) + " rows"
                                         + (tied ? ", tied" : "")
                                         + (own_rule ? ", " : ", other rule, ")
                                         + cut_names[c]
                                         + (keys->salted ? ", salted" : ", shuffled")
                                         + ", limit " + std::to_string(limit));
                            collect_head_rows(shard, 0, rows, cols, *m.strategy, *broadcast,
                                              own_rule, auction::PaymentMethod::integral, bans,
                                              cut, *keys, limit, columns, merge, head);

                            auction::ShardHead composed;
                            auction::collect_shard_head(frame, offset, *keys, limit,
                                                        composed);
                            expect_heads_equal(composed, head);

                            const std::size_t kept = std::min(limit, all.size());
                            ASSERT_EQ(head.rows.size(), kept);
                            for (std::size_t r = 0; r < kept; ++r) {
                                const auction::HeadRow& want = all[r];
                                EXPECT_EQ(head.rows[r].node, want.node) << "rank " << r;
                                EXPECT_EQ(head.rows[r].key, want.key) << "rank " << r;
                                const RowQuote quote =
                                    quote_row(shard, want.node - offset, *broadcast, own_rule);
                                EXPECT_EQ(bits(head.rows[r].score), bits(quote.score));
                                EXPECT_EQ(bits(head.rows[r].payment), bits(quote.payment));
                                EXPECT_EQ(bits(head.quality_row(r)[0]), bits(quote.q[0]));
                                EXPECT_EQ(bits(head.quality_row(r)[1]), bits(quote.q[1]));
                            }
                            if (kept > 0 && kept < all.size()
                                && all[kept].score == all[kept - 1].score)
                                ++ties_at_cut;
                        }
                    }
                }
            }
        }
    }
    // The tied stores must put ties across the head's cut, where the lazy
    // key check hands over to the full comparison.
    EXPECT_GT(ties_at_cut, 100u);
}

/// The frame composition `collect_head_rows` replaced: every row priced
/// into a frame, then the frame's head.
void composed_head(const PopulationStore& shard, const auction::EquilibriumStrategy& strategy,
                   const auction::ScoringRule& broadcast, auction::PaymentMethod method,
                   const Blacklist& bans, const auction::TieKeys& keys, std::size_t limit,
                   auction::ShardHead& out) {
    auction::BidFrame frame(shard.size(), 2);
    std::vector<const double*> columns;
    collect_bid_rows(shard, 0, shard.size(), layout(), strategy, broadcast,
                     strategy.scoring_rule() == &broadcast, method, bans, frame, 0, columns,
                     /*parallel=*/false);
    frame.set_scored(true);
    auction::collect_shard_head(frame, shard.node_offset(), keys, limit, out);
}

TEST(CollectHeadRows, NonFiniteRowsEveryMethodAndAZeroMarkupStrategy) {
    // The at-cost bound s - c must never drop a row the head keeps: NaN,
    // +-inf and -0 in thetas and caps (NaN and infinite bounds, asks and
    // scores), all three payment methods, another broadcast rule, and a
    // degenerate strategy whose ask is c + 0.
    const Market& m = market();
    const auction::AdditiveCost free_cost({0.0, 0.0});
    auction::EquilibriumConfig eq;
    eq.num_bidders = 200;
    eq.num_winners = 8;
    const auction::EquilibriumStrategy degenerate =
        auction::EquilibriumSolver(m.product, free_cost, m.theta, {1.0, 0.05}, {kDataHi, 1.0},
                                   eq)
            .solve();
    ASSERT_LT(degenerate.score_hi() - degenerate.score_lo(), 1e-12);
    struct Case {
        const char* name;
        const auction::EquilibriumStrategy* strategy;
        const auction::ScoringRule* broadcast;
    };
    const Case cases[] = {{"own rule", m.strategy.get(), &m.product},
                          {"other rule", m.strategy.get(), &m.additive},
                          {"zero markup", &degenerate, &m.product}};
    constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
    const double odd[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(), -0.0, 0.0};

    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;
    auction::ShardHead composed;
    // Tied stores put rows at exactly the worst kept score, where a zero
    // markup leaves no slack between a row's bound and its score.
    using Shape = std::pair<std::size_t, bool>;  // rows, tied
    for (const auto& [rows, tied] :
         {Shape{700, false}, Shape{3000, false}, Shape{700, true}, Shape{3000, true}}) {
        PopulationStore shard = make_shard(rows, tied);
        PopulationSnapshot planted = shard.snapshot();
        // Odd values in the first two blocks, a block of NaN thetas only
        // (every bound NaN), and clean blocks after it, where the bound
        // alone decides what is priced.
        for (std::size_t i = 0; i < 512; ++i) {
            if (i % 11 == 2) planted.columns[0][i] = odd[(i / 11) % 5];
            if (i % 13 == 4) planted.columns[1][i] = odd[(i / 13) % 5];
            if (i % 17 == 6) planted.columns[2][i] = odd[(i / 17) % 5];
        }
        for (std::size_t i = 512; i < std::min<std::size_t>(768, rows); ++i)
            planted.columns[0][i] = std::numeric_limits<double>::quiet_NaN();
        shard.restore(planted);
        const Blacklist bans = make_bans(shard);
        auction::TieKeys keys;
        keys.salted = true;
        keys.salt = 0xb0b0ULL + rows;

        for (const Case& c : cases) {
            for (const auction::PaymentMethod method :
                 {auction::PaymentMethod::integral, auction::PaymentMethod::euler_ode,
                  auction::PaymentMethod::rk4_ode}) {
                ASSERT_TRUE(c.strategy->ask_covers_cost(method));
                const bool own_rule = c.strategy->scoring_rule() == c.broadcast;
                for (const Blacklist* banned : {&bans, static_cast<const Blacklist*>(nullptr)}) {
                    const Blacklist none;
                    const Blacklist& b = banned != nullptr ? *banned : none;
                    for (const std::size_t limit :
                         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{33},
                          rows, kAll}) {
                        SCOPED_TRACE(std::to_string(rows) + (tied ? " tied" : "") + " rows, "
                                     + c.name + ", method "
                                     + std::to_string(static_cast<int>(method))
                                     + (banned != nullptr ? ", bans" : "") + ", limit "
                                     + std::to_string(limit));
                        collect_head_rows(shard, 0, rows, layout(), *c.strategy,
                                          *c.broadcast, own_rule, method, b, nullptr, keys,
                                          limit, columns, merge, head);
                        composed_head(shard, *c.strategy, *c.broadcast, method, b, keys,
                                      limit, composed);
                        expect_heads_equal(composed, head);
                    }
                }
            }
        }
    }
}

TEST(CollectHeadRows, PricesOnlyBlocksWhoseAtCostBoundCanEnter) {
    const Market& m = market();
    constexpr std::size_t kRows = 20000;
    constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
    const PopulationStore shard = make_shard(kRows, /*tied=*/false);
    auction::TieKeys keys;
    keys.salted = true;
    keys.salt = 0x20000ULL;
    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;
    auction::ShardHead composed;
    const auto pass = [&](const Blacklist& bans, std::size_t limit) {
        const std::size_t priced = collect_head_rows(
            shard, 0, kRows, layout(), *m.strategy, m.product, true,
            auction::PaymentMethod::integral, bans, nullptr, keys, limit, columns, merge, head);
        composed_head(shard, *m.strategy, m.product, auction::PaymentMethod::integral, bans,
                      keys, limit, composed);
        expect_heads_equal(composed, head);
        return priced;
    };

    // A worker's head: most blocks are dropped on their at-cost bounds.
    const std::size_t pruned = pass(Blacklist{}, 33);
    EXPECT_GT(pruned, 0u);
    EXPECT_LT(pruned, kRows);
    // A head that never fills rejects nothing, so every row is priced; a
    // block of banned rows only is never quoted.
    EXPECT_EQ(pass(Blacklist{}, kAll), kRows);
    EXPECT_EQ(pass(Blacklist{}, kRows), kRows);
    Blacklist block;
    for (std::size_t i = 256; i < 512; ++i) block.ban(shard.node_offset() + i);
    EXPECT_EQ(pass(block, kAll), kRows - 256);
}

TEST(CollectHeadRows, EveryRowBannedOrOutsideTheCutLeavesAnEmptyHead) {
    const Market& m = market();
    const PopulationStore shard = make_shard(300, /*tied=*/false);
    Blacklist bans;
    for (std::size_t i = 0; i < shard.size(); ++i) bans.ban(shard.node_offset() + i);
    auction::TieKeys keys;
    keys.salted = true;
    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;
    collect_head_rows(shard, 0, shard.size(), layout(), *m.strategy, m.product, true,
                      auction::PaymentMethod::integral, bans, nullptr, keys, 10, columns,
                      merge, head);
    EXPECT_EQ(head.dims, 2u);
    EXPECT_TRUE(head.rows.empty());
    EXPECT_TRUE(head.quality.empty());

    // Nothing arrives before time 0.
    const wire::StreamExtra before_any{1, kHorizonS, -1.0, kStreamBoundaryAny};
    collect_head_rows(shard, 0, shard.size(), layout(), *m.strategy, m.product, true,
                      auction::PaymentMethod::integral, Blacklist{}, &before_any, keys, 10,
                      columns, merge, head);
    EXPECT_TRUE(head.rows.empty());
}

TEST(CollectHeadRows, RowRangeMatchesTheSliceOfThoseRows) {
    // The in-process sharded market quotes each shard's row range of the
    // population's store, where a forked worker quotes its slice of the
    // same rows: both hand up the same head. Ranges start and end inside
    // quote blocks, cross the whole banned block and lie inside it.
    const Market& m = market();
    constexpr std::size_t kRows = 1000;
    constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
    const PopulationStore store = make_shard(kRows, /*tied=*/false);
    const Blacklist bans = make_bans(store);
    const std::size_t offset = store.node_offset();

    std::vector<std::uint32_t> pos(offset + kRows);
    std::iota(pos.begin(), pos.end(), 0u);
    stats::Rng shuffle_rng(kRows);
    std::shuffle(pos.begin(), pos.end(), shuffle_rng.engine());
    auction::TieKeys shuffled;
    shuffled.pos = pos.data();
    auction::TieKeys salted;
    salted.salted = true;
    salted.salt = 0x4a9eULL;
    const wire::StreamExtra time_cut{0xc07ULL, kHorizonS, 0.5 * kHorizonS,
                                     kStreamBoundaryAny};

    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;
    auction::ShardHead sliced;
    using Range = std::pair<std::size_t, std::size_t>;
    for (const auto& [lo, hi] : {Range{0, kRows}, Range{0, 1}, Range{37, 300},
                                 Range{255, 769}, Range{256, 512}, Range{999, kRows}}) {
        const PopulationStore slice = store.slice(lo, hi);
        const bool all_banned = lo == 256 && hi == 512;
        for (const wire::StreamExtra* cut : {static_cast<const wire::StreamExtra*>(nullptr),
                                             &time_cut}) {
            for (const auction::TieKeys* keys : {&salted, &shuffled}) {
                for (const std::size_t limit : {std::size_t{1}, std::size_t{7},
                                                std::size_t{33}, kAll}) {
                    SCOPED_TRACE("rows [" + std::to_string(lo) + ", " + std::to_string(hi)
                                 + ")" + (cut != nullptr ? ", cut" : "")
                                 + (keys->salted ? ", salted" : ", shuffled") + ", limit "
                                 + std::to_string(limit));
                    collect_head_rows(store, lo, hi, layout(), *m.strategy, m.product, true,
                                      auction::PaymentMethod::integral, bans, cut, *keys,
                                      limit, columns, merge, head);
                    collect_head_rows(slice, 0, slice.size(), layout(), *m.strategy,
                                      m.product, true, auction::PaymentMethod::integral, bans,
                                      cut, *keys, limit, columns, merge, sliced);
                    expect_heads_equal(sliced, head);
                    if (all_banned) {
                        EXPECT_TRUE(head.rows.empty());
                    }
                    for (const auction::HeadRow& row : head.rows) {
                        EXPECT_GE(row.node, offset + lo);
                        EXPECT_LT(row.node, offset + hi);
                    }
                }
            }
        }
    }

    // An empty range quotes nothing; a range past the store is refused.
    collect_head_rows(store, 500, 500, layout(), *m.strategy, m.product, true,
                      auction::PaymentMethod::integral, bans, nullptr, salted, 7, columns,
                      merge, head);
    EXPECT_TRUE(head.rows.empty());
    EXPECT_THROW(collect_head_rows(store, 10, kRows + 1, layout(), *m.strategy, m.product,
                                   true, auction::PaymentMethod::integral, bans, nullptr,
                                   salted, 7, columns, merge, head),
                 std::invalid_argument);
    EXPECT_THROW(collect_head_rows(store, 11, 10, layout(), *m.strategy, m.product, true,
                                   auction::PaymentMethod::integral, bans, nullptr, salted, 7,
                                   columns, merge, head),
                 std::invalid_argument);
}

TEST(CollectHeadRows, RejectsABadLayout) {
    const Market& m = market();
    const PopulationStore shard = make_shard(10, /*tied=*/false);
    const QualityLayout three{ResourceDim::data_size, ResourceDim::category_proportion,
                              ResourceDim::cpu};
    auction::TieKeys keys;
    keys.salted = true;
    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;
    EXPECT_THROW(collect_head_rows(shard, 0, shard.size(), three, *m.strategy, m.product,
                                   true, auction::PaymentMethod::integral, Blacklist{},
                                   nullptr, keys, 4, columns, merge, head),
                 std::invalid_argument);
}

// A forked worker's round is one pass: `collect_head_rows` with the round's
// drift salt drifts each block of rows just before quoting it. It must land
// exactly where the two-pass round it replaced lands, the whole shard drifted
// by `evolve_with_salt` and then quoted: the same heads, columns and salt
// history, round after round.

/// The rows [kShardLo, kShardHi) of a 9000-node store whose thetas and
/// resources drift as `wire_1m`'s do, narrowed to the layout as a forked
/// worker holds them (the left-out caps kept as draw bytes), or at full
/// width. Quoted against the simulator's market.
constexpr std::size_t kShardLo = 3000;
constexpr std::size_t kShardHi = 6000;

const PopulationStore& drifting_world() {
    static const PopulationStore world = [] {
        PopulationSpec spec;
        spec.dynamics.resource_jitter = 0.08;
        spec.dynamics.theta_jitter = 0.02;
        SyntheticDataSpec data;
        data.data_lo = 20.0;
        data.data_hi = kDataHi;
        stats::Rng rng(0x0e9a55);
        return PopulationStore(9000, data, market().theta, spec, rng);
    }();
    return world;
}

PopulationStore worker_shard(bool narrowed) {
    return narrowed ? drifting_world().slice(kShardLo, kShardHi, layout())
                    : drifting_world().slice(kShardLo, kShardHi);
}

void expect_stores_equal(const PopulationStore& expected, const PopulationStore& got) {
    EXPECT_EQ(got.salt_history(), expected.salt_history());
    ASSERT_EQ(got.size(), expected.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        differing += bits(got.theta(i)) != bits(expected.theta(i)) ? 1 : 0;
        for (const ResourceDim dim : layout())
            differing += bits(got.column(dim)[i]) != bits(expected.column(dim)[i]) ? 1 : 0;
    }
    EXPECT_EQ(differing, 0u);
}

TEST(OnePassWorkerRound, MatchesEvolveThenCollectOverManyRounds) {
    const Market& m = market();
    constexpr std::size_t kRounds = 24;
    constexpr std::size_t kRespawnAt = 13;  // the worker dies after round 12
    for (const bool narrowed : {true, false}) {
        for (const auction::ScoringRule* broadcast :
             {static_cast<const auction::ScoringRule*>(&m.product),
              static_cast<const auction::ScoringRule*>(&m.additive)}) {
            const bool own_rule = m.strategy->scoring_rule() == broadcast;
            PopulationStore one_pass = worker_shard(narrowed);
            PopulationStore two_pass = worker_shard(narrowed);
            const std::size_t offset = one_pass.node_offset();
            ASSERT_EQ(offset, kShardLo);
            // Bans as a worker hears them, one set more every few rounds:
            // a run across the first block boundary, a whole block and lone
            // rows.
            Blacklist bans(offset);
            std::vector<const double*> columns;
            auction::StreamingHeadMerge merge;
            auction::ShardHead head;
            auction::ShardHead expected;
            stats::Rng salts(0x5a175 + (narrowed ? 1 : 0) + (own_rule ? 2 : 0));
            std::size_t filled = 0;
            for (std::size_t round = 1; round <= kRounds; ++round) {
                SCOPED_TRACE(std::string(narrowed ? "narrowed" : "full width")
                             + (own_rule ? "" : ", other rule") + ", round "
                             + std::to_string(round));
                if (round == 4)
                    for (std::size_t i = 250; i < 262; ++i) bans.ban(offset + i);
                if (round == 9)
                    for (std::size_t i = 1024; i < 1280; ++i) bans.ban(offset + i);
                if (round % 5 == 0) bans.ban(offset + (round * 337) % one_pass.size());

                if (round == kRespawnAt) {
                    // A respawned worker: a fresh slice replays the salt
                    // history through the whole-store drift (the `sync`
                    // frame), then goes on with one-pass rounds.
                    const std::vector<std::uint64_t> history = one_pass.salt_history();
                    one_pass = worker_shard(narrowed);
                    for (const std::uint64_t salt : history) one_pass.evolve_with_salt(salt);
                    expect_stores_equal(two_pass, one_pass);
                }

                const std::uint64_t salt = salts.engine()();
                const std::uint64_t arrival_salt = salts.engine()();
                // Every third round streams, cut at a quarter of the horizon;
                // every seventh keeps every row, so every block is priced.
                const wire::StreamExtra cut{arrival_salt, kHorizonS, 0.25 * kHorizonS,
                                            kStreamBoundaryAny};
                const wire::StreamExtra* streaming = round % 3 == 0 ? &cut : nullptr;
                const std::size_t limit =
                    round % 7 == 0 ? std::numeric_limits<std::size_t>::max() : 9;
                auction::TieKeys keys;
                keys.salted = true;
                keys.salt = salt ^ 0x7e1e;

                // Round 1 quotes the stores as built, as a worker does.
                if (round > 1) {
                    two_pass.evolve_with_salt(salt);
                    collect_head_rows(one_pass, salt, layout(), *m.strategy, *broadcast,
                                      own_rule, auction::PaymentMethod::integral, bans,
                                      streaming, keys, limit, columns, merge, head);
                } else {
                    collect_head_rows(one_pass, 0, one_pass.size(), layout(), *m.strategy,
                                      *broadcast, own_rule, auction::PaymentMethod::integral,
                                      bans, streaming, keys, limit, columns, merge, head);
                }
                collect_head_rows(two_pass, 0, two_pass.size(), layout(), *m.strategy,
                                  *broadcast, own_rule, auction::PaymentMethod::integral, bans,
                                  streaming, keys, limit, columns, merge, expected);
                expect_heads_equal(expected, head);
                filled += head.rows.empty() ? 0 : 1;
            }
            expect_stores_equal(two_pass, one_pass);
            EXPECT_EQ(one_pass.salt_history().size(), kRounds - 1);
            EXPECT_EQ(filled, kRounds);
        }
    }
}

TEST(OnePassWorkerRound, ABadLayoutThrowsBeforeAnyRowDrifts) {
    const Market& m = market();
    PopulationStore shard = worker_shard(/*narrowed=*/false);
    const PopulationStore untouched = worker_shard(/*narrowed=*/false);
    const QualityLayout three{ResourceDim::data_size, ResourceDim::category_proportion,
                              ResourceDim::cpu};
    auction::TieKeys keys;
    keys.salted = true;
    std::vector<const double*> columns;
    auction::StreamingHeadMerge merge;
    auction::ShardHead head;
    EXPECT_THROW(collect_head_rows(shard, 0x5a17, three, *m.strategy, m.product, true,
                                   auction::PaymentMethod::integral, Blacklist{}, nullptr,
                                   keys, 4, columns, merge, head),
                 std::invalid_argument);
    EXPECT_TRUE(shard.salt_history().empty());
    expect_stores_equal(untouched, shard);
}

} // namespace
} // namespace fmore::mec
