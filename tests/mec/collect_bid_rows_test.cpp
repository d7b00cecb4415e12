// collect_bid_rows quotes in row blocks through the row kernels
// (equilibrium.hpp, "Row kernels"). These tests pin it, bit for bit, to
// the per-row quote it replaced: quality_into, the cap clamp, quote_span,
// and score_span when the strategy was solved against another rule.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fmore/mec/auction_selector.hpp"

namespace fmore::mec {
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

/// A rule with only the scalar API: its row and span hooks are the base
/// adapters.
class PlainProductScoring final : public auction::ScoringRule {
public:
    double quality_score(const auction::QualityVector& q) const override {
        return 20.0 * (q[0] / 150.0) * q[1];
    }
    std::size_t dimensions() const override { return 2; }
};

/// A cost model with only the scalar API (base adapters, as above).
class PlainLinearCost final : public auction::CostModel {
public:
    double cost(const auction::QualityVector& q, double theta) const override {
        return theta * (0.03 * q[0] + 1.5 * q[1]);
    }
    double cost_theta_derivative(const auction::QualityVector& q, double) const override {
        return 0.03 * q[0] + 1.5 * q[1];
    }
    std::size_t dimensions() const override { return 2; }
};

constexpr std::size_t kThetaGrid = 129;  ///< EquilibriumConfig's default

std::unique_ptr<auction::EquilibriumStrategy> solve(const auction::ScoringRule& scoring,
                                                    const auction::CostModel& cost,
                                                    const stats::Distribution& theta) {
    auction::EquilibriumConfig eq;
    eq.num_bidders = 1000;
    eq.num_winners = 20;
    eq.theta_grid_points = kThetaGrid;
    return std::make_unique<auction::EquilibriumStrategy>(
        auction::EquilibriumSolver(scoring, cost, theta, {1.0, 0.05}, {150.0, 1.0}, eq)
            .solve());
}

/// The per-row quote collect_bid_rows replaced. Returns how many rows had
/// each quality dimension clipped by the row's available resource.
std::vector<std::size_t> per_row_collect(const PopulationStore& store, std::size_t lo,
                                         std::size_t hi, const QualityLayout& layout,
                                         const auction::EquilibriumStrategy& strategy,
                                         const auction::ScoringRule& scoring,
                                         bool strategy_scores_broadcast_rule,
                                         auction::PaymentMethod method,
                                         const Blacklist& blacklist,
                                         auction::BidFrame& frame,
                                         std::size_t frame_base) {
    const std::size_t dims = layout.size();
    std::vector<std::size_t> clipped(dims, 0);
    for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t row = frame_base + (i - lo);
        if (blacklist.contains(store.node_offset() + i)) {
            frame.set_active(row, false);
            continue;
        }
        double* q = frame.quality_row(row);
        const double theta = store.theta(i);
        strategy.quality_into(theta, q);
        for (std::size_t d = 0; d < dims; ++d) {
            const double cap = store.column(layout[d])[i];
            if (q[d] > cap) {
                q[d] = cap;
                ++clipped[d];
            }
        }
        const auction::EquilibriumStrategy::SealedQuote quote =
            strategy.quote_span(q, dims, theta, method);
        frame.payment(row) = quote.payment;
        frame.score(row) = strategy_scores_broadcast_rule
                               ? quote.quality_score - quote.payment
                               : scoring.score_span(q, dims, quote.payment);
    }
    return clipped;
}

/// Fill every cell with a row-specific value, so untouched rows are
/// recognisable byte for byte.
void fill_sentinels(auction::BidFrame& frame) {
    for (std::size_t row = 0; row < frame.rows(); ++row) {
        for (std::size_t d = 0; d < frame.dims(); ++d) {
            frame.quality_row(row)[d] = 1000.25 + static_cast<double>(row * 3 + d);
        }
        frame.payment(row) = -7.5 - static_cast<double>(row);
        frame.score(row) = std::nan("") + static_cast<double>(row);
    }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CollectBidRows, BatchedMatchesPerRowQuote) {
    const stats::UniformDistribution theta(0.5, 1.5);
    const std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, 150.0),
                                                     stats::MinMaxNormalizer(0.0, 1.0)};
    const auction::ScaledProductScoring product(25.0, 2, norms);
    const auction::AdditiveCost additive({0.04, 2.0});
    const auction::AdditiveCost free_cost({0.0, 0.0});
    const auction::AdditiveScoring weighted({0.3, 0.7}, norms);
    const PlainProductScoring plain_scoring;
    const PlainLinearCost plain_cost;

    const auto product_strategy = solve(product, additive, theta);
    const auto plain_strategy = solve(plain_scoring, plain_cost, theta);
    const auto degenerate_strategy = solve(product, free_cost, theta);

    // The second shard of a split: global ids start above 0.
    PopulationSpec spec;
    stats::Rng rng(31);
    SyntheticDataSpec data;
    data.data_hi = 150.0;
    const PopulationStore whole(2 * (2 * 4096 + 300), data, theta, spec, rng);
    PopulationStore store = whole.split_even(2)[1];
    ASSERT_GT(store.node_offset(), 0u);

    // Thetas below, at and above the grid ends, on knots and either side
    // of them, else random; available data and category low enough in
    // some rows to clip each dimension, and both.
    PopulationSnapshot planted = store.snapshot();
    stats::Rng plant(37);
    std::size_t special = 0;
    for (std::size_t i = 0; i < store.size(); ++i) {
        double t = plant.uniform(0.3, 1.7);
        if (i % 3 == 0) {
            const std::size_t k = special++ % (kThetaGrid + 6);
            if (k < kThetaGrid) {
                t = 0.5 + (1.5 - 0.5) * static_cast<double>(k)
                              / static_cast<double>(kThetaGrid - 1);
                if (i % 9 == 3) t = std::nextafter(t, 0.0);
                if (i % 9 == 6) t = std::nextafter(t, 2.0);
            } else {
                const double ends[] = {0.2, 0.5, 1.5, 1.9, std::nextafter(0.5, 0.0),
                                       std::nextafter(1.5, 2.0)};
                t = ends[k - kThetaGrid];
            }
        }
        planted.columns[0][i] = t;
        if (i % 5 == 1 || i % 5 == 3) planted.columns[1][i] = plant.uniform(1.0, 40.0);
        if (i % 5 == 2 || i % 5 == 3) planted.columns[2][i] = plant.uniform(0.0, 0.3);
    }
    store.restore(planted);

    // Bans: one whole quote block, plus scattered rows (global ids).
    const std::size_t lo = 300;
    const std::size_t hi = store.size() - 200;
    const std::size_t frame_base = 41;
    Blacklist blacklist;
    for (std::size_t i = lo + 512; i < lo + 768; ++i) blacklist.ban(store.node_offset() + i);
    for (std::size_t i = lo; i < hi; i += 37) blacklist.ban(store.node_offset() + i);

    const QualityLayout layout{ResourceDim::data_size, ResourceDim::category_proportion};
    struct Case {
        const char* name;
        const auction::EquilibriumStrategy* strategy;
        const auction::ScoringRule* broadcast;
    };
    const Case cases[] = {
        {"scaled product", product_strategy.get(), &product},
        {"scaled product, additive broadcast rule", product_strategy.get(), &weighted},
        {"scaled product, scalar-only broadcast rule", product_strategy.get(),
         &plain_scoring},
        {"scalar-only rule and cost", plain_strategy.get(), &plain_scoring},
        {"degenerate", degenerate_strategy.get(), &product},
    };
    ASSERT_TRUE(product_strategy->score_hi() > product_strategy->score_lo());
    ASSERT_LT(degenerate_strategy->score_hi() - degenerate_strategy->score_lo(), 1e-12);

    for (const Case& c : cases) {
        const bool broadcast = c.strategy->scoring_rule() == c.broadcast;
        for (const bool parallel : {false, true}) {
            const ScopedEnv env("FMORE_ROUND_THREADS", parallel ? "4" : "1");
            for (const auction::PaymentMethod method :
                 {auction::PaymentMethod::integral, auction::PaymentMethod::euler_ode,
                  auction::PaymentMethod::rk4_ode}) {
                SCOPED_TRACE(std::string(c.name) + (parallel ? ", parallel" : ", serial")
                             + ", method " + std::to_string(static_cast<int>(method)));
                const std::size_t rows = frame_base + (hi - lo) + 13;
                auction::BidFrame expected(rows, 2);
                auction::BidFrame batched(rows, 2);
                fill_sentinels(expected);
                fill_sentinels(batched);
                const std::vector<std::size_t> clipped =
                    per_row_collect(store, lo, hi, layout, *c.strategy, *c.broadcast,
                                    broadcast, method, blacklist, expected, frame_base);
                EXPECT_GT(clipped[0], 0u);
                EXPECT_GT(clipped[1], 0u);
                std::vector<const double*> columns;
                collect_bid_rows(store, lo, hi, layout, *c.strategy, *c.broadcast,
                                 broadcast, method, blacklist, batched, frame_base,
                                 columns, parallel);

                std::size_t mismatches = 0;
                for (std::size_t row = 0; row < rows; ++row) {
                    bool same = expected.active(row) == batched.active(row)
                                && bits(expected.payment(row)) == bits(batched.payment(row))
                                && bits(expected.score(row)) == bits(batched.score(row));
                    for (std::size_t d = 0; d < 2; ++d) {
                        same = same
                               && bits(expected.quality_row(row)[d])
                                      == bits(batched.quality_row(row)[d]);
                    }
                    if (!same && mismatches++ < 5) {
                        ADD_FAILURE() << "row " << row << ": payment "
                                      << expected.payment(row) << " vs "
                                      << batched.payment(row) << ", score "
                                      << expected.score(row) << " vs "
                                      << batched.score(row);
                    }
                }
                EXPECT_EQ(mismatches, 0u);

                // Banned rows: deactivated, every other byte as it was.
                auction::BidFrame untouched(rows, 2);
                fill_sentinels(untouched);
                for (std::size_t i = lo + 512; i < lo + 768; ++i) {
                    const std::size_t row = frame_base + (i - lo);
                    ASSERT_FALSE(batched.active(row));
                    EXPECT_EQ(bits(batched.payment(row)), bits(untouched.payment(row)));
                    EXPECT_EQ(bits(batched.score(row)), bits(untouched.score(row)));
                    EXPECT_EQ(bits(batched.quality_row(row)[1]),
                              bits(untouched.quality_row(row)[1]));
                }
            }
        }
    }
}

} // namespace
} // namespace fmore::mec
