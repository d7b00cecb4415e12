// EquilibriumStrategy::quality_rows writes a flat curve's value (every knot
// the same finite, nonzero bits) with no lookup, and lerps every other
// curve. quality_into keeps the lerp for every curve, so it stays the
// per-row reference: these tests hold quality_rows to it bit for bit over
// block sizes 1 to 256 and calls of several blocks, on thetas at and
// between the knots, at and past both ends, +-inf and NaNs. The strategies:
// the paper's market (both curves flat), curves the shortcut must not take
// (all knots equal but one, a -0/+0 mix, all -0, all +0, all +inf), a flat
// curve beside a moving one, and a strategy that really moves.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/reference/cost.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A cost model given as a function of (q, theta), for planting knots the
/// solver's argmax lands on exactly.
class PlantedCost final : public CostModel {
public:
    explicit PlantedCost(std::function<double(const QualityVector&, double)> cost)
        : cost_(std::move(cost)) {}
    [[nodiscard]] double cost(const QualityVector& q, double theta) const override {
        return cost_(q, theta);
    }
    [[nodiscard]] double cost_theta_derivative(const QualityVector&, double) const override {
        return 0.0;
    }
    [[nodiscard]] std::size_t dimensions() const override { return 2; }

private:
    std::function<double(const QualityVector&, double)> cost_;
};

/// s(q) = 2 q0: the second dimension is not scored, so it may hold values
/// no rule could score (+inf).
class FirstDimensionScoring final : public ScoringRule {
public:
    [[nodiscard]] double quality_score(const QualityVector& q) const override {
        return 2.0 * q[0];
    }
    [[nodiscard]] std::size_t dimensions() const override { return 2; }
};

/// The solver's theta knots and the market every case solves on.
struct Fixture {
    stats::UniformDistribution theta{0.5, 1.5};
    std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, 150.0),
                                               stats::MinMaxNormalizer(0.0, 1.0)};
    ScaledProductScoring paper_scoring{25.0, 2, norms};
    AdditiveCost paper_cost{{6.0 / 150.0, 2.0}};
    AdditiveScoring sum_scoring{{1.0, 1.0}};
    FirstDimensionScoring first_scoring;
    EquilibriumConfig eq;

    Fixture() {
        eq.num_bidders = 1000;
        eq.num_winners = 32;
    }

    /// Knot j of the solver's theta grid, by the solver's own formula.
    [[nodiscard]] double knot(std::size_t j) const {
        const double lo = theta.support_lo();
        const double hi = theta.support_hi();
        return lo + (hi - lo) * static_cast<double>(j)
                        / static_cast<double>(eq.theta_grid_points - 1);
    }

    [[nodiscard]] EquilibriumStrategy solve(const ScoringRule& scoring, const CostModel& cost,
                                            QualityVector q_lo, QualityVector q_hi) const {
        return EquilibriumSolver(scoring, cost, theta, std::move(q_lo), std::move(q_hi), eq)
            .solve();
    }
};

const Fixture& fixture() {
    static const Fixture f;
    return f;
}

/// Every knot, every cell's midpoint, both ends and the next doubles past
/// them, a step past each end, +-inf and three NaNs (both signs, one with
/// a payload), in a fixed shuffled order so each block mixes them.
std::vector<double> probe_thetas() {
    const Fixture& f = fixture();
    const std::size_t g = f.eq.theta_grid_points;
    std::vector<double> thetas;
    for (std::size_t j = 0; j < g; ++j) {
        thetas.push_back(f.knot(j));
        if (j + 1 < g) thetas.push_back(0.5 * (f.knot(j) + f.knot(j + 1)));
    }
    const double lo = f.knot(0);
    const double hi = f.knot(g - 1);
    for (const double v :
         {lo, hi, std::nextafter(lo, -kInf), std::nextafter(hi, kInf), std::nextafter(lo, kInf),
          std::nextafter(hi, -kInf), lo - 0.25, hi + 0.25, kInf, -kInf, kNaN, -kNaN,
          std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefULL})})
        thetas.push_back(v);
    stats::Rng rng(2020);
    std::shuffle(thetas.begin(), thetas.end(), rng.engine());
    return thetas;
}

/// quality_rows over `thetas` cut into blocks of every size from 1 to 256
/// (each block its own call), then in one call of several row blocks:
/// each row equal to quality_into's in every bit. With `any_nan`, two NaNs
/// match whatever their payloads: where two NaNs meet in one operation (a
/// NaN theta's weight times the NaN of inf - inf), which payload comes out
/// is the instruction's operand order, which the vector and the scalar
/// lerp need not share. Counts the mismatches and reports the first.
void expect_rows_match_quality_into(const EquilibriumStrategy& strategy,
                                    bool any_nan = false) {
    const std::size_t dims = strategy.dimensions();
    const std::vector<double> probe = probe_thetas();
    std::vector<double> thetas = probe;
    for (int copy = 0; copy < 3; ++copy) thetas.insert(thetas.end(), probe.begin(), probe.end());
    ASSERT_GT(thetas.size(), 2 * numeric::kRowBlock);

    std::vector<double> q;
    std::vector<double> want(dims);
    std::size_t mismatches = 0;
    const auto check = [&](std::size_t r0, std::size_t n, const std::string& call) {
        q.assign(dims * n, 0.0);
        strategy.quality_rows(thetas.data() + r0, n, q.data());
        for (std::size_t r = 0; r < n; ++r) {
            strategy.quality_into(thetas[r0 + r], want.data());
            for (std::size_t d = 0; d < dims; ++d) {
                if (bits(q[d * n + r]) == bits(want[d])
                    || (any_nan && std::isnan(q[d * n + r]) && std::isnan(want[d])))
                    continue;
                if (mismatches++ == 0)
                    ADD_FAILURE() << call << ", row " << r << ", theta " << thetas[r0 + r]
                                  << ", dim " << d << ": quality_rows " << q[d * n + r]
                                  << " (bits " << std::hex << bits(q[d * n + r])
                                  << "), quality_into " << want[d] << " (bits "
                                  << bits(want[d]) << std::dec << ")";
            }
        }
    };
    for (std::size_t block = 1; block <= numeric::kRowBlock; ++block)
        for (std::size_t r0 = 0; r0 + block <= probe.size(); r0 += block)
            check(r0, block, "block of " + std::to_string(block));
    check(0, thetas.size(), "one call of " + std::to_string(thetas.size()) + " rows");
    EXPECT_EQ(mismatches, 0u);
}

/// quality_into's dimension `d` at each knot: the knot itself for a finite,
/// nonzero one (inside the grid, the lerp adds t * (next - knot) with t = 0);
/// the ends give the end knots whatever they hold.
std::vector<double> knot_values(const EquilibriumStrategy& strategy, std::size_t d) {
    const Fixture& f = fixture();
    std::vector<double> values;
    std::vector<double> q(strategy.dimensions());
    for (std::size_t j = 0; j < f.eq.theta_grid_points; ++j) {
        strategy.quality_into(f.knot(j), q.data());
        values.push_back(q[d]);
    }
    return values;
}

bool all_same_bits(const std::vector<double>& values) {
    return std::all_of(values.begin(), values.end(),
                       [&](double v) { return bits(v) == bits(values.front()); });
}

TEST(FlatQualityRows, PaperMarketIsFlatAndWritesItsCorner) {
    // The bilinear score over normalized data size and category with an
    // additive cost: q^s(theta) is the box corner (150, 1) at every knot.
    const Fixture& f = fixture();
    const EquilibriumStrategy strategy =
        f.solve(f.paper_scoring, f.paper_cost, {1.0, 0.05}, {150.0, 1.0});
    const std::vector<double> data = knot_values(strategy, 0);
    const std::vector<double> category = knot_values(strategy, 1);
    ASSERT_TRUE(all_same_bits(data));
    ASSERT_TRUE(all_same_bits(category));
    EXPECT_EQ(data.front(), 150.0);
    EXPECT_EQ(category.front(), 1.0);
    expect_rows_match_quality_into(strategy);
}

TEST(FlatQualityRows, AFlatCurveBesideAMovingOne) {
    // q1 pinned to 0.7 by its bounds (flat); q0 = 1 / theta under the
    // quadratic cost (moving).
    const Fixture& f = fixture();
    const reference::QuadraticCost cost({0.5, 1.0});
    const EquilibriumStrategy strategy = f.solve(f.sum_scoring, cost, {0.0, 0.7}, {10.0, 0.7});
    ASSERT_FALSE(all_same_bits(knot_values(strategy, 0)));
    ASSERT_TRUE(all_same_bits(knot_values(strategy, 1)));
    expect_rows_match_quality_into(strategy);
}

TEST(FlatQualityRows, AStrategyThatMovesKeepsTheLerp) {
    const Fixture& f = fixture();
    const reference::QuadraticCost cost({0.5, 1.0});
    const EquilibriumStrategy strategy = f.solve(f.sum_scoring, cost, {0.0, 0.0}, {10.0, 10.0});
    ASSERT_FALSE(all_same_bits(knot_values(strategy, 0)));
    ASSERT_FALSE(all_same_bits(knot_values(strategy, 1)));
    expect_rows_match_quality_into(strategy);
}

TEST(FlatQualityRows, KnotsEqualButOneKeepTheLerp) {
    // The paper's market with q0's marginal cost raised at one knot only:
    // q0 is 150 at every knot but that one, where it is 1. At the first and
    // the last knot the odd value is also the curve's end value.
    const Fixture& f = fixture();
    for (const std::size_t odd : {std::size_t{0}, std::size_t{64}, f.eq.theta_grid_points - 1}) {
        SCOPED_TRACE("odd knot " + std::to_string(odd));
        const double odd_theta = f.knot(odd);
        const PlantedCost cost([&f, odd_theta](const QualityVector& q, double theta) {
            return f.paper_cost.cost(q, theta) + (theta == odd_theta ? 1e3 * q[0] : 0.0);
        });
        const EquilibriumStrategy strategy =
            f.solve(f.paper_scoring, cost, {1.0, 0.05}, {150.0, 1.0});
        const std::vector<double> data = knot_values(strategy, 0);
        for (std::size_t j = 0; j < data.size(); ++j)
            ASSERT_EQ(bits(data[j]), bits(j == odd ? 1.0 : 150.0)) << "knot " << j;
        expect_rows_match_quality_into(strategy);
    }
}

TEST(FlatQualityRows, SignedZeroKnotsKeepTheLerp) {
    // q1 is bounded to [-0, +0]; its cost prefers -0 below theta = 1 and +0
    // from there on, so its knots mix the two zeros. A lerp between -0
    // knots gives +0, so a curve of -0 knots only is not flat either.
    const Fixture& f = fixture();
    const PlantedCost mixed([](const QualityVector& q, double theta) {
        return 0.5 * theta * q[0] + (std::signbit(q[1]) == (theta < 1.0) ? 0.0 : 1.0);
    });
    const EquilibriumStrategy mix = f.solve(f.sum_scoring, mixed, {1.0, -0.0}, {1.0, 0.0});
    const std::vector<double> knots = knot_values(mix, 1);
    ASSERT_TRUE(std::signbit(knots.front()));
    ASSERT_FALSE(std::signbit(knots.back()));
    ASSERT_TRUE(std::all_of(knots.begin(), knots.end(), [](double v) { return v == 0.0; }));
    expect_rows_match_quality_into(mix);

    const PlantedCost linear([](const QualityVector& q, double theta) {
        return 0.5 * theta * q[0];
    });
    for (const double zero : {-0.0, 0.0}) {
        SCOPED_TRACE(std::signbit(zero) ? "all -0" : "all +0");
        const EquilibriumStrategy strategy =
            f.solve(f.sum_scoring, linear, {1.0, zero}, {1.0, zero});
        const std::vector<double> values = knot_values(strategy, 1);
        ASSERT_EQ(bits(values.front()), bits(zero));
        ASSERT_EQ(bits(values.back()), bits(zero));
        ASSERT_EQ(bits(values[values.size() / 2]), bits(0.0));  // -0 + (+0)
        expect_rows_match_quality_into(strategy);
    }
}

TEST(FlatQualityRows, InfiniteKnotsKeepTheLerp) {
    // An unscored dimension pinned to +inf: its lerp inside the grid is
    // inf + t * (inf - inf), NaN, and its end values are inf.
    const Fixture& f = fixture();
    const PlantedCost linear([](const QualityVector& q, double theta) { return theta * q[0]; });
    const EquilibriumStrategy strategy =
        f.solve(f.first_scoring, linear, {0.0, kInf}, {1.0, kInf});
    const std::vector<double> values = knot_values(strategy, 1);
    ASSERT_EQ(values.front(), kInf);
    ASSERT_EQ(values.back(), kInf);
    ASSERT_TRUE(std::isnan(values[values.size() / 2]));  // inf + 0 * NaN
    expect_rows_match_quality_into(strategy, /*any_nan=*/true);
}

} // namespace
} // namespace fmore::auction
