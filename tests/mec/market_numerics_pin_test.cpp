// Pins the numerics of a `wire_1m` shard worker's row kernels to a recorded
// constant: the drift of its narrowed slice, and each row's clamped quality
// and at-cost score s - c, the bound its head pass tests before pricing.
// The equivalence suites (PopulationStore, CollectBidRows, CollectHeadRows)
// hold each kernel to its per-row reference in one build; a change that
// moves both at once, or a compiler flag that moves either, passes them and
// fails here. The same constant must hold in a native build and in one
// without `FMORE_NATIVE_ARCH`, whatever vector width the loops got.
//
// The markup, and with it the ask and the aggregator score, stay out: its
// curve is tabulated through std::pow, std::exp and std::lgamma
// (win_probability.cpp), which may differ in the last bit between C
// libraries. Everything hashed here is a chain of IEEE-754 adds, multiplies,
// divides and compares over inputs drawn with stats::Rng, whose `uniform`
// calls std::uniform_real_distribution; the standard leaves that algorithm
// to the C++ library, so the constant is that of a libstdc++ build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/numeric/interpolation.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::mec {
namespace {

constexpr std::size_t kRows = 20'000;
constexpr std::size_t kRounds = 3;
constexpr double kDataHi = 150.0;

/// 64-bit FNV-1a over the bytes of each double, low byte first.
std::uint64_t fnv1a(std::uint64_t hash, const double* values, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &values[i], sizeof bits);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xFFU;
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

/// `wire_1m`'s rules: alpha = 25 scaled product over (data size, category),
/// additive cost, theta ~ U[0.5, 1.5], N = 1M, K = 32.
struct WireRules {
    std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, kDataHi),
                                               stats::MinMaxNormalizer(0.0, 1.0)};
    auction::ScaledProductScoring scoring{25.0, 2, norms};
    auction::AdditiveCost cost{{6.0 / kDataHi, 2.0}};
    stats::UniformDistribution theta{0.5, 1.5};
    QualityLayout layout{ResourceDim::data_size, ResourceDim::category_proportion};

    [[nodiscard]] auction::EquilibriumStrategy solve() const {
        auction::EquilibriumConfig eq;
        eq.num_bidders = 1'000'000;
        eq.num_winners = 32;
        return auction::EquilibriumSolver(scoring, cost, theta, {1.0, 0.05}, {kDataHi, 1.0}, eq)
            .solve();
    }
};

/// The second half of a `2 * kRows`-node store built as `wire_1m` builds
/// its store (global ids start at kRows), all nine columns.
PopulationStore wire_shard(const WireRules& rules) {
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(0x5ca1e001ULL);
    const PopulationStore whole(2 * kRows, data, rules.theta, spec, rng);
    return whole.slice(kRows, 2 * kRows);
}

/// Clamped quality (column-major, as the row kernels write it) and at-cost
/// score s - c of every row, through the row kernels in blocks of
/// numeric::kRowBlock rows, as a worker's head pass quotes.
void quote_rows(const PopulationStore& store, const WireRules& rules,
                const auction::EquilibriumStrategy& strategy, std::vector<double>& quality,
                std::vector<double>& at_cost) {
    const std::size_t dims = rules.layout.size();
    double q[2 * numeric::kRowBlock];
    double cost[numeric::kRowBlock];
    double score[numeric::kRowBlock];
    for (std::size_t lo = 0; lo < store.size(); lo += numeric::kRowBlock) {
        const std::size_t n = std::min(numeric::kRowBlock, store.size() - lo);
        const double* theta = store.thetas().data() + lo;
        strategy.quality_rows(theta, n, q);
        for (std::size_t d = 0; d < dims; ++d) {
            const double* cap = store.column(rules.layout[d]).data() + lo;
            double* qd = q + d * n;
            for (std::size_t r = 0; r < n; ++r) qd[r] = qd[r] > cap[r] ? cap[r] : qd[r];
        }
        strategy.cost_score_rows(q, n, theta, cost, score);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t d = 0; d < dims; ++d) quality[(lo + r) * dims + d] = q[d * n + r];
            at_cost[lo + r] = score[r] - cost[r];
        }
    }
}

/// The same through the per-row calls: quality_into, the cap clamp, then
/// the cost model's and the scoring rule's span calls.
void quote_rows_per_row(const PopulationStore& store, const WireRules& rules,
                        const auction::EquilibriumStrategy& strategy,
                        std::vector<double>& quality, std::vector<double>& at_cost) {
    const std::size_t dims = rules.layout.size();
    for (std::size_t i = 0; i < store.size(); ++i) {
        double* q = quality.data() + i * dims;
        strategy.quality_into(store.theta(i), q);
        for (std::size_t d = 0; d < dims; ++d) {
            const double cap = store.column(rules.layout[d])[i];
            if (q[d] > cap) q[d] = cap;
        }
        at_cost[i] = rules.scoring.quality_score_span(q, dims)
                     - rules.cost.cost_span(q, dims, store.theta(i));
    }
}

/// Three rounds of drift under the round salts of a fixed mt19937_64 seed,
/// each followed by a quote of every row; hashes theta, data size, the
/// clamped quality and the at-cost score after every round.
template <typename Drift, typename Quote>
std::uint64_t shard_digest(PopulationStore& store, Drift&& drift, Quote&& quote) {
    std::vector<double> quality(store.size() * 2);
    std::vector<double> at_cost(store.size());
    stats::Rng salts(0xd41f7ULL);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t round = 0; round < kRounds; ++round) {
        drift(store, salts);
        quote(store, quality, at_cost);
        hash = fnv1a(hash, store.thetas().data(), store.size());
        hash = fnv1a(hash, store.column(ResourceDim::data_size).data(), store.size());
        hash = fnv1a(hash, quality.data(), quality.size());
        hash = fnv1a(hash, at_cost.data(), at_cost.size());
    }
    return hash;
}

TEST(MarketNumericsPinTest, WireShardDriftAndAtCostScoreDigest) {
    // A kernel rewrite or a build flag must reproduce this digest bit for
    // bit. A change that moves it changes every market tape and digest,
    // and has to say so.
    constexpr std::uint64_t kPinned = 0xc78de7d78003d32cULL;
    const WireRules rules;
    const auction::EquilibriumStrategy strategy = rules.solve();
    const PopulationStore full = wire_shard(rules);

    // The worker's narrowed slice (theta, data size and its cap, category,
    // draw bytes for the left-out bandwidth and cpu caps) through the
    // drift row kernel and the quote's row kernels.
    PopulationStore narrow = full.slice(0, full.size(), rules.layout);
    ASSERT_THROW((void)narrow.column(ResourceDim::bandwidth), std::logic_error);
    const std::uint64_t kernels = shard_digest(
        narrow, [](PopulationStore& s, stats::Rng& salts) { s.evolve(salts); },
        [&](const PopulationStore& s, std::vector<double>& q, std::vector<double>& a) {
            quote_rows(s, rules, strategy, q, a);
        });
    EXPECT_EQ(kernels, kPinned) << "row kernels: digest 0x" << std::hex << kernels;

    // All nine columns through the per-node drift and the per-row quote.
    PopulationStore reference = full;
    const std::uint64_t per_row = shard_digest(
        reference, [](PopulationStore& s, stats::Rng& salts) { s.evolve_serial(salts); },
        [&](const PopulationStore& s, std::vector<double>& q, std::vector<double>& a) {
            quote_rows_per_row(s, rules, strategy, q, a);
        });
    EXPECT_EQ(per_row, kPinned) << "per-row references: digest 0x" << std::hex << per_row;
    EXPECT_EQ(narrow.salt_history(), reference.salt_history());
}

} // namespace
} // namespace fmore::mec
