// The partitioning invariant under the sharded markets: a PopulationStore
// cut into slices at ARBITRARY boundaries, with each slice evolved under
// the same round salt, reproduces the unsplit store's drift bit-identically
// — for any worker count, any nesting of slices, over many rounds. Per-node
// streams are keyed by (salt, GLOBAL node id), so a shard is the market,
// restricted — never a different market.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fmore/mec/population_store.hpp"

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

PopulationStore make_store(std::size_t nodes, std::uint64_t seed = 7) {
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.15;
    spec.dynamics.theta_jitter = 0.05;
    SyntheticDataSpec data;
    const stats::UniformDistribution theta(0.5, 1.5);
    stats::Rng rng(seed);
    return PopulationStore(nodes, data, theta, spec, rng);
}

/// Strictly increasing cuts at arbitrary (uneven) positions.
std::vector<std::size_t> random_boundaries(std::size_t n, std::size_t shards,
                                           stats::Rng& rng) {
    std::vector<std::size_t> all(n - 1);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i + 1;
    rng.shuffle(all);
    std::vector<std::size_t> cuts(all.begin(),
                                  all.begin() + static_cast<std::ptrdiff_t>(shards - 1));
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

/// The `slice`s of `store` between neighbouring cut points.
std::vector<PopulationStore> slices(const PopulationStore& store,
                                    const std::vector<std::size_t>& cuts) {
    std::vector<PopulationStore> shards;
    std::size_t lo = 0;
    for (std::size_t b = 0; b <= cuts.size(); ++b) {
        const std::size_t hi = b < cuts.size() ? cuts[b] : store.size();
        shards.push_back(store.slice(lo, hi));
        lo = hi;
    }
    return shards;
}

/// Shard row i must equal whole-store row `shard.node_offset() + i` in
/// every column, bit for bit.
void expect_is_slice(const PopulationStore& whole, const PopulationStore& shard) {
    ASSERT_LE(shard.node_offset() + shard.size(), whole.size());
    for (std::size_t i = 0; i < shard.size(); ++i) {
        const std::size_t g = shard.node_offset() + i;
        EXPECT_EQ(whole.theta(g), shard.theta(i)) << "row " << g;
        EXPECT_EQ(whole.data_size(g), shard.data_size(i)) << "row " << g;
        EXPECT_EQ(whole.category_proportion(g), shard.category_proportion(i))
            << "row " << g;
        EXPECT_EQ(whole.bandwidth_mbps(g), shard.bandwidth_mbps(i)) << "row " << g;
        EXPECT_EQ(whole.cpu_cores(g), shard.cpu_cores(i)) << "row " << g;
    }
}

TEST(StoreSplit, ShardsAreExactSlicesWithGlobalOffsets) {
    const PopulationStore whole = make_store(97);
    const std::vector<PopulationStore> shards = slices(whole, {13, 14, 60});
    ASSERT_EQ(shards.size(), 4u);
    std::size_t expect_offset = 0;
    for (const PopulationStore& shard : shards) {
        EXPECT_EQ(shard.node_offset(), expect_offset);
        expect_is_slice(whole, shard);
        expect_offset += shard.size();
    }
    EXPECT_EQ(expect_offset, whole.size());
}

TEST(StoreSplit, SaltedShardEvolveMatchesWholeStoreEvolve) {
    // The core property, randomized: arbitrary boundaries, several rounds;
    // shards evolved under the coordinator's salt stay bit-identical
    // slices of the evolved whole.
    stats::Rng meta(0x517ULL);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = static_cast<std::size_t>(meta.uniform_int(5, 300));
        const std::size_t s = static_cast<std::size_t>(
            meta.uniform_int(2, static_cast<std::int64_t>(std::min<std::size_t>(n, 11))));
        SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" + std::to_string(n)
                     + " s=" + std::to_string(s));
        PopulationStore whole = make_store(n, 100 + static_cast<std::uint64_t>(trial));
        std::vector<PopulationStore> shards = slices(whole, random_boundaries(n, s, meta));
        stats::Rng rounds(0xabcULL + static_cast<std::uint64_t>(trial));
        for (int round = 0; round < 3; ++round) {
            const std::uint64_t salt = rounds.engine()();
            whole.evolve_with_salt(salt);
            for (PopulationStore& shard : shards) shard.evolve_with_salt(salt);
            for (const PopulationStore& shard : shards) expect_is_slice(whole, shard);
        }
    }
}

TEST(StoreSplit, ShardEvolveBitIdenticalAcrossWorkerCounts) {
    // Each shard's drift is row-pure, so any FMORE_ROUND_THREADS value —
    // including counts exceeding the shard size — replays the serial
    // reference exactly.
    PopulationStore reference = make_store(120);
    std::vector<PopulationStore> ref_shards = slices(reference, {7, 40, 41, 90});
    const std::uint64_t salt = 0xfeedULL;
    {
        const ScopedEnv env("FMORE_ROUND_THREADS", "1");
        for (PopulationStore& shard : ref_shards) shard.evolve_with_salt(salt);
    }
    for (const char* threads : {"2", "3", "8", "64"}) {
        SCOPED_TRACE(std::string("FMORE_ROUND_THREADS=") + threads);
        std::vector<PopulationStore> shards = slices(make_store(120), {7, 40, 41, 90});
        const ScopedEnv env("FMORE_ROUND_THREADS", threads);
        for (std::size_t i = 0; i < shards.size(); ++i) {
            shards[i].evolve_with_salt(salt);
            for (std::size_t row = 0; row < shards[i].size(); ++row) {
                EXPECT_EQ(shards[i].theta(row), ref_shards[i].theta(row));
                EXPECT_EQ(shards[i].data_size(row), ref_shards[i].data_size(row));
                EXPECT_EQ(shards[i].bandwidth_mbps(row),
                          ref_shards[i].bandwidth_mbps(row));
            }
        }
    }
}

TEST(StoreSplit, NestedSplitKeepsGlobalStreams) {
    // Slicing a shard again composes offsets, so a shard-of-a-shard
    // still drifts as its global rows.
    PopulationStore whole = make_store(80);
    std::vector<PopulationStore> outer = slices(whole, {30});
    std::vector<PopulationStore> inner = slices(outer[1], {20, 35});
    EXPECT_EQ(inner[0].node_offset(), 30u);
    EXPECT_EQ(inner[1].node_offset(), 50u);
    EXPECT_EQ(inner[2].node_offset(), 65u);
    const std::uint64_t salt = 0x9e1dULL;
    whole.evolve_with_salt(salt);
    for (PopulationStore& shard : inner) {
        shard.evolve_with_salt(salt);
        expect_is_slice(whole, shard);
    }
}

/// Both stores hold the same offset, the same salt history and the same
/// nine `snapshot()` columns, bit for bit.
void expect_same_store(const PopulationStore& a, const PopulationStore& b) {
    EXPECT_EQ(a.node_offset(), b.node_offset());
    const PopulationSnapshot x = a.snapshot();
    const PopulationSnapshot y = b.snapshot();
    EXPECT_EQ(x.salt_history, y.salt_history);
    ASSERT_EQ(x.columns.size(), 9u);
    ASSERT_EQ(y.columns.size(), 9u);
    for (std::size_t c = 0; c < 9; ++c) {
        ASSERT_EQ(x.columns[c].size(), y.columns[c].size()) << "column " << c;
        EXPECT_EQ(std::memcmp(x.columns[c].data(), y.columns[c].data(),
                              x.columns[c].size() * sizeof(double)),
                  0)
            << "column " << c;
    }
}

/// `part` holds exactly its global rows of `whole` in all nine
/// `snapshot()` columns, bit for bit.
void expect_rows_of(const PopulationStore& whole, const PopulationStore& part) {
    ASSERT_GE(part.node_offset(), whole.node_offset());
    const std::size_t lo = part.node_offset() - whole.node_offset();
    ASSERT_LE(lo + part.size(), whole.size());
    const PopulationSnapshot w = whole.snapshot();
    const PopulationSnapshot p = part.snapshot();
    for (std::size_t c = 0; c < 9; ++c)
        EXPECT_EQ(std::memcmp(p.columns[c].data(), w.columns[c].data() + lo,
                              part.size() * sizeof(double)),
                  0)
            << "column " << c;
}

TEST(StoreSplit, SliceHoldsItsRowsThroughDrift) {
    // The forked market's workers drift their slices, the in-process one
    // the whole store: for random cut points each slice holds exactly its
    // rows of the whole store in all nine columns, before and after drift
    // under the same salts, and records the same salts.
    stats::Rng meta(0x511ceULL);
    for (int trial = 0; trial < 6; ++trial) {
        const std::size_t n = static_cast<std::size_t>(meta.uniform_int(5, 300));
        const std::size_t s = static_cast<std::size_t>(
            meta.uniform_int(2, static_cast<std::int64_t>(std::min<std::size_t>(n, 11))));
        SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" + std::to_string(n)
                     + " s=" + std::to_string(s));
        PopulationStore whole = make_store(n, 300 + static_cast<std::uint64_t>(trial));
        std::vector<PopulationStore> shards = slices(whole, random_boundaries(n, s, meta));
        std::size_t offset = 0;
        for (const PopulationStore& shard : shards) {
            EXPECT_EQ(shard.node_offset(), offset);
            EXPECT_TRUE(shard.salt_history().empty());
            expect_rows_of(whole, shard);
            offset += shard.size();
        }

        stats::Rng rounds(0x5a17ULL + static_cast<std::uint64_t>(trial));
        for (int round = 0; round < 3; ++round) {
            const std::uint64_t salt = rounds.engine()();
            whole.evolve_with_salt(salt);
            for (PopulationStore& shard : shards) shard.evolve_with_salt(salt);
        }
        for (const PopulationStore& shard : shards) {
            EXPECT_EQ(shard.salt_history(), whole.salt_history());
            expect_rows_of(whole, shard);
        }
    }

    // A slice of a shard nests the offsets: it is the whole store's slice
    // of the same global rows.
    PopulationStore whole = make_store(80);
    const PopulationStore outer = whole.slice(30, 80);
    PopulationStore inner = outer.slice(20, 35);
    EXPECT_EQ(inner.node_offset(), 50u);
    EXPECT_EQ(inner.size(), 15u);
    expect_same_store(inner, whole.slice(50, 65));
    const std::uint64_t salt = 0x51ceULL;
    whole.evolve_with_salt(salt);
    inner.evolve_with_salt(salt);
    expect_rows_of(whole, inner);

    EXPECT_THROW((void)whole.slice(10, 10), std::invalid_argument);  // empty
    EXPECT_THROW((void)whole.slice(11, 10), std::invalid_argument);  // reversed
    EXPECT_THROW((void)whole.slice(0, 81), std::invalid_argument);   // past the end
    EXPECT_THROW((void)whole.slice(80, 80), std::invalid_argument);  // empty, at the end
    EXPECT_THROW((void)outer.slice(40, 51), std::invalid_argument);  // past a shard's end
    EXPECT_NO_THROW((void)whole.slice(0, 80));                       // the whole store
}

TEST(StoreSplit, SplitEvenBalancesAndTiles) {
    const PopulationStore whole = make_store(103);
    const std::vector<PopulationStore> shards =
        slices(whole, PopulationStore::even_boundaries(whole.size(), 8));
    ASSERT_EQ(shards.size(), 8u);
    std::size_t offset = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        EXPECT_EQ(shards[s].node_offset(), offset);
        // 103 = 8*12 + 7: the first 7 shards carry the extra node.
        EXPECT_EQ(shards[s].size(), s < 7 ? 13u : 12u);
        offset += shards[s].size();
    }
    EXPECT_EQ(offset, whole.size());
    EXPECT_TRUE(PopulationStore::even_boundaries(50, 1).empty());  // one shard
    EXPECT_EQ(PopulationStore::even_boundaries(50, 50).size(), 49u);  // one node each
    EXPECT_THROW((void)PopulationStore::even_boundaries(50, 0), std::invalid_argument);
    EXPECT_THROW((void)PopulationStore::even_boundaries(50, 51), std::invalid_argument);
}

} // namespace
} // namespace fmore::mec
