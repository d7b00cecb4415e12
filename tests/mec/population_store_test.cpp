// The SoA population store's contracts: evolve is bit-identical for any
// worker count (per-node counter-derived streams), consumes exactly one
// caller-RNG draw per round, and the per-node views (`resources`, `caps`)
// read the columns exactly. A shard narrowed to a bid layout drifts its kept
// columns bit for bit like the full shard and refuses every read of a
// column it left out.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/ml/synthetic.hpp"

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

std::vector<ml::ClientShard> make_shards(std::size_t clients) {
    stats::Rng rng(1);
    ml::ImageDatasetSpec spec;
    spec.samples = clients * 12;
    const ml::Dataset data = ml::make_synthetic_images(spec, rng);
    stats::Rng prng(2);
    return ml::partition_non_iid_variable(data, clients, 1, 4, prng);
}

PopulationSpec dynamic_spec() {
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.15;
    spec.dynamics.theta_jitter = 0.05;
    return spec;
}

PopulationStore make_store(std::size_t nodes = 200) {
    const stats::UniformDistribution theta(0.5, 1.5);
    stats::Rng rng(7);
    return PopulationStore(make_shards(nodes), 10, theta, dynamic_spec(), rng);
}

void expect_stores_equal(const PopulationStore& a, const PopulationStore& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.theta(i), b.theta(i)) << "node " << i;
        EXPECT_EQ(a.data_size(i), b.data_size(i)) << "node " << i;
        EXPECT_EQ(a.category_proportion(i), b.category_proportion(i)) << "node " << i;
        EXPECT_EQ(a.bandwidth_mbps(i), b.bandwidth_mbps(i)) << "node " << i;
        EXPECT_EQ(a.cpu_cores(i), b.cpu_cores(i)) << "node " << i;
    }
}

TEST(PopulationStore, EvolveBitIdenticalAcrossWorkerCounts) {
    // Serial reference, then the pool path under several explicit round-
    // thread counts — per-node streams make every partition identical.
    PopulationStore reference = make_store();
    stats::Rng ref_rng(11);
    for (int round = 0; round < 5; ++round) reference.evolve_serial(ref_rng);

    for (const char* threads : {"1", "2", "8"}) {
        const ScopedEnv env("FMORE_ROUND_THREADS", threads);
        PopulationStore store = make_store();
        stats::Rng rng(11);
        for (int round = 0; round < 5; ++round) store.evolve(rng);
        SCOPED_TRACE(std::string("FMORE_ROUND_THREADS=") + threads);
        expect_stores_equal(reference, store);
    }
}

TEST(PopulationStore, EvolveConsumesExactlyOneDrawPerRound) {
    // The salt is the only caller-RNG consumption, independent of N — what
    // keeps downstream draws (shuffles, psi flips) aligned between any two
    // populations evolved from the same generator.
    PopulationStore store = make_store(64);
    stats::Rng rng(3);
    stats::Rng twin(3);
    store.evolve(rng);
    (void)twin.engine()();
    EXPECT_EQ(rng.engine()(), twin.engine()());
}

TEST(PopulationStore, EvolveRespectsCapsAndBounds) {
    PopulationStore store = make_store(100);
    stats::Rng rng(5);
    for (int round = 0; round < 30; ++round) store.evolve(rng);
    for (std::size_t i = 0; i < store.size(); ++i) {
        const ResourceState caps = store.caps(i);
        EXPECT_LE(store.bandwidth_mbps(i), caps.bandwidth_mbps + 1e-12);
        EXPECT_GE(store.bandwidth_mbps(i), 0.05 * caps.bandwidth_mbps - 1e-12);
        EXPECT_LE(store.cpu_cores(i), caps.cpu_cores + 1e-12);
        EXPECT_LE(store.data_size(i), caps.data_size + 1e-12);
        EXPECT_GE(store.theta(i), store.theta_lo());
        EXPECT_LE(store.theta(i), store.theta_hi());
    }
}

TEST(PopulationStore, ViewsMirrorTheStoreAfterEvolve) {
    const stats::UniformDistribution theta(0.5, 1.5);
    stats::Rng rng(9);
    MecPopulation population(make_shards(50), 10, theta, dynamic_spec(), rng);
    stats::Rng ev(10);
    population.evolve(ev);
    const PopulationStore& store = population.store();
    // Snapshot columns: theta, four resources, then their four caps.
    const PopulationSnapshot snap = store.snapshot();
    for (std::size_t i = 0; i < population.size(); ++i) {
        const ResourceState resources = store.resources(i);
        const ResourceState caps = store.caps(i);
        EXPECT_EQ(store.theta(i), snap.columns[0][i]);
        EXPECT_EQ(resources.data_size, store.data_size(i));
        EXPECT_EQ(resources.category_proportion, store.category_proportion(i));
        EXPECT_EQ(resources.bandwidth_mbps, store.bandwidth_mbps(i));
        EXPECT_EQ(resources.cpu_cores, store.cpu_cores(i));
        EXPECT_EQ(caps.data_size, snap.columns[5][i]);
        EXPECT_EQ(caps.category_proportion, snap.columns[6][i]);
        EXPECT_EQ(caps.bandwidth_mbps, snap.columns[7][i]);
        EXPECT_EQ(caps.cpu_cores, snap.columns[8][i]);
    }
}

TEST(PopulationStore, SnapshotRestoreIsBitExact) {
    // Checkpoint/restore contract: restoring a snapshot into a store built
    // identically (same shards, same seed) reproduces the evolved columns
    // AND the salt history bit-exactly, so a resumed run's future evolves
    // match the uninterrupted twin's.
    PopulationStore evolved = make_store(80);
    stats::Rng rng(21);
    for (int round = 0; round < 4; ++round) evolved.evolve(rng);
    const PopulationSnapshot snap = evolved.snapshot();
    EXPECT_EQ(snap.salt_history.size(), 4u);
    EXPECT_EQ(snap.columns.size(), 9u);

    PopulationStore fresh = make_store(80);
    fresh.restore(snap);
    expect_stores_equal(evolved, fresh);
    EXPECT_EQ(fresh.salt_history(), evolved.salt_history());

    // Both continue identically from the restored state.
    stats::Rng a(33);
    stats::Rng b(33);
    evolved.evolve(a);
    fresh.evolve(b);
    expect_stores_equal(evolved, fresh);
}

TEST(PopulationStore, RestoreRejectsWrongShape) {
    PopulationStore store = make_store(40);
    PopulationSnapshot snap = store.snapshot();
    snap.columns.pop_back();
    EXPECT_THROW(store.restore(snap), std::invalid_argument);

    PopulationSnapshot wrong_size = store.snapshot();
    for (auto& col : wrong_size.columns) col.resize(col.size() - 1);
    EXPECT_THROW(store.restore(wrong_size), std::invalid_argument);

    PopulationSnapshot wrong_offset = store.snapshot();
    wrong_offset.node_offset = 999;
    EXPECT_THROW(store.restore(wrong_offset), std::invalid_argument);
}

TEST(PopulationStore, SyntheticPopulationRespectsRanges) {
    const stats::UniformDistribution theta(0.5, 1.5);
    PopulationSpec spec = dynamic_spec();
    spec.bandwidth_lo = 100.0;
    spec.bandwidth_hi = 400.0;
    SyntheticDataSpec data;
    data.data_lo = 30.0;
    data.data_hi = 90.0;
    data.category_lo = 0.2;
    data.category_hi = 0.8;
    stats::Rng rng(13);
    const PopulationStore store(5000, data, theta, spec, rng);
    ASSERT_EQ(store.size(), 5000u);
    for (std::size_t i = 0; i < store.size(); ++i) {
        const ResourceState caps = store.caps(i);
        EXPECT_GE(caps.data_size, 30.0);
        EXPECT_LE(caps.data_size, 90.0);
        EXPECT_GE(caps.category_proportion, 0.2);
        EXPECT_LE(caps.category_proportion, 0.8);
        EXPECT_GE(caps.bandwidth_mbps, 100.0);
        EXPECT_LE(caps.bandwidth_mbps, 400.0);
        EXPECT_LE(store.data_size(i), caps.data_size);
        EXPECT_LE(store.bandwidth_mbps(i), caps.bandwidth_mbps);
    }
}

TEST(PopulationStore, AdoptedStorePowersAPopulation) {
    const stats::UniformDistribution theta(0.5, 1.5);
    stats::Rng rng(17);
    PopulationStore store(128, SyntheticDataSpec{}, theta, dynamic_spec(), rng);
    PopulationStore twin = store;
    MecPopulation population(std::move(store));
    EXPECT_EQ(population.size(), 128u);
    // The adopted store drifts exactly as its twin does on its own.
    stats::Rng ev(18);
    stats::Rng twin_ev(18);
    population.evolve(ev);
    twin.evolve(twin_ev);
    expect_stores_equal(population.store(), twin);
}

TEST(PopulationStore, RejectsBadInputs) {
    const stats::UniformDistribution theta(0.5, 1.5);
    stats::Rng rng(19);
    EXPECT_THROW(PopulationStore({}, 10, theta, PopulationSpec{}, rng),
                 std::invalid_argument);
    EXPECT_THROW(PopulationStore(0, SyntheticDataSpec{}, theta, PopulationSpec{}, rng),
                 std::invalid_argument);
    SyntheticDataSpec bad;
    bad.data_lo = 10.0;
    bad.data_hi = 5.0;
    EXPECT_THROW(PopulationStore(10, bad, theta, PopulationSpec{}, rng),
                 std::invalid_argument);
}

/// First row where two snapshots' columns differ in any bit, per column.
void expect_snapshots_bitwise_equal(const PopulationSnapshot& a, const PopulationSnapshot& b) {
    static const char* const names[] = {"theta",    "data_size",    "category",
                                        "bandwidth", "cpu",         "data_cap",
                                        "category_cap", "bandwidth_cap", "cpu_cap"};
    ASSERT_EQ(a.columns.size(), 9u);
    ASSERT_EQ(b.columns.size(), 9u);
    EXPECT_EQ(a.node_offset, b.node_offset);
    EXPECT_EQ(a.salt_history, b.salt_history);
    for (std::size_t c = 0; c < 9; ++c) {
        ASSERT_EQ(a.columns[c].size(), b.columns[c].size()) << names[c];
        for (std::size_t i = 0; i < a.columns[c].size(); ++i) {
            if (std::bit_cast<std::uint64_t>(a.columns[c][i])
                != std::bit_cast<std::uint64_t>(b.columns[c][i])) {
                ADD_FAILURE() << names[c] << " differs first at row " << i << ": "
                              << a.columns[c][i] << " vs " << b.columns[c][i];
                break;
            }
        }
    }
}

TEST(PopulationStore, DriftKernelMatchesPerNodeReference) {
    // The pool path's branch-free row kernel against the per-node
    // reference. Rows with non-positive or NaN caps take no draw for that
    // resource, which shifts where every later draw of the row sits in its
    // stream, so caps are planted in all eight (bandwidth, cpu, data)
    // patterns. The store is the second half of a larger one, so global
    // stream ids start above 0, and it spans several evolve chunks.
    const stats::UniformDistribution theta(0.5, 1.5);
    for (const double resource_jitter : {0.0, 0.12}) {
        for (const double theta_jitter : {0.0, 0.04}) {
            PopulationSpec spec;
            spec.dynamics.resource_jitter = resource_jitter;
            spec.dynamics.theta_jitter = theta_jitter;
            stats::Rng rng(23);
            const PopulationStore whole(2 * (3 * 4096 + 77), SyntheticDataSpec{}, theta,
                                        spec, rng);
            PopulationStore shard = whole.slice(whole.size() / 2, whole.size());
            ASSERT_GT(shard.node_offset(), 0u);

            PopulationSnapshot planted = shard.snapshot();
            for (std::size_t i = 0; i < shard.size(); ++i) {
                const double dead = i % 16 >= 8 ? -1.0 : 0.0;
                if (i % 2 == 1) planted.columns[7][i] = dead;  // bandwidth cap
                if (i % 4 >= 2) planted.columns[8][i] = dead;  // cpu cap
                if (i % 8 >= 4) planted.columns[5][i] = dead;  // data cap
                if (i % 97 == 0) planted.columns[7][i] = std::nan("");
            }
            shard.restore(planted);

            PopulationStore reference = shard;
            stats::Rng ref_rng(29);
            for (int round = 0; round < 5; ++round) reference.evolve_serial(ref_rng);
            const PopulationSnapshot drifted = reference.snapshot();
            EXPECT_EQ(drifted.columns[0] != planted.columns[0], theta_jitter > 0.0);
            EXPECT_EQ(drifted.columns[3] != planted.columns[3], resource_jitter > 0.0);

            for (const char* threads : {"1", "4"}) {
                SCOPED_TRACE(std::string("resource_jitter=") + std::to_string(resource_jitter)
                             + " theta_jitter=" + std::to_string(theta_jitter)
                             + " FMORE_ROUND_THREADS=" + threads);
                const ScopedEnv env("FMORE_ROUND_THREADS", threads);
                PopulationStore store = shard;
                stats::Rng store_rng(29);
                for (int round = 0; round < 5; ++round) store.evolve(store_rng);
                expect_snapshots_bitwise_equal(reference.snapshot(), store.snapshot());
            }
        }
    }
}

/// Reads row `i` of `dim` through its scalar accessor.
double read_scalar(const PopulationStore& store, ResourceDim dim, std::size_t i) {
    switch (dim) {
        case ResourceDim::data_size: return store.data_size(i);
        case ResourceDim::category_proportion: return store.category_proportion(i);
        case ResourceDim::bandwidth: return store.bandwidth_mbps(i);
        case ResourceDim::cpu: return store.cpu_cores(i);
    }
    return 0.0;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size()
           && std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
                  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
              });
}

/// `store.slice(lo, hi, layout)` against `store.slice(lo, hi)`: the same
/// thetas and layout columns, bit for bit, after 20 rounds of drift; every
/// read of a column it left out throws; the draw bytes it takes are what a
/// forked child must be handed.
void expect_narrowed_drift_like_full(const PopulationStore& store, std::size_t lo,
                                     std::size_t hi, const QualityLayout& layout) {
    const auto keeps = [&](ResourceDim dim) {
        return std::find(layout.begin(), layout.end(), dim) != layout.end();
    };
    PopulationStore full = store.slice(lo, hi);
    PopulationStore narrow = store.slice(lo, hi, layout);
    ASSERT_EQ(narrow.size(), full.size());
    ASSERT_EQ(narrow.node_offset(), full.node_offset());
    stats::Rng full_rng(37);
    stats::Rng narrow_rng(37);
    for (int round = 0; round < 20; ++round) {
        full.evolve(full_rng);
        narrow.evolve(narrow_rng);
    }
    EXPECT_EQ(narrow.salt_history(), full.salt_history());
    EXPECT_TRUE(bitwise_equal(narrow.thetas(), full.thetas()));
    EXPECT_EQ(narrow.thetas() != store.slice(lo, hi).thetas(),
              store.dynamics().theta_jitter > 0.0);
    for (const ResourceDim dim : layout)
        EXPECT_TRUE(bitwise_equal(narrow.column(dim), full.column(dim)))
            << "column " << static_cast<int>(dim);

    // Every read of a left-out column throws, so does everything that reads
    // all nine; the kept ones read as the full slice.
    for (const ResourceDim dim : {ResourceDim::data_size, ResourceDim::category_proportion,
                                  ResourceDim::bandwidth, ResourceDim::cpu}) {
        if (keeps(dim)) {
            EXPECT_EQ(read_scalar(narrow, dim, 5), read_scalar(full, dim, 5));
            continue;
        }
        EXPECT_THROW((void)narrow.column(dim), std::logic_error);
        EXPECT_THROW((void)read_scalar(narrow, dim, 5), std::logic_error);
    }
    EXPECT_EQ(narrow.theta(5), full.theta(5));
    EXPECT_THROW((void)narrow.resources(5), std::logic_error);
    EXPECT_THROW((void)narrow.caps(5), std::logic_error);
    EXPECT_THROW((void)narrow.snapshot(), std::logic_error);
    EXPECT_THROW(narrow.restore(full.snapshot()), std::logic_error);
    stats::Rng serial_rng(41);
    EXPECT_THROW(narrow.evolve_serial(serial_rng), std::logic_error);
    EXPECT_THROW((void)narrow.slice(0, 1), std::logic_error);
    EXPECT_THROW((void)narrow.bytes_outside(0, 1, layout), std::logic_error);

    // The child's copy takes the parent's draw bytes, exactly as many as
    // `draw_bits` returns; it is refused before it copies (and releases)
    // anything.
    const bool keeps_drift = keeps(ResourceDim::data_size) && keeps(ResourceDim::bandwidth)
                             && keeps(ResourceDim::cpu);
    const std::vector<std::uint8_t> bits = store.draw_bits(lo, hi, layout);
    EXPECT_EQ(bits.size(), keeps_drift ? 0u : hi - lo);
    std::vector<std::uint8_t> wrong(bits.empty() ? 1 : bits.size() - 1);
    EXPECT_THROW((void)store.slice_and_release(lo, hi, layout, wrong), std::invalid_argument);
}

TEST(PopulationStore, NarrowedSliceDriftsLikeTheFullSlice) {
    // A forked shard worker keeps only what a bid over its layout reads; the
    // draw bytes stand in for the drifting caps it leaves out. Caps that are
    // zero, negative or NaN take no draw, which moves every later draw of
    // the row, so they are planted on scattered rows of every drifting cap
    // (the draw bytes then read the caps), and the store as built, whose
    // caps are all positive, is run too (the draw bytes then read none).
    // The slices start above row 0 and span several evolve chunks. The
    // first four layouts are the two canned ones and two of one column;
    // with the other four, every set of drifting columns is kept by one.
    const stats::UniformDistribution theta(0.5, 1.5);
    const std::vector<QualityLayout> layouts = {
        data_category_extractor(),
        cpu_bandwidth_data_extractor(),
        {ResourceDim::bandwidth},
        {ResourceDim::category_proportion},
        {ResourceDim::cpu},
        {ResourceDim::cpu, ResourceDim::bandwidth},
        {ResourceDim::data_size, ResourceDim::bandwidth},
        {ResourceDim::data_size, ResourceDim::cpu, ResourceDim::category_proportion}};
    for (const bool dead_caps : {true, false}) {
        for (const double resource_jitter : {0.0, 0.12}) {
            for (const double theta_jitter : {0.0, 0.04}) {
                PopulationSpec spec;
                spec.dynamics.resource_jitter = resource_jitter;
                spec.dynamics.theta_jitter = theta_jitter;
                stats::Rng rng(31);
                PopulationStore store(3 * 4096 + 2000, SyntheticDataSpec{}, theta, spec, rng);
                PopulationSnapshot planted = store.snapshot();
                for (std::size_t i = 0; dead_caps && i < store.size(); ++i) {
                    const double dead = i % 2 == 0 ? 0.0 : -3.0;
                    if (i % 3 == 1) planted.columns[7][i] = dead;  // bandwidth cap
                    if (i % 5 == 2) planted.columns[8][i] = dead;  // cpu cap
                    if (i % 7 == 3) planted.columns[5][i] = dead;  // data cap
                    if (i % 101 == 0) planted.columns[8][i] = std::nan("");
                }
                store.restore(planted);
                for (const QualityLayout& layout : layouts) {
                    SCOPED_TRACE(std::string(dead_caps ? "dead caps" : "positive caps")
                                 + " resource_jitter=" + std::to_string(resource_jitter)
                                 + " theta_jitter=" + std::to_string(theta_jitter)
                                 + " layout of " + std::to_string(layout.size())
                                 + " columns, first "
                                 + std::to_string(static_cast<int>(layout.front())));
                    expect_narrowed_drift_like_full(store, 1234, store.size() - 777, layout);
                }
                expect_snapshots_bitwise_equal(store.snapshot(), planted);
            }
        }
    }
}

} // namespace
} // namespace fmore::mec
