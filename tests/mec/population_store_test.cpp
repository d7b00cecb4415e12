// The SoA population store's contracts: evolve is bit-identical for any
// worker count (per-node counter-derived streams), consumes exactly one
// caller-RNG draw per round, and the MecPopulation/EdgeNode views mirror
// the store exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

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
    for (std::size_t i = 0; i < population.size(); ++i) {
        const EdgeNode& node = population.node(i);
        EXPECT_EQ(node.id(), i);
        EXPECT_EQ(node.theta(), store.theta(i));
        EXPECT_EQ(node.resources().data_size, store.data_size(i));
        EXPECT_EQ(node.resources().category_proportion, store.category_proportion(i));
        EXPECT_EQ(node.resources().bandwidth_mbps, store.bandwidth_mbps(i));
        EXPECT_EQ(node.resources().cpu_cores, store.cpu_cores(i));
        EXPECT_EQ(node.caps().data_size, store.caps(i).data_size);
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
    MecPopulation population(std::move(store));
    EXPECT_EQ(population.size(), 128u);
    stats::Rng ev(18);
    const double before = population.store().bandwidth_mbps(0);
    population.evolve(ev);
    // Mirror refreshes lazily and reflects the evolved store.
    EXPECT_EQ(population.node(0).resources().bandwidth_mbps,
              population.store().bandwidth_mbps(0));
    (void)before;
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
    // patterns. The store is the second shard of a split, so global
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
            PopulationStore shard = whole.split_even(2)[1];
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

} // namespace
} // namespace fmore::mec
