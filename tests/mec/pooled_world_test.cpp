// The world builds on the pool (`stats::draw_in_chunks`): the population
// store's constructors and the image generator replay their one mt19937_64
// stream in chunks. Their output and the generator's state afterwards must
// equal the serial loops they replaced (`fmore/reference/serial_world.hpp`)
// at every thread count, at sizes around the chunk boundaries, with the
// train/test cut inside a chunk, inside a trial lease and while other builds
// share the pool. Two digests recorded before the pooled builds existed pin
// the worlds themselves, and a walk that miscounts the draws is caught.
//
// The forked-child case lives in ForkedPool: this suite runs under the
// ThreadSanitizer leg, which cannot follow a fork.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fmore/mec/population_store.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/reference/serial_world.hpp"
#include "fmore/stats/chunk_replay.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore {
namespace {

/// Sets (or, with nullptr, unsets) an environment variable for a scope.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        const char* previous = std::getenv(name);
        had_previous_ = previous != nullptr;
        if (had_previous_) previous_ = previous;
        if (value != nullptr) ::setenv(name, value, 1);
        else ::unsetenv(name);
    }
    ~ScopedEnv() {
        if (had_previous_) ::setenv(name_, previous_.c_str(), 1);
        else ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    bool had_previous_ = false;
    std::string previous_;
};

/// The store's build chunk (population_store.cpp) and the image set's
/// (synthetic_images.cpp): the sizes below straddle their boundaries.
constexpr std::size_t kStoreChunk = 65'536;
constexpr std::size_t kImageChunk = 32;

constexpr const char* kThreadCounts[] = {"1", "2", "3", "4"};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

template <class T>
std::uint64_t fnv1a(std::uint64_t hash, const std::vector<T>& values) {
    return fnv1a(hash, values.data(), values.size() * sizeof(T));
}

/// perfbench's market rules: the store every market lane builds.
mec::PopulationSpec market_spec() {
    mec::PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    return spec;
}

mec::SyntheticDataSpec market_data() {
    mec::SyntheticDataSpec data;
    data.data_hi = 150.0;
    return data;
}

/// `count` shards of 1-7 samples over 1-10 labels.
std::vector<ml::ClientShard> make_shards(std::size_t count) {
    std::vector<ml::ClientShard> shards(count);
    for (std::size_t i = 0; i < count; ++i) {
        shards[i].indices.assign(1 + i % 7, i);
        shards[i].label_count.assign(10, 0);
        for (std::size_t c = 0; c <= i % 10; ++c) shards[i].label_count[c] = 1;
    }
    return shards;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << what;
}

void expect_same_columns(const mec::PopulationStore& store,
                         const std::vector<std::vector<double>>& reference) {
    const mec::PopulationSnapshot snap = store.snapshot();
    ASSERT_EQ(snap.columns.size(), reference.size());
    for (std::size_t c = 0; c < reference.size(); ++c)
        expect_same_bits(snap.columns[c], reference[c], ("column " + std::to_string(c)).c_str());
}

void expect_same_split(const ml::DatasetSplit& a, const ml::DatasetSplit& b) {
    for (const auto& [x, y, half] : {std::tuple{&a.train, &b.train, "train"},
                                     std::tuple{&a.test, &b.test, "test"}}) {
        SCOPED_TRACE(half);
        EXPECT_EQ(x->sample_shape, y->sample_shape);
        EXPECT_EQ(x->num_classes, y->num_classes);
        EXPECT_EQ(x->labels, y->labels);
        ASSERT_EQ(x->features.size(), y->features.size());
        EXPECT_EQ(std::memcmp(x->features.data(), y->features.data(),
                              x->features.size() * sizeof(float)),
                  0);
    }
}

TEST(PooledWorld, ImageSetKeepsItsRecordedDigest) {
    // fl_cifar's data set shape: 10,500 CIFAR-shaped samples cut at 9,000.
    // Recorded from the serial generator, before the pooled build.
    stats::Rng rng(0x1ae5ULL);
    const ml::DatasetSplit split =
        ml::make_synthetic_images(ml::cifar10_spec(10'500), 9'000, rng);
    std::uint64_t hash = kFnvBasis;
    hash = fnv1a(hash, split.train.features);
    hash = fnv1a(hash, split.train.labels);
    hash = fnv1a(hash, split.test.features);
    hash = fnv1a(hash, split.test.labels);
    const std::uint64_t next = rng.engine()();
    hash = fnv1a(hash, &next, sizeof next);
    EXPECT_EQ(hash, 0x1c9adde14627d4e5ull);
}

TEST(PooledWorld, MillionNodeStoreKeepsItsRecordedDigest) {
    // The market lanes' 1M-node synthetic store: its nine columns and the
    // next engine draw, recorded from the serial constructor.
    const stats::UniformDistribution theta(0.5, 1.5);
    stats::Rng rng(0x5707eULL);
    const mec::PopulationStore store(1'000'000, market_data(), theta, market_spec(), rng);
    std::uint64_t hash = kFnvBasis;
    for (const std::vector<double>& column : store.snapshot().columns)
        hash = fnv1a(hash, column);
    const std::uint64_t next = rng.engine()();
    hash = fnv1a(hash, &next, sizeof next);
    EXPECT_EQ(hash, 0x5048ded7a01c217bull);
}

TEST(PooledWorld, SyntheticStoreEqualsTheSerialLoopAtEveryThreadCount) {
    const stats::UniformDistribution theta(0.5, 1.5);
    for (const std::size_t nodes :
         {std::size_t{1}, kStoreChunk - 1, kStoreChunk, kStoreChunk + 1, 4 * kStoreChunk + 3}) {
        stats::Rng serial_rng(nodes);
        const std::vector<std::vector<double>> reference = reference::serial_store_columns(
            nodes, market_data(), theta, market_spec(), serial_rng);
        for (const char* threads : kThreadCounts) {
            SCOPED_TRACE(std::to_string(nodes) + " nodes, FMORE_ROUND_THREADS=" + threads);
            const ScopedEnv env("FMORE_ROUND_THREADS", threads);
            stats::Rng rng(nodes);
            const mec::PopulationStore store(nodes, market_data(), theta, market_spec(), rng);
            expect_same_columns(store, reference);
            EXPECT_TRUE(rng.engine() == serial_rng.engine());
        }
    }
}

TEST(PooledWorld, ShardStoreEqualsTheSerialLoopAtEveryThreadCount) {
    const stats::UniformDistribution theta(0.2, 2.0);
    for (const std::size_t nodes :
         {std::size_t{1}, kStoreChunk - 1, kStoreChunk, kStoreChunk + 1, 2 * kStoreChunk + 9}) {
        const std::vector<ml::ClientShard> shards = make_shards(nodes);
        stats::Rng serial_rng(nodes + 1);
        const std::vector<std::vector<double>> reference =
            reference::serial_store_columns(shards, 10, theta, market_spec(), serial_rng);
        for (const char* threads : kThreadCounts) {
            SCOPED_TRACE(std::to_string(nodes) + " shards, FMORE_ROUND_THREADS=" + threads);
            const ScopedEnv env("FMORE_ROUND_THREADS", threads);
            stats::Rng rng(nodes + 1);
            const mec::PopulationStore store(shards, 10, theta, market_spec(), rng);
            expect_same_columns(store, reference);
            EXPECT_TRUE(rng.engine() == serial_rng.engine());
        }
    }
}

TEST(PooledWorld, ImageSetEqualsTheSerialLoopAtEveryThreadCount) {
    struct Case {
        ml::ImageDatasetSpec spec;
        std::size_t train;
    };
    const std::vector<Case> cases = {
        {ml::mnist_o_spec(1), 1},
        {ml::mnist_o_spec(kImageChunk - 1), kImageChunk - 1},
        {ml::mnist_f_spec(kImageChunk), 7},
        {ml::mnist_f_spec(kImageChunk + 1), kImageChunk + 1},
        // The train/test cut falls inside the second chunk.
        {ml::cifar10_spec(5 * kImageChunk + 3), kImageChunk + 13},
        {ml::cifar10_spec(3 * kImageChunk), 0},
    };
    for (const Case& c : cases) {
        stats::Rng serial_rng(c.spec.samples);
        const ml::DatasetSplit reference =
            reference::serial_synthetic_images(c.spec, c.train, serial_rng);
        for (const char* threads : kThreadCounts) {
            SCOPED_TRACE(std::to_string(c.spec.samples) + " samples cut at "
                         + std::to_string(c.train) + ", FMORE_ROUND_THREADS=" + threads);
            const ScopedEnv env("FMORE_ROUND_THREADS", threads);
            stats::Rng rng(c.spec.samples);
            expect_same_split(ml::make_synthetic_images(c.spec, c.train, rng), reference);
            EXPECT_TRUE(rng.engine() == serial_rng.engine());
        }
    }
}

TEST(PooledWorld, ConcurrentBuildsInsideTrialLeasesEqualTheSerialLoop) {
    // Three trial-runner-like workers, each counted by the budget and
    // holding a lease of one, build at once on the shared pool with no
    // explicit round threads: each sizes itself from what the budget has
    // left, and every build still equals the serial loop.
    const ScopedEnv env("FMORE_ROUND_THREADS", nullptr);
    const stats::UniformDistribution theta(0.5, 1.5);
    constexpr std::size_t kNodes = 3 * kStoreChunk + 11;
    const ml::ImageDatasetSpec spec = ml::cifar10_spec(9 * kImageChunk + 5);
    stats::Rng store_rng(21);
    const std::vector<std::vector<double>> store_reference =
        reference::serial_store_columns(kNodes, market_data(), theta, market_spec(), store_rng);
    stats::Rng image_rng(22);
    const ml::DatasetSplit image_reference =
        reference::serial_synthetic_images(spec, 4 * kImageChunk + 1, image_rng);

    std::vector<std::string> failures(3);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < failures.size(); ++w) {
        workers.emplace_back([&, w] {
            const util::ThreadLease lease(1, /*exact=*/true);
            const util::CountedThreadScope counted;
            for (int rep = 0; rep < 2; ++rep) {
                stats::Rng rng(21);
                const mec::PopulationStore store(kNodes, market_data(), theta, market_spec(),
                                                 rng);
                if (store.snapshot().columns != store_reference
                    || !(rng.engine() == store_rng.engine()))
                    failures[w] += " store";
                stats::Rng data_rng(22);
                const ml::DatasetSplit split =
                    ml::make_synthetic_images(spec, 4 * kImageChunk + 1, data_rng);
                if (split.train.features != image_reference.train.features
                    || split.test.features != image_reference.test.features
                    || split.train.labels != image_reference.train.labels
                    || split.test.labels != image_reference.test.labels
                    || !(data_rng.engine() == image_rng.engine()))
                    failures[w] += " images";
            }
        });
    }
    for (std::thread& t : workers) t.join();
    for (std::size_t w = 0; w < failures.size(); ++w)
        EXPECT_EQ(failures[w], "") << "worker " << w << " built a world off the serial loop";
}

/// A pass of `items` items that each take `draws` engine outputs, summed
/// into `out[i]`; its walk takes `walk_draws` per item.
stats::ChunkedPass counting_pass(std::size_t items, std::size_t draws, std::size_t walk_draws,
                                 std::vector<std::uint64_t>& out) {
    stats::ChunkedPass pass;
    pass.items = items;
    pass.chunk_items = 8;
    pass.prepare_tasks = 1;
    pass.prepare = [&out, items](std::size_t) { out.assign(items, 0); };
    pass.walk = [walk_draws](stats::Rng& rng, std::size_t lo, std::size_t hi) {
        rng.engine().discard((hi - lo) * walk_draws);
    };
    pass.draw = [&out, draws](stats::Rng& rng, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            for (std::size_t d = 0; d < draws; ++d) out[i] += rng.engine()();
    };
    return pass;
}

TEST(PooledWorld, WalkThatMiscountsTheDrawsThrows) {
    std::vector<std::uint64_t> serial;
    stats::Rng serial_rng(5);
    {
        const ScopedEnv env("FMORE_ROUND_THREADS", "1");
        stats::draw_in_chunks(serial_rng, counting_pass(100, 3, 3, serial));
    }
    for (const char* threads : {"2", "4"}) {
        SCOPED_TRACE(std::string("FMORE_ROUND_THREADS=") + threads);
        const ScopedEnv env("FMORE_ROUND_THREADS", threads);
        std::vector<std::uint64_t> out;
        stats::Rng rng(5);
        stats::draw_in_chunks(rng, counting_pass(100, 3, 3, out));
        EXPECT_EQ(out, serial);
        EXPECT_TRUE(rng.engine() == serial_rng.engine());
        for (const std::size_t walk_draws : {std::size_t{2}, std::size_t{4}}) {
            stats::Rng off(5);
            EXPECT_THROW(stats::draw_in_chunks(off, counting_pass(100, 3, walk_draws, out)),
                         std::logic_error)
                << "walk of " << walk_draws << " draws per item";
        }
    }
    // One thread draws every item itself: there is no walk to miscount.
    const ScopedEnv env("FMORE_ROUND_THREADS", "1");
    std::vector<std::uint64_t> out;
    stats::Rng rng(5);
    stats::draw_in_chunks(rng, counting_pass(100, 3, 2, out));
    EXPECT_EQ(out, serial);
}

TEST(PooledWorld, FailingWalkOrPrepareThrowsWithoutHanging) {
    const ScopedEnv env("FMORE_ROUND_THREADS", "4");
    std::vector<std::uint64_t> out;
    stats::ChunkedPass walk_fails = counting_pass(200, 1, 1, out);
    walk_fails.walk = [](stats::Rng& rng, std::size_t lo, std::size_t hi) {
        if (lo >= 64) throw std::runtime_error("walk failed");
        rng.engine().discard(hi - lo);
    };
    stats::Rng rng(9);
    EXPECT_THROW(stats::draw_in_chunks(rng, walk_fails), std::runtime_error);

    stats::ChunkedPass prepare_fails = counting_pass(200, 1, 1, out);
    prepare_fails.prepare = [](std::size_t) { throw std::runtime_error("prepare failed"); };
    EXPECT_THROW(stats::draw_in_chunks(rng, prepare_fails), std::runtime_error);
}

} // namespace
} // namespace fmore
