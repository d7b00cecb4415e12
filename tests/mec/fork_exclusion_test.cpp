// What a forked child maps of its parent's memory, probed from inside the
// child: `mincore` fails with ENOMEM on a page the child does not map at
// all, and the child reports one verdict per page back over a pipe.
//  - util::ForkExclusion keeps out of a fork exactly the whole pages inside
//    each range, never a page a range only partly covers, leaves the
//    parent's bytes alone, and lets every page into forks again once it is
//    destroyed.
//  - ProcessShardAggregator hides the caller's store from each worker only
//    while it forks that worker: after the constructor a plain child reads
//    the whole store, and a second aggregator over it plays the same rounds
//    as the first and as the monolithic market.
//  - PopulationStore::slice_and_release, run in a child forked under the
//    aggregator's exclusion list (`bytes_outside`), keeps exactly what
//    `slice` holds of the layout's columns (also after drift), leaves none
//    of the source rows' whole pages resident there, and never maps a
//    column the layout leaves out.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/mec/shard_aggregator.hpp"
#include "fmore/mec/wire_format.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/util/pages.hpp"

namespace fmore::mec {
namespace {

std::size_t page_size() { return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)); }

/// What a forked child wrote to its pipe, and how it ended.
struct ChildResult {
    std::string out;
    int status = 0;

    [[nodiscard]] bool exited_cleanly() const {
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
};

/// Runs `body(fd)` in a forked child that writes its findings to `fd`, and
/// returns them once the child has exited. The child never returns into the
/// test framework: it `_exit`s 0 after `body`, 1 if `body` throws.
template <class Body>
ChildResult run_in_child(const Body& body) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
        ::close(fds[0]);
        try {
            body(fds[1]);
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    ChildResult result;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        result.out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    ::waitpid(pid, &result.status, 0);
    return result;
}

/// Anonymous pages mapped for one test, byte i holding `pattern(i)`.
class PageBuffer {
public:
    explicit PageBuffer(std::size_t pages) : size_(pages * page_size()) {
        void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) throw std::runtime_error("mmap() failed");
        data_ = static_cast<std::uint8_t*>(p);
        for (std::size_t i = 0; i < size_; ++i) data_[i] = pattern(i);
    }
    ~PageBuffer() { ::munmap(data_, size_); }
    PageBuffer(const PageBuffer&) = delete;
    PageBuffer& operator=(const PageBuffer&) = delete;

    [[nodiscard]] const std::uint8_t* data() const { return data_; }
    [[nodiscard]] std::size_t pages() const { return size_ / page_size(); }

    /// Byte `i` of page `page` still holds its pattern, for every byte.
    [[nodiscard]] bool page_intact(std::size_t page) const {
        const std::size_t at = page * page_size();
        for (std::size_t i = at; i < at + page_size(); ++i)
            if (data_[i] != pattern(i)) return false;
        return true;
    }

    [[nodiscard]] bool intact() const {
        for (std::size_t page = 0; page < pages(); ++page)
            if (!page_intact(page)) return false;
        return true;
    }

    /// One verdict per page, as a forked child sees the buffer: 'u' when
    /// the child does not map the page, 'm' when it maps it and the page
    /// holds its bytes, 'x' when it maps other bytes, '?' when `mincore`
    /// fails for another reason.
    [[nodiscard]] std::string child_view() const {
        const ChildResult child = run_in_child([this](int fd) {
            std::string verdicts;
            for (std::size_t page = 0; page < pages(); ++page) {
                unsigned char resident = 0;
                if (::mincore(data_ + page * page_size(), page_size(), &resident) != 0)
                    verdicts += errno == ENOMEM ? 'u' : '?';
                else
                    verdicts += page_intact(page) ? 'm' : 'x';
            }
            if (!wire::write_all(fd, verdicts.data(), verdicts.size())) ::_exit(1);
        });
        if (!child.exited_cleanly()) return "child failed";
        return child.out;
    }

private:
    static std::uint8_t pattern(std::size_t i) {
        return static_cast<std::uint8_t>(i * 131 + i / 4096 + 7);
    }

    std::size_t size_;
    std::uint8_t* data_ = nullptr;
};

TEST(ForkExclusion, ChildLacksExactlyTheWholePagesInsideEachRange) {
    // Unaligned ranges: the partly covered pages 0, 3 and 8 stay mapped.
    const std::size_t p = page_size();
    const PageBuffer buffer(12);
    const std::uint8_t* b = buffer.data();
    std::string seen;
    {
        const util::ForkExclusion exclusion(
            {{b + 100, b + 3 * p + 50}, {b + 8 * p + 7, b + 12 * p}});
        seen = buffer.child_view();
    }
    //        page 0123456789ab
    EXPECT_EQ(seen, "muummmmmmuuu");
    EXPECT_TRUE(buffer.intact());
}

TEST(ForkExclusion, RangesShorterThanAPageHideNothing) {
    // Two ranges under one page (one inside page 5, one across the 6/7
    // boundary) hide nothing; an exactly page-aligned range hides its page.
    const std::size_t p = page_size();
    const PageBuffer buffer(8);
    const std::uint8_t* b = buffer.data();
    std::string seen;
    {
        const util::ForkExclusion exclusion({{b + 5 * p + 10, b + 5 * p + 200},
                                             {b + 6 * p + 100, b + 7 * p + 50},
                                             {b + 2 * p, b + 3 * p}});
        seen = buffer.child_view();
    }
    EXPECT_EQ(seen, "mmummmmm");
    EXPECT_TRUE(buffer.intact());
}

TEST(ForkExclusion, DestroyedGuardLetsEveryPageIntoForksAgain) {
    const PageBuffer buffer(6);
    const std::uint8_t* b = buffer.data();
    {
        const util::ForkExclusion exclusion({util::ByteRange{b, b + 6 * page_size()}});
        EXPECT_EQ(buffer.child_view(), "uuuuuu");
    }
    EXPECT_EQ(buffer.child_view(), "mmmmmm");
    EXPECT_TRUE(buffer.intact());
}

// ---------------------------------------------------------------------------
// The caller's store across the aggregator's forks
// ---------------------------------------------------------------------------

constexpr double kDataHi = 150.0;

struct Market {
    std::vector<stats::MinMaxNormalizer> norms;
    std::unique_ptr<auction::ScaledProductScoring> scoring;
    std::unique_ptr<auction::AdditiveCost> cost;
    std::unique_ptr<stats::UniformDistribution> theta;
    std::unique_ptr<auction::EquilibriumStrategy> strategy;

    Market() {
        norms.emplace_back(0.0, kDataHi);
        norms.emplace_back(0.0, 1.0);
        scoring = std::make_unique<auction::ScaledProductScoring>(25.0, 2, norms);
        cost = std::make_unique<auction::AdditiveCost>(
            std::vector<double>{6.0 / kDataHi, 2.0});
        theta = std::make_unique<stats::UniformDistribution>(0.5, 1.5);
        auction::EquilibriumConfig eq;
        eq.num_bidders = 100;
        eq.num_winners = 8;
        strategy = std::make_unique<auction::EquilibriumStrategy>(
            auction::EquilibriumSolver(*scoring, *cost, *theta, {1.0, 0.05},
                                       {kDataHi, 1.0}, eq)
                .solve());
    }
};

PopulationStore make_store(const Market& market, std::size_t n, std::uint64_t seed) {
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(seed);
    return PopulationStore(n, data, *market.theta, spec, rng);
}

/// CRC-32 of each of the store's nine columns, in snapshot order.
std::vector<std::uint32_t> column_crcs(const PopulationStore& store) {
    std::vector<std::uint32_t> crcs;
    for (const std::vector<double>& column : store.snapshot().columns)
        crcs.push_back(wire::crc32(column.data(), column.size() * sizeof(double)));
    return crcs;
}

TEST(ForkExclusion, AggregatorLeavesTheCallerStoreWholeForLaterForks) {
    const Market market;
    const std::size_t n = 20'000;
    const std::size_t k = 8;
    const std::uint64_t seed = 0x51ULL;
    const PopulationStore store = make_store(market, n, seed);
    const std::vector<std::uint32_t> before = column_crcs(store);

    auction::WinnerDeterminationConfig wd;
    wd.num_winners = k;
    wd.tie_break = auction::TieBreak::salted;
    wd.full_ranking = false;
    const QualityLayout layout{ResourceDim::data_size, ResourceDim::category_proportion};
    ProcessShardAggregator first(store, *market.scoring, *market.strategy, wd, layout,
                                 /*num_shards=*/4, /*shard_timeout_s=*/30.0);

    // A plain child forked after the constructor maps every row.
    const ChildResult child = run_in_child([&](int fd) {
        const std::vector<std::uint32_t> crcs = column_crcs(store);
        if (!wire::write_all(fd, crcs.data(), crcs.size() * sizeof(std::uint32_t)))
            ::_exit(1);
    });
    ASSERT_TRUE(child.exited_cleanly()) << "status " << child.status;
    ASSERT_EQ(child.out.size(), before.size() * sizeof(std::uint32_t));
    std::vector<std::uint32_t> seen(before.size());
    std::memcpy(seen.data(), child.out.data(), child.out.size());
    EXPECT_EQ(seen, before);
    EXPECT_EQ(column_crcs(store), before);

    // So do the workers of a second aggregator: both play the rounds of the
    // monolithic salted market over the same rows (at this size each
    // worker's rows span whole pages, which it releases as it copies them).
    ProcessShardAggregator second(store, *market.scoring, *market.strategy, wd, layout,
                                  /*num_shards=*/4, /*shard_timeout_s=*/30.0);
    MecPopulation population(make_store(market, n, seed));
    AuctionSelector monolithic(population, *market.scoring, *market.strategy, wd,
                               data_category_extractor(), /*data_dimension=*/0);
    stats::Rng first_rng(seed);
    stats::Rng second_rng(seed);
    stats::Rng monolithic_rng(seed);
    for (std::size_t round = 1; round <= 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auction::AuctionOutcome& a = first.run_round(round, k, first_rng);
        const auction::AuctionOutcome& b = second.run_round(round, k, second_rng);
        const auction::AuctionOutcome& c =
            monolithic.run_auction_round(round, k, monolithic_rng);
        EXPECT_TRUE(first.last_dropped_shards().empty());
        EXPECT_TRUE(second.last_dropped_shards().empty());
        ASSERT_EQ(a.winners.size(), k);
        ASSERT_EQ(b.winners.size(), k);
        ASSERT_EQ(c.winners.size(), k);
        for (std::size_t w = 0; w < k; ++w) {
            EXPECT_EQ(a.winners[w].node, c.winners[w].node);
            EXPECT_EQ(a.winners[w].score, c.winners[w].score);
            EXPECT_EQ(a.winners[w].payment, c.winners[w].payment);
            EXPECT_EQ(b.winners[w].node, c.winners[w].node);
            EXPECT_EQ(b.winners[w].score, c.winners[w].score);
            EXPECT_EQ(b.winners[w].payment, c.winners[w].payment);
        }
    }
    EXPECT_EQ(column_crcs(store), before);
}

/// Every field equal, the columns bit for bit.
bool same_bits(const PopulationSnapshot& a, const PopulationSnapshot& b) {
    if (a.node_offset != b.node_offset || a.salt_history != b.salt_history
        || a.columns.size() != b.columns.size())
        return false;
    for (std::size_t c = 0; c < a.columns.size(); ++c)
        if (a.columns[c].size() != b.columns[c].size()
            || std::memcmp(a.columns[c].data(), b.columns[c].data(),
                           a.columns[c].size() * sizeof(double))
                   != 0)
            return false;
    return true;
}

/// Snapshot indices of the columns a narrowed slice over `layout` keeps:
/// theta, the layout's columns and the caps of those that drift.
std::vector<std::size_t> kept_indices(const QualityLayout& layout) {
    std::vector<std::size_t> kept{0};
    for (const ResourceDim dim : layout) {
        switch (dim) {
            case ResourceDim::data_size: kept.insert(kept.end(), {1, 5}); break;
            case ResourceDim::category_proportion: kept.push_back(2); break;
            case ResourceDim::bandwidth: kept.insert(kept.end(), {3, 7}); break;
            case ResourceDim::cpu: kept.insert(kept.end(), {4, 8}); break;
        }
    }
    return kept;
}

/// Thetas and the layout's columns of both stores equal bit for bit, with
/// the same offset and salt history.
bool same_kept_bits(const PopulationStore& a, const PopulationStore& b,
                    const QualityLayout& layout) {
    const auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
        return x.size() == y.size()
               && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
    };
    if (a.node_offset() != b.node_offset() || a.salt_history() != b.salt_history()
        || !same(a.thetas(), b.thetas()))
        return false;
    for (const ResourceDim dim : layout)
        if (!same(a.column(dim), b.column(dim))) return false;
    return true;
}

/// {whole pages inside `range`, of which resident, of which unmapped}, as
/// this process sees them.
std::array<std::uint64_t, 3> page_census(util::ByteRange range) {
    const util::ByteRange pages = util::whole_pages(range);
    const std::size_t count = static_cast<std::size_t>(static_cast<const char*>(pages.end)
                                                       - static_cast<const char*>(pages.begin))
                              / page_size();
    std::array<std::uint64_t, 3> census{count, 0, 0};
    for (std::size_t p = 0; p < count; ++p) {
        unsigned char resident = 0;
        if (::mincore(const_cast<char*>(static_cast<const char*>(pages.begin)) + p * page_size(),
                      page_size(), &resident)
            == 0)
            census[1] += resident & 1u;
        else if (errno == ENOMEM)
            ++census[2];
        else
            ::_exit(1);
    }
    return census;
}

TEST(ForkExclusion, SliceAndReleaseCopiesLikeSliceThenDropsTheSourceRows) {
    // Run in a child forked under the aggregator's exclusion list, the only
    // place a store may release rows: there they read as zeros afterwards.
    // The store's caps are not positive on scattered rows, where drift
    // takes no draw: the narrowed slices must replay that from their draw
    // bytes when they leave the cap out.
    const Market market;
    PopulationStore store = make_store(market, 20'000, 0x52ULL);
    PopulationSnapshot planted = store.snapshot();
    for (std::size_t i = 0; i < store.size(); i += 7) {
        planted.columns[5 + i % 4][i] = 0.0;  // data, category, bandwidth, cpu cap
        planted.columns[7][(i * 13) % store.size()] = -1.0;
    }
    store.restore(planted);
    store.evolve_with_salt(0x5a17ULL);  // a salt history a slice starts without
    const PopulationSnapshot before = store.snapshot();
    const std::size_t lo = 4'999;
    const std::size_t hi = 15'001;
    const std::uint64_t salts[] = {0x11ULL, 0x2222ULL, 0x333333ULL};

    for (const QualityLayout& layout :
         {QualityLayout{ResourceDim::data_size, ResourceDim::category_proportion},
          QualityLayout{ResourceDim::bandwidth}}) {
        SCOPED_TRACE("layout of " + std::to_string(layout.size()) + " columns, first "
                     + std::to_string(static_cast<int>(layout.front())));
        const std::vector<std::size_t> kept = kept_indices(layout);
        const PopulationStore full = store.slice(lo, hi);
        std::vector<std::uint8_t> draw_bits = store.draw_bits(lo, hi, layout);
        ChildResult child;
        {
            const util::ForkExclusion exclusion(store.bytes_outside(lo, hi, layout));
            child = run_in_child([&](int fd) {
                PopulationStore released =
                    store.slice_and_release(lo, hi, layout, std::move(draw_bits));
                // {kept columns equal full slice's, whole source pages of
                //  kept columns, of which resident, whole pages of left-out
                //  columns, of which mapped}
                std::uint64_t report[5] = {0, 0, 0, 0, 0};
                PopulationStore reference = full;
                bool same = same_kept_bits(released, reference, layout);
                for (const std::uint64_t salt : salts) {
                    released.evolve_with_salt(salt);
                    reference.evolve_with_salt(salt);
                    same = same && same_kept_bits(released, reference, layout);
                }
                report[0] = same ? 1u : 0u;
                const std::vector<util::ByteRange> rows = store.column_bytes(lo, hi);
                const std::vector<util::ByteRange> whole = store.column_bytes(0, store.size());
                for (std::size_t c = 0; c < rows.size(); ++c) {
                    const bool keeps = std::find(kept.begin(), kept.end(), c) != kept.end();
                    const std::array<std::uint64_t, 3> census =
                        page_census(keeps ? rows[c] : whole[c]);
                    report[keeps ? 1 : 3] += census[0];
                    report[keeps ? 2 : 4] += keeps ? census[1] : census[0] - census[2];
                }
                if (!wire::write_all(fd, report, sizeof report)) ::_exit(1);
            });
        }
        ASSERT_TRUE(child.exited_cleanly()) << "status " << child.status;
        std::uint64_t report[5] = {};
        ASSERT_EQ(child.out.size(), sizeof report);
        std::memcpy(report, child.out.data(), sizeof report);
        EXPECT_EQ(report[0], 1u) << "slice_and_release differs from slice";
        EXPECT_GT(report[1], 9u) << "rows [lo, hi) span no whole page";
        EXPECT_EQ(report[2], 0u) << "source pages still resident in the child";
        EXPECT_GT(report[3], 9u) << "the left-out columns span no whole page";
        EXPECT_EQ(report[4], 0u) << "pages of left-out columns mapped in the child";
        EXPECT_TRUE(same_bits(store.snapshot(), before)) << "the parent's store changed";
    }
}

} // namespace
} // namespace fmore::mec
