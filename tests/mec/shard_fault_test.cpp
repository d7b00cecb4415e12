// Failure semantics of the sharded market, both engines:
//  - in-process ShardedAuctionSelector: a deterministic virtual clock
//    (set_virtual_latency / set_fault_injector) drives shard drops — no
//    wall time, so degraded rounds replay bit-identically, and the
//    degradation is surfaced in SelectionRecord::dropped_shards and
//    RoundMetrics::dropped_shards;
//  - multi-process ProcessShardAggregator: un-degraded rounds are
//    bit-identical to the monolithic salted market; a worker that stalls
//    past shard_timeout_s or dies mid-round is evicted, the round
//    completes over the survivors, and — with a respawn budget — the
//    supervisor re-forks and re-syncs the worker so later rounds are
//    bit-identical to a run that never failed. Corrupt frames (flipped
//    bits, self-described-short writes) are caught by the payload CRC,
//    re-requested once, and never consumed. Workers narrowed to layouts
//    other than the simulator's match the monolithic market too, also
//    after a respawn from their narrowed pristine split, and a worker's
//    blacklist spans only its own rows.
// Fault margins are generous on purpose (10 s stalls against 0.25 s
// deadlines) so the tests assert semantics, not scheduler luck.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/fl/coordinator.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/mec/shard_aggregator.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/mec/wire_format.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/util/fault_injector.hpp"
#include "fmore/reference/mlp.hpp"

namespace fmore::mec {
namespace {

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

const Market& market() {
    static const Market m;
    return m;
}

PopulationStore make_store(std::size_t n, std::uint64_t seed) {
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(seed);
    return PopulationStore(n, data, *market().theta, spec, rng);
}

QualityLayout layout() {
    return {ResourceDim::data_size, ResourceDim::category_proportion};
}

/// Global node range [lo, hi) of shard `s` under an even split of n.
std::pair<std::size_t, std::size_t> shard_range(std::size_t n, std::size_t shards,
                                                std::size_t s) {
    std::vector<std::size_t> cuts = PopulationStore::even_boundaries(n, shards);
    cuts.insert(cuts.begin(), 0);
    return {cuts[s], s + 1 < shards ? cuts[s + 1] : n};
}

bool any_winner_in(const std::vector<auction::Winner>& winners, std::size_t lo,
                   std::size_t hi) {
    return std::any_of(winners.begin(), winners.end(), [&](const auction::Winner& w) {
        return w.node >= lo && w.node < hi;
    });
}

// ---------------------------------------------------------------------------
// In-process: deterministic virtual-clock degradation
// ---------------------------------------------------------------------------

/// `shards` even shards over `population`, which must outlive the selector.
ShardedAuctionSelector make_sharded(MecPopulation& population, std::size_t shards) {
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 8;
    return ShardedAuctionSelector(population, *market().scoring, *market().strategy, wd,
                                  layout(), /*data_dimension=*/0, shards);
}

TEST(ShardFault, VirtualLatencyDropsShardsDeterministically) {
    const std::size_t n = 60;
    const std::size_t shards = 4;
    // Shard 2 misses the 1-second deadline from round 2 on; everyone else
    // answers instantly. Two independent selectors must replay the
    // degraded rounds bit-identically — the clock is virtual.
    auto latency = [](std::size_t shard, std::size_t round) {
        return shard == 2 && round >= 2 ? 5.0 : 0.01;
    };
    auto run = [&](std::vector<std::vector<auction::Winner>>& winners_out) {
        MecPopulation population(make_store(n, 5));
        ShardedAuctionSelector sharded = make_sharded(population, shards);
        sharded.set_shard_timeout(1.0);
        sharded.set_virtual_latency(latency);
        stats::Rng rng(77);
        for (std::size_t round = 1; round <= 3; ++round) {
            const auction::AuctionOutcome& o = sharded.run_auction_round(round, 8, rng);
            winners_out.push_back(o.winners);
            if (round == 1) {
                EXPECT_TRUE(sharded.last_dropped_shards().empty());
            } else {
                EXPECT_EQ(sharded.last_dropped_shards(),
                          (std::vector<std::size_t>{2}));
            }
            // The round still fills its K slots — from responsive shards.
            EXPECT_EQ(o.winners.size(), 8u);
            const auto [lo, hi] = shard_range(n, shards, 2);
            if (round >= 2) {
                EXPECT_FALSE(any_winner_in(o.winners, lo, hi))
                    << "a dropped shard contributed a winner in round " << round;
            }
        }
    };
    std::vector<std::vector<auction::Winner>> first, second;
    run(first);
    run(second);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t r = 0; r < first.size(); ++r) {
        ASSERT_EQ(first[r].size(), second[r].size()) << "round " << r + 1;
        for (std::size_t w = 0; w < first[r].size(); ++w) {
            EXPECT_EQ(first[r][w].node, second[r][w].node);
            EXPECT_EQ(first[r][w].payment, second[r][w].payment);
            EXPECT_EQ(first[r][w].score, second[r][w].score);
        }
    }
}

TEST(ShardFault, DroppedShardsSurfaceInSelectionRecord) {
    MecPopulation population(make_store(40, 9));
    ShardedAuctionSelector sharded = make_sharded(population, 4);
    sharded.set_shard_timeout(0.5);
    sharded.set_virtual_latency(
        [](std::size_t shard, std::size_t) { return shard == 1 ? 2.0 : 0.0; });
    stats::Rng rng(3);
    const fl::SelectionRecord record = sharded.select(1, 6, rng);
    EXPECT_EQ(record.dropped_shards, (std::vector<std::size_t>{1}));
    EXPECT_EQ(record.selected.size(), 6u);
}

TEST(ShardFault, ZeroTimeoutDisablesDropping) {
    MecPopulation population(make_store(40, 9));
    ShardedAuctionSelector sharded = make_sharded(population, 4);
    sharded.set_virtual_latency([](std::size_t, std::size_t) { return 1e9; });
    // No timeout installed: even absurd latencies drop nothing.
    stats::Rng rng(4);
    (void)sharded.run_auction_round(1, 6, rng);
    EXPECT_TRUE(sharded.last_dropped_shards().empty());
    EXPECT_THROW(sharded.set_shard_timeout(-1.0), std::invalid_argument);
}

TEST(ShardFault, DegradationSurfacesInRoundMetrics) {
    // End to end through a real federated run: the coordinator must carry
    // the per-round drop count into RoundMetrics.
    stats::Rng rng(1);
    ml::ImageDatasetSpec image_spec;
    image_spec.samples = 700;
    const ml::Dataset data = ml::make_synthetic_images(image_spec, rng);
    stats::Rng prng(2);
    std::vector<ml::ClientShard> shards = ml::partition_non_iid_variable(data, 12, 1, 4, prng);
    ml::resize_shards(shards, data, 10, 40, prng);

    std::vector<stats::MinMaxNormalizer> norms{{0.0, 40.0}, {0.0, 1.0}};
    auction::ScaledProductScoring scoring(25.0, 2, norms);
    auction::AdditiveCost cost(std::vector<double>{6.0 / 40.0, 2.0});
    stats::UniformDistribution theta(0.5, 1.5);
    auction::EquilibriumConfig eq;
    eq.num_bidders = 12;
    eq.num_winners = 4;
    const auction::EquilibriumStrategy strategy =
        auction::EquilibriumSolver(scoring, cost, theta, {1.0, 0.05}, {40.0, 1.0}, eq)
            .solve();

    PopulationSpec pop_spec;
    stats::Rng pop_rng(3);
    MecPopulation population(shards, 10, theta, pop_spec, pop_rng);
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = 4;
    ShardedAuctionSelector selector(population, scoring, strategy, wd, layout(),
                                    /*data_dimension=*/0, /*num_shards=*/3);
    selector.set_shard_timeout(0.5);
    selector.set_virtual_latency(
        [](std::size_t shard, std::size_t round) { return shard == 0 && round >= 2 ? 9.0 : 0.0; });

    ml::Model model = reference::make_mlp(ml::ImageSpec{1, 12, 12, 10}, 3);
    fl::CoordinatorConfig cc;
    cc.rounds = 3;
    cc.winners_per_round = 4;
    cc.local_epochs = 1;
    cc.batch_size = 16;
    cc.learning_rate = 0.08;
    fl::Coordinator coordinator(model, data, data, shards, cc);
    stats::Rng run_rng(11);
    const fl::RunResult result = coordinator.run(selector, run_rng);
    ASSERT_EQ(result.rounds.size(), 3u);
    EXPECT_EQ(result.rounds[0].dropped_shards, 0u);
    EXPECT_EQ(result.rounds[1].dropped_shards, 1u);
    EXPECT_EQ(result.rounds[2].dropped_shards, 1u);
    EXPECT_EQ(result.rounds[1].selection.dropped_shards,
              (std::vector<std::size_t>{0}));
}

// ---------------------------------------------------------------------------
// In-process: fault-injector-driven rejoin, every registered mechanism
// ---------------------------------------------------------------------------

TEST(ShardFault, EveryMechanismRejoinsBitIdenticalInProcess) {
    // Crash shard 1 in round 2 only. The virtual clock drops it for that
    // round; from round 3 it answers again, and because shards evolve by
    // (salt, global id) streams whether or not they made the deadline, the
    // rounds after the fault must be bit-identical to a run that never
    // failed — for EVERY registered mechanism (psi pinned to 1 so the
    // degraded round consumes the same generator draws as the clean one).
    const std::size_t n = 60;
    const std::size_t k = 6;
    const util::FaultInjector plan = util::FaultInjector::from_events(
        {{/*shard=*/1, /*round=*/2, util::FaultKind::crash_before_reply, 0.0}});
    for (const std::string& name : auction::MechanismRegistry::instance().names()) {
        SCOPED_TRACE(name);
        auction::WinnerDeterminationConfig wd;
        wd.mechanism = name;
        wd.num_winners = k;
        wd.tie_break = auction::TieBreak::salted;
        wd.full_ranking = false;
        if (name == "budget_feasible") wd.budget = 500.0;
        auto run = [&](bool faulty) {
            MecPopulation population(make_store(n, 31));
            ShardedAuctionSelector sharded(population, *market().scoring,
                                           *market().strategy, wd, layout(),
                                           /*data_dimension=*/0, /*num_shards=*/4);
            if (faulty) {
                sharded.set_shard_timeout(1.0);
                sharded.set_fault_injector(plan);
            }
            std::vector<std::vector<auction::Winner>> winners;
            stats::Rng rng(31);
            for (std::size_t round = 1; round <= 4; ++round) {
                winners.push_back(sharded.run_auction_round(round, k, rng).winners);
                if (faulty && round == 2) {
                    EXPECT_EQ(sharded.last_dropped_shards(),
                              (std::vector<std::size_t>{1}));
                } else {
                    EXPECT_TRUE(sharded.last_dropped_shards().empty())
                        << "round " << round;
                }
            }
            return winners;
        };
        const auto clean = run(false);
        const auto faulty = run(true);
        const auto [lo, hi] = shard_range(n, 4, 1);
        for (std::size_t r = 0; r < 4; ++r) {
            SCOPED_TRACE("round " + std::to_string(r + 1));
            if (r == 1) {
                // The degraded round fills K from the live shards only.
                EXPECT_FALSE(any_winner_in(faulty[r], lo, hi));
                continue;
            }
            ASSERT_EQ(clean[r].size(), faulty[r].size());
            for (std::size_t w = 0; w < clean[r].size(); ++w) {
                EXPECT_EQ(clean[r][w].node, faulty[r][w].node);
                EXPECT_EQ(clean[r][w].payment, faulty[r][w].payment);
                EXPECT_EQ(clean[r][w].score, faulty[r][w].score);
            }
        }
    }
}

TEST(ShardFault, InProcessQuorumFailsFast) {
    MecPopulation population(make_store(40, 9));
    ShardedAuctionSelector sharded = make_sharded(population, 4);
    sharded.set_shard_timeout(0.5);
    sharded.set_fault_injector(util::FaultInjector::from_events(
        {{0, 2, util::FaultKind::stall, 9.0}, {1, 2, util::FaultKind::stall, 9.0},
         {2, 2, util::FaultKind::stall, 9.0}}));
    sharded.set_min_live_shards(2);
    stats::Rng rng(12);
    (void)sharded.run_auction_round(1, 6, rng);  // all four answer
    EXPECT_THROW((void)sharded.run_auction_round(2, 6, rng), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Multi-process: the pipe-protocol aggregator
// ---------------------------------------------------------------------------

auction::WinnerDeterminationConfig wire_config(std::size_t k) {
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = k;
    wd.tie_break = auction::TieBreak::salted;
    wd.full_ranking = false;
    return wd;
}

ShardSupervisorConfig faults_only(std::vector<util::FaultEvent> events) {
    ShardSupervisorConfig sup;
    sup.faults = util::FaultInjector::from_events(std::move(events));
    return sup;
}

void expect_outcomes_equal(const auction::AuctionOutcome& a,
                           const auction::AuctionOutcome& b) {
    ASSERT_EQ(a.winners.size(), b.winners.size());
    for (std::size_t w = 0; w < a.winners.size(); ++w) {
        EXPECT_EQ(a.winners[w].node, b.winners[w].node);
        EXPECT_EQ(a.winners[w].score, b.winners[w].score);
        EXPECT_EQ(a.winners[w].payment, b.winners[w].payment);
    }
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t r = 0; r < a.ranking.size(); ++r) {
        EXPECT_EQ(a.ranking[r].bid.node, b.ranking[r].bid.node);
        EXPECT_EQ(a.ranking[r].score, b.ranking[r].score);
        EXPECT_EQ(a.ranking[r].bid.payment, b.ranking[r].bid.payment);
    }
}

TEST(ShardFault, WorkerFdTableIsBoundedAndUniform) {
    // Fork/pipe hygiene regression: each worker must hold exactly its OWN
    // two pipe ends beyond stdio — no sibling pipe ends (the worker-side
    // closes) and nothing else leaked from the coordinator. Without the
    // hygiene, worker i would show 2 + 2*i pipes and the fd table would
    // grow with the shard count.
    const Market& m = market();
    ProcessShardAggregator aggregator(make_store(60, 0x77ULL), *m.scoring,
                                      *m.strategy, wire_config(6), layout(),
                                      /*num_shards=*/4,
                                      /*shard_timeout_s=*/30.0);
    // One full round before scanning: a worker that replied has certainly
    // finished its post-fork close() pass, so the /proc walk below cannot
    // race the worker's own setup.
    stats::Rng rng(0x77ULL);
    (void)aggregator.run_round(1, 6, rng);

    namespace fs = std::filesystem;
    std::vector<std::size_t> pipe_counts;
    std::vector<std::string> inherited; // non-pipe fds beyond stdio
    for (std::size_t s = 0; s < aggregator.num_shards(); ++s) {
        const int pid = aggregator.worker_pid(s);
        ASSERT_GT(pid, 0) << "worker " << s;
        std::size_t pipes = 0;
        std::string others;
        const fs::path fd_dir = "/proc/" + std::to_string(pid) + "/fd";
        for (const fs::directory_entry& entry : fs::directory_iterator(fd_dir)) {
            const int fd = std::stoi(entry.path().filename().string());
            if (fd <= 2) continue; // stdio, whatever the harness made it
            std::error_code ec;
            const std::string target = fs::read_symlink(entry.path(), ec).string();
            if (ec) continue;
            if (target.rfind("pipe:", 0) == 0) ++pipes;
            else others += " " + std::to_string(fd) + "->" + target;
        }
        pipe_counts.push_back(pipes);
        inherited.push_back(others);
    }
    for (std::size_t s = 0; s < pipe_counts.size(); ++s) {
        SCOPED_TRACE("worker " + std::to_string(s));
        // Exactly its OWN two pipe ends; without the sibling-close hygiene
        // worker s would hold 2 + 2*s pipe fds.
        EXPECT_EQ(pipe_counts[s], 2u) << "sibling pipe ends leaked";
        // Whatever the harness leaves open (ctest log fds etc.) is fork-
        // uniform; anything beyond worker 0's set leaked from the market.
        EXPECT_EQ(inherited[s], inherited[0]) << "descriptors leaked";
    }
}

TEST(ShardFault, ProcessAggregatorMatchesMonolithicSaltedMarket) {
    const Market& m = market();
    const std::size_t n = 80;
    const std::size_t k = 8;
    const std::uint64_t seed = 0x9a9aULL;
    const auction::WinnerDeterminationConfig wd = wire_config(k);

    MecPopulation population(make_store(n, seed));
    AuctionSelector mono(population, *m.scoring, *m.strategy, wd,
                         data_category_extractor(), /*data_dimension=*/0);
    ProcessShardAggregator aggregator(make_store(n, seed), *m.scoring, *m.strategy, wd,
                                      layout(), /*num_shards=*/4,
                                      /*shard_timeout_s=*/30.0);
    ASSERT_EQ(aggregator.num_shards(), 4u);
    ASSERT_EQ(aggregator.population_size(), n);

    stats::Rng mono_rng(seed);
    stats::Rng agg_rng(seed);
    for (std::size_t round = 1; round <= 4; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auction::AuctionOutcome& a = mono.run_auction_round(round, k, mono_rng);
        const auction::AuctionOutcome& b = aggregator.run_round(round, k, agg_rng);
        EXPECT_TRUE(aggregator.last_dropped_shards().empty());
        ASSERT_EQ(a.winners.size(), b.winners.size());
        for (std::size_t w = 0; w < a.winners.size(); ++w) {
            EXPECT_EQ(a.winners[w].node, b.winners[w].node);
            EXPECT_EQ(a.winners[w].score, b.winners[w].score);
            EXPECT_EQ(a.winners[w].payment, b.winners[w].payment);
        }
        ASSERT_EQ(a.ranking.size(), b.ranking.size());
        for (std::size_t r = 0; r < a.ranking.size(); ++r) {
            EXPECT_EQ(a.ranking[r].bid.node, b.ranking[r].bid.node);
            EXPECT_EQ(a.ranking[r].score, b.ranking[r].score);
            EXPECT_EQ(a.ranking[r].bid.payment, b.ranking[r].bid.payment);
        }
    }
    EXPECT_EQ(aggregator.dead_shards(), 0u);
}

TEST(ShardFault, StalledWorkerIsEvictedAndRoundCompletes) {
    const std::size_t n = 60;
    const std::size_t shards = 3;
    // Shard 1 stalls 10 s in round 2 against a 0.25 s deadline. No respawn
    // budget: eviction is permanent (the legacy mode).
    ProcessShardAggregator aggregator(
        make_store(n, 21), *market().scoring, *market().strategy, wire_config(6),
        layout(), shards, /*shard_timeout_s=*/0.25,
        faults_only({{/*shard=*/1, /*round=*/2, util::FaultKind::stall, 10.0}}));
    stats::Rng rng(21);
    const auto [lo, hi] = shard_range(n, shards, 1);

    (void)aggregator.run_round(1, 6, rng);
    EXPECT_TRUE(aggregator.last_dropped_shards().empty());

    const auction::AuctionOutcome& degraded = aggregator.run_round(2, 6, rng);
    EXPECT_EQ(aggregator.last_dropped_shards(), (std::vector<std::size_t>{1}));
    EXPECT_EQ(aggregator.dead_shards(), 1u);
    EXPECT_EQ(aggregator.last_health().evictions, 1u);
    EXPECT_EQ(aggregator.last_health().live_shards, 2u);
    EXPECT_EQ(degraded.winners.size(), 6u);
    EXPECT_FALSE(any_winner_in(degraded.winners, lo, hi));

    // Eviction is permanent: the shard stays out, the market keeps going.
    const auction::AuctionOutcome& later = aggregator.run_round(3, 6, rng);
    EXPECT_EQ(aggregator.dead_shards(), 1u);
    EXPECT_EQ(aggregator.last_health().evictions, 0u);
    EXPECT_EQ(aggregator.lifetime_health().evictions, 1u);
    EXPECT_EQ(later.winners.size(), 6u);
    EXPECT_FALSE(any_winner_in(later.winners, lo, hi));
}

TEST(ShardFault, LateShardIsEvictedWhateverWasReadBeforeIt) {
    // A round has one deadline, set when its requests ship. In round 2
    // shard 0 stalls 10 s and shard 1 answers after 1.5 s, against a 1 s
    // deadline: both miss it, and the round ends near 1 s, in a batch
    // round, a streaming round and the in-process virtual clock alike. A
    // deadline restarted for shard 1 once shard 0 had used it up would
    // keep shard 1 and stretch the round to 1.5 s.
    const std::size_t n = 60;
    const std::size_t shards = 3;
    const std::vector<util::FaultEvent> plan = {
        {/*shard=*/0, /*round=*/2, util::FaultKind::stall, 10.0},
        {/*shard=*/1, /*round=*/2, util::FaultKind::delayed_reply, 1.5}};
    const std::vector<std::size_t> late = {0, 1};
    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "run_streaming_round" : "run_round");
        ProcessShardAggregator aggregator(make_store(n, 26), *market().scoring,
                                          *market().strategy, wire_config(6), layout(),
                                          shards, /*shard_timeout_s=*/1.0,
                                          faults_only(plan));
        const ProcessShardAggregator::StreamRoundPolicy policy;
        stats::Rng rng(26);
        const auto round = [&](std::size_t r) -> const auction::AuctionOutcome& {
            return streaming ? aggregator.run_streaming_round(r, 6, policy, rng)
                             : aggregator.run_round(r, 6, rng);
        };
        (void)round(1);
        EXPECT_TRUE(aggregator.last_dropped_shards().empty());
        const auto start = std::chrono::steady_clock::now();
        const auction::AuctionOutcome& degraded = round(2);
        const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
        EXPECT_EQ(aggregator.last_dropped_shards(), late);
        EXPECT_EQ(aggregator.last_health().evictions, 2u);
        EXPECT_LT(took.count(), 1.4);
        const auto [lo, hi] = shard_range(n, shards, 2);
        for (const auction::Winner& w : degraded.winners) {
            EXPECT_GE(w.node, lo);
            EXPECT_LT(w.node, hi);
        }
    }
    MecPopulation population(make_store(n, 26));
    ShardedAuctionSelector sharded = make_sharded(population, shards);
    sharded.set_shard_timeout(1.0);
    sharded.set_fault_injector(util::FaultInjector::from_events(plan));
    stats::Rng rng(26);
    (void)sharded.run_auction_round(1, 6, rng);
    EXPECT_TRUE(sharded.last_dropped_shards().empty());
    (void)sharded.run_auction_round(2, 6, rng);
    EXPECT_EQ(sharded.last_dropped_shards(), late);
}

TEST(ShardFault, DyingWorkerIsEvictedAndRoundCompletes) {
    const std::size_t n = 60;
    const std::size_t shards = 3;
    ProcessShardAggregator aggregator(
        make_store(n, 22), *market().scoring, *market().strategy, wire_config(6),
        layout(), shards, /*shard_timeout_s=*/5.0,
        faults_only({{/*shard=*/2, /*round=*/2,
                      util::FaultKind::crash_before_reply, 0.0}}));
    stats::Rng rng(22);
    (void)aggregator.run_round(1, 6, rng);
    EXPECT_TRUE(aggregator.last_dropped_shards().empty());
    const auction::AuctionOutcome& degraded = aggregator.run_round(2, 6, rng);
    EXPECT_EQ(aggregator.last_dropped_shards(), (std::vector<std::size_t>{2}));
    EXPECT_EQ(aggregator.dead_shards(), 1u);
    EXPECT_EQ(degraded.winners.size(), 6u);
    const auto [lo, hi] = shard_range(n, shards, 2);
    EXPECT_FALSE(any_winner_in(degraded.winners, lo, hi));
}

TEST(ShardFault, DelayedReplyWithinDeadlineIsAbsorbed) {
    // A 50 ms delayed reply against a 10 s deadline degrades nothing and
    // changes no outcome: compare against an un-faulted twin.
    const std::size_t n = 40;
    ProcessShardAggregator clean(make_store(n, 25), *market().scoring,
                                 *market().strategy, wire_config(5), layout(),
                                 /*num_shards=*/2, /*shard_timeout_s=*/10.0);
    ProcessShardAggregator slow(
        make_store(n, 25), *market().scoring, *market().strategy, wire_config(5),
        layout(), /*num_shards=*/2, /*shard_timeout_s=*/10.0,
        faults_only({{/*shard=*/0, /*round=*/1,
                      util::FaultKind::delayed_reply, 0.05}}));
    stats::Rng rng_clean(25);
    stats::Rng rng_slow(25);
    for (std::size_t round = 1; round <= 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auction::AuctionOutcome& a = clean.run_round(round, 5, rng_clean);
        const auction::AuctionOutcome& b = slow.run_round(round, 5, rng_slow);
        EXPECT_TRUE(slow.last_dropped_shards().empty());
        EXPECT_EQ(slow.last_health().evictions, 0u);
        expect_outcomes_equal(a, b);
    }
}

TEST(ShardFault, CrashedWorkerRespawnsBitIdenticalEveryMechanism) {
    // THE tentpole acceptance: kill a worker mid-run, let the supervisor
    // re-fork and re-sync it, and every subsequent round must be
    // bit-identical to a run that never failed — for every registered
    // mechanism the wire supports (the exact score-auction engine under
    // its four registered names; psi pinned to 1 per the wire contract).
    const std::size_t n = 80;
    const std::size_t k = 8;
    const std::size_t shards = 4;
    for (const std::string& name :
         {std::string("first_score"), std::string("second_score"),
          std::string("psi_fmore"), std::string("budget_feasible")}) {
        SCOPED_TRACE(name);
        auction::WinnerDeterminationConfig wd = wire_config(k);
        wd.mechanism = name;
        if (name == "budget_feasible") wd.budget = 500.0;
        ShardSupervisorConfig sup;
        sup.faults = util::FaultInjector::from_events(
            {{/*shard=*/1, /*round=*/2, util::FaultKind::crash_before_reply, 0.0}});
        sup.max_respawns = 2;
        ProcessShardAggregator clean(make_store(n, 33), *market().scoring,
                                     *market().strategy, wd, layout(), shards,
                                     /*shard_timeout_s=*/30.0);
        ProcessShardAggregator faulty(make_store(n, 33), *market().scoring,
                                      *market().strategy, wd, layout(), shards,
                                      /*shard_timeout_s=*/30.0, sup);
        stats::Rng rng_clean(33);
        stats::Rng rng_faulty(33);
        const auto [lo, hi] = shard_range(n, shards, 1);
        for (std::size_t round = 1; round <= 5; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const auction::AuctionOutcome& a = clean.run_round(round, k, rng_clean);
            const auction::AuctionOutcome& b = faulty.run_round(round, k, rng_faulty);
            if (round == 2) {
                // The crash round degrades to the live shards.
                EXPECT_EQ(faulty.last_dropped_shards(),
                          (std::vector<std::size_t>{1}));
                EXPECT_EQ(faulty.last_health().evictions, 1u);
                EXPECT_FALSE(any_winner_in(b.winners, lo, hi));
                continue;
            }
            EXPECT_TRUE(faulty.last_dropped_shards().empty());
            if (round == 3) {
                EXPECT_EQ(faulty.last_health().respawns, 1u);
                EXPECT_EQ(faulty.live_shards(), shards);
            }
            expect_outcomes_equal(a, b);
        }
        EXPECT_EQ(faulty.lifetime_health().evictions, 1u);
        EXPECT_EQ(faulty.lifetime_health().respawns, 1u);
    }
}

TEST(ShardFault, CorruptFrameIsRetriedOnceNeverConsumed) {
    // A bit-flipped head frame fails the payload CRC; the aggregator must
    // re-request it ONCE and consume only the clean resend — every round
    // identical to an un-faulted twin, zero evictions.
    const std::size_t n = 60;
    ProcessShardAggregator clean(make_store(n, 41), *market().scoring,
                                 *market().strategy, wire_config(6), layout(),
                                 /*num_shards=*/3, /*shard_timeout_s=*/30.0);
    ProcessShardAggregator corrupt(
        make_store(n, 41), *market().scoring, *market().strategy, wire_config(6),
        layout(), /*num_shards=*/3, /*shard_timeout_s=*/30.0,
        faults_only({{/*shard=*/0, /*round=*/2, util::FaultKind::bit_flip, 0.0}}));
    stats::Rng rng_clean(41);
    stats::Rng rng_corrupt(41);
    for (std::size_t round = 1; round <= 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auction::AuctionOutcome& a = clean.run_round(round, 6, rng_clean);
        const auction::AuctionOutcome& b = corrupt.run_round(round, 6, rng_corrupt);
        EXPECT_TRUE(corrupt.last_dropped_shards().empty());
        EXPECT_EQ(corrupt.last_health().corrupt_frames, round == 2 ? 1u : 0u);
        EXPECT_EQ(corrupt.last_health().frame_retries, round == 2 ? 1u : 0u);
        EXPECT_EQ(corrupt.last_health().evictions, 0u);
        expect_outcomes_equal(a, b);
    }
    EXPECT_EQ(corrupt.lifetime_health().corrupt_frames, 1u);
    EXPECT_EQ(corrupt.lifetime_health().frame_retries, 1u);
    EXPECT_EQ(corrupt.dead_shards(), 0u);
}

TEST(ShardFault, TruncatedFrameIsRetriedOnceNeverConsumed) {
    // A self-described-short frame (claims and carries half the bytes
    // under the full payload's CRC) is the torn-write model: still framed,
    // caught by the CRC, recovered by one resend.
    const std::size_t n = 60;
    ProcessShardAggregator clean(make_store(n, 42), *market().scoring,
                                 *market().strategy, wire_config(6), layout(),
                                 /*num_shards=*/3, /*shard_timeout_s=*/30.0);
    ProcessShardAggregator torn(
        make_store(n, 42), *market().scoring, *market().strategy, wire_config(6),
        layout(), /*num_shards=*/3, /*shard_timeout_s=*/30.0,
        faults_only(
            {{/*shard=*/2, /*round=*/1, util::FaultKind::truncated_write, 0.0}}));
    stats::Rng rng_clean(42);
    stats::Rng rng_torn(42);
    for (std::size_t round = 1; round <= 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auction::AuctionOutcome& a = clean.run_round(round, 6, rng_clean);
        const auction::AuctionOutcome& b = torn.run_round(round, 6, rng_torn);
        EXPECT_TRUE(torn.last_dropped_shards().empty());
        EXPECT_EQ(torn.last_health().corrupt_frames, round == 1 ? 1u : 0u);
        EXPECT_EQ(torn.last_health().frame_retries, round == 1 ? 1u : 0u);
        expect_outcomes_equal(a, b);
    }
    EXPECT_EQ(torn.dead_shards(), 0u);
}

TEST(ShardFault, QuorumFailsFastWithActionableError) {
    const std::size_t n = 60;
    ShardSupervisorConfig sup = faults_only(
        {{0, 2, util::FaultKind::crash_before_reply, 0.0},
         {1, 2, util::FaultKind::crash_before_reply, 0.0}});
    sup.min_live_shards = 2;
    ProcessShardAggregator aggregator(make_store(n, 43), *market().scoring,
                                      *market().strategy, wire_config(6), layout(),
                                      /*num_shards=*/3, /*shard_timeout_s=*/5.0, sup);
    stats::Rng rng(43);
    (void)aggregator.run_round(1, 6, rng);
    try {
        (void)aggregator.run_round(2, 6, rng);
        FAIL() << "expected the quorum check to throw";
    } catch (const std::runtime_error& error) {
        // The message must name the values that reach this market: no spec
        // builds it, so the spec keys would send the operator nowhere.
        const std::string what = error.what();
        for (const char* knob : {"ShardSupervisorConfig::min_live_shards",
                                 "ShardSupervisorConfig::max_respawns", "shard_timeout_s"})
            EXPECT_NE(what.find(knob), std::string::npos) << knob << " in: " << what;
        for (const char* key : {"auction.shard_quorum", "auction.shard_timeout_s"})
            EXPECT_EQ(what.find(key), std::string::npos) << key << " in: " << what;
    }
}

TEST(ShardFault, RespawnBudgetExhaustionRetiresWorker) {
    // Shard 0 crashes in rounds 2 and 3. With a budget of one respawn it
    // is re-forked for round 3, crashes again, and is retired: round 4
    // runs degraded with no further respawn attempts.
    const std::size_t n = 60;
    ShardSupervisorConfig sup = faults_only(
        {{0, 2, util::FaultKind::crash_before_reply, 0.0},
         {0, 3, util::FaultKind::crash_before_reply, 0.0}});
    sup.max_respawns = 1;
    ProcessShardAggregator aggregator(make_store(n, 44), *market().scoring,
                                      *market().strategy, wire_config(6), layout(),
                                      /*num_shards=*/3, /*shard_timeout_s=*/5.0, sup);
    stats::Rng rng(44);
    (void)aggregator.run_round(1, 6, rng);
    EXPECT_EQ(aggregator.live_shards(), 3u);

    (void)aggregator.run_round(2, 6, rng);
    EXPECT_EQ(aggregator.last_dropped_shards(), (std::vector<std::size_t>{0}));
    EXPECT_EQ(aggregator.last_health().evictions, 1u);

    (void)aggregator.run_round(3, 6, rng);
    EXPECT_EQ(aggregator.last_health().respawns, 1u);
    EXPECT_EQ(aggregator.last_health().evictions, 1u);
    EXPECT_EQ(aggregator.last_dropped_shards(), (std::vector<std::size_t>{0}));

    (void)aggregator.run_round(4, 6, rng);
    EXPECT_EQ(aggregator.last_health().respawns, 0u);  // budget spent: retired
    EXPECT_EQ(aggregator.last_dropped_shards(), (std::vector<std::size_t>{0}));
    EXPECT_EQ(aggregator.live_shards(), 2u);
    EXPECT_EQ(aggregator.lifetime_health().evictions, 2u);
    EXPECT_EQ(aggregator.lifetime_health().respawns, 1u);
}

/// A market priced over `layout`'s columns: per column a normalizer, a
/// cost weight and a quality range scaled to the column's spread.
struct LayoutMarket {
    std::vector<stats::MinMaxNormalizer> norms;
    std::unique_ptr<auction::ScaledProductScoring> scoring;
    std::unique_ptr<auction::AdditiveCost> cost;
    std::unique_ptr<auction::EquilibriumStrategy> strategy;

    explicit LayoutMarket(const QualityLayout& layout) {
        std::vector<double> betas;
        auction::QualityVector q_lo;
        auction::QualityVector q_hi;
        for (const ResourceDim dim : layout) {
            double hi = 1.0;
            switch (dim) {
                case ResourceDim::data_size: hi = kDataHi; break;
                case ResourceDim::category_proportion: hi = 1.0; break;
                case ResourceDim::bandwidth: hi = 1000.0; break;
                case ResourceDim::cpu: hi = 8.0; break;
            }
            norms.emplace_back(0.0, hi);
            betas.push_back(4.0 / hi);
            q_lo.push_back(0.05 * hi);
            q_hi.push_back(hi);
        }
        scoring = std::make_unique<auction::ScaledProductScoring>(25.0, layout.size(), norms);
        cost = std::make_unique<auction::AdditiveCost>(betas);
        auction::EquilibriumConfig eq;
        eq.num_bidders = 100;
        eq.num_winners = 8;
        strategy = std::make_unique<auction::EquilibriumStrategy>(
            auction::EquilibriumSolver(*scoring, *cost, *market().theta, q_lo, q_hi, eq)
                .solve());
    }
};

/// `make_store(n, seed)` with the bandwidth, cpu and data caps zero or
/// negative on scattered rows, where drift takes no draw for them.
PopulationStore make_zero_cap_store(std::size_t n, std::uint64_t seed) {
    PopulationStore store = make_store(n, seed);
    PopulationSnapshot planted = store.snapshot();
    for (std::size_t i = 0; i < n; ++i) {
        const double dead = i % 2 == 0 ? 0.0 : -1.0;
        if (i % 3 == 1) planted.columns[7][i] = dead;  // bandwidth cap
        if (i % 5 == 2) planted.columns[8][i] = dead;  // cpu cap
        if (i % 7 == 3) planted.columns[5][i] = dead;  // data cap
    }
    store.restore(planted);
    return store;
}

TEST(ShardFault, NarrowedWorkersMatchMonolithicOnOtherLayouts) {
    // Each worker keeps only its layout's columns, their drifting caps and
    // draw bytes for the caps it leaves out. Over a store with dead caps on
    // scattered rows, a clean aggregator and one whose shard 1 crashes in
    // round 3 and is respawned from its narrowed pristine split play the
    // monolithic salted market bit for bit (the crash round aside).
    const std::size_t n = 240;
    const std::size_t k = 12;
    const std::size_t shards = 4;
    const std::uint64_t seed = 0x7e57ULL;
    for (const QualityLayout& layout :
         {cpu_bandwidth_data_extractor(), QualityLayout{ResourceDim::bandwidth}}) {
        SCOPED_TRACE("layout of " + std::to_string(layout.size()) + " columns");
        const LayoutMarket lm(layout);
        const auction::WinnerDeterminationConfig wd = wire_config(k);
        MecPopulation population(make_zero_cap_store(n, seed));
        AuctionSelector mono(population, *lm.scoring, *lm.strategy, wd, layout,
                             /*data_dimension=*/0);
        const PopulationStore store = make_zero_cap_store(n, seed);
        ProcessShardAggregator clean(store, *lm.scoring, *lm.strategy, wd, layout, shards,
                                     /*shard_timeout_s=*/30.0);
        ShardSupervisorConfig sup =
            faults_only({{/*shard=*/1, /*round=*/3, util::FaultKind::crash_before_reply, 0.0}});
        sup.max_respawns = 1;
        ProcessShardAggregator faulty(store, *lm.scoring, *lm.strategy, wd, layout, shards,
                                      /*shard_timeout_s=*/30.0, sup);
        stats::Rng mono_rng(seed);
        stats::Rng clean_rng(seed);
        stats::Rng faulty_rng(seed);
        for (std::size_t round = 1; round <= 8; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const auction::AuctionOutcome& a = mono.run_auction_round(round, k, mono_rng);
            const auction::AuctionOutcome& b = clean.run_round(round, k, clean_rng);
            const auction::AuctionOutcome& c = faulty.run_round(round, k, faulty_rng);
            EXPECT_TRUE(clean.last_dropped_shards().empty());
            expect_outcomes_equal(a, b);
            if (round == 3) {
                EXPECT_EQ(faulty.last_dropped_shards(), (std::vector<std::size_t>{1}));
                continue;
            }
            EXPECT_TRUE(faulty.last_dropped_shards().empty());
            expect_outcomes_equal(a, c);
        }
        EXPECT_EQ(faulty.lifetime_health().evictions, 1u);
        EXPECT_EQ(faulty.lifetime_health().respawns, 1u);
    }
}

/// Private_Dirty of process `pid` in MiB, -1 when it cannot be read.
double private_dirty_mib(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/smaps_rollup");
    const std::string field = "Private_Dirty:";
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, field.size(), field) == 0)
            return static_cast<double>(std::atol(line.c_str() + field.size())) / 1024.0;
    return -1.0;
}

TEST(ShardFault, WorkerBlacklistSpansOnlyItsOwnRows) {
    // Every worker hears every ban. One that sized its blacklist by the
    // ids of other shards' rows would write a 4-byte stamp for every id
    // below the largest: a ban of the last node adds 0.76 MiB of private
    // memory to each worker at this size. One that keeps only its own rows'
    // ids adds at most a quarter of that (the last shard's, for the last
    // node), so the bound is half.
    const std::size_t n = 200'000;
    const std::size_t shards = 4;
    ProcessShardAggregator aggregator(make_store(n, 27), *market().scoring,
                                      *market().strategy, wire_config(5), layout(), shards,
                                      /*shard_timeout_s=*/30.0);
    stats::Rng rng(27);
    (void)aggregator.run_round(1, 5, rng);
    std::vector<double> before(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        before[s] = private_dirty_mib(aggregator.worker_pid(s));
        ASSERT_GE(before[s], 0.0) << "no smaps_rollup for worker " << s;
    }
    const auction::NodeId first = 0;
    const auction::NodeId last = n - 1;
    aggregator.ban(last);
    aggregator.ban(first);
    for (std::size_t round = 2; round <= 3; ++round) {
        const auction::AuctionOutcome& o = aggregator.run_round(round, 5, rng);
        EXPECT_TRUE(aggregator.last_dropped_shards().empty());
        for (const auction::ScoredBid& sb : o.ranking) {
            EXPECT_NE(sb.bid.node, first);
            EXPECT_NE(sb.bid.node, last);
        }
    }
    const double every_stamp_mib =
        static_cast<double>(n * sizeof(std::uint32_t)) / (1024.0 * 1024.0);
    for (std::size_t s = 0; s < shards; ++s)
        EXPECT_LT(private_dirty_mib(aggregator.worker_pid(s)) - before[s], every_stamp_mib / 2)
            << "worker " << s << " holds stamps for other shards' rows";
}

TEST(ShardFault, ZeroRowShardHeadFrameIsHandled) {
    // Ban every node of shard 0: its worker still answers, with a zero-row
    // head — an edge frame the protocol must carry (the shard is NOT
    // dropped; it just has nothing to sell).
    const std::size_t n = 20;
    ProcessShardAggregator aggregator(make_store(n, 45), *market().scoring,
                                      *market().strategy, wire_config(5), layout(),
                                      /*num_shards=*/2, /*shard_timeout_s=*/30.0);
    stats::Rng rng(45);
    (void)aggregator.run_round(1, 5, rng);
    const auto [lo, hi] = shard_range(n, 2, 0);
    for (std::size_t node = lo; node < hi; ++node)
        aggregator.ban(static_cast<auction::NodeId>(node));
    const auction::AuctionOutcome& o = aggregator.run_round(2, 5, rng);
    EXPECT_TRUE(aggregator.last_dropped_shards().empty());
    EXPECT_EQ(aggregator.dead_shards(), 0u);
    EXPECT_EQ(o.winners.size(), 5u);
    EXPECT_FALSE(any_winner_in(o.winners, lo, hi));
}

TEST(ShardFault, MaxKHeadFramesMatchMonolithic) {
    // K = N: every shard ships its entire population as the head — the
    // largest frame the protocol ever carries — and the outcome must still
    // match the monolithic salted market bit for bit.
    const Market& m = market();
    const std::size_t n = 16;
    const std::size_t k = 16;
    const auction::WinnerDeterminationConfig wd = wire_config(k);
    MecPopulation population(make_store(n, 46));
    AuctionSelector mono(population, *m.scoring, *m.strategy, wd,
                         data_category_extractor(), /*data_dimension=*/0);
    ProcessShardAggregator aggregator(make_store(n, 46), *m.scoring, *m.strategy,
                                      wd, layout(), /*num_shards=*/2,
                                      /*shard_timeout_s=*/30.0);
    stats::Rng mono_rng(46);
    stats::Rng agg_rng(46);
    for (std::size_t round = 1; round <= 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auction::AuctionOutcome& a = mono.run_auction_round(round, k, mono_rng);
        const auction::AuctionOutcome& b = aggregator.run_round(round, k, agg_rng);
        EXPECT_EQ(b.winners.size(), n);
        expect_outcomes_equal(a, b);
    }
}

TEST(ShardFault, BansReachWorkersNextRound) {
    ProcessShardAggregator aggregator(make_store(50, 23), *market().scoring,
                                      *market().strategy, wire_config(5), layout(),
                                      /*num_shards=*/2, /*shard_timeout_s=*/30.0);
    stats::Rng rng(23);
    const auction::AuctionOutcome& first = aggregator.run_round(1, 5, rng);
    ASSERT_FALSE(first.winners.empty());
    const auction::NodeId banned = first.winners.front().node;
    aggregator.ban(banned);
    aggregator.ban(banned);  // dedup: shipping it twice must not skew counts
    for (std::size_t round = 2; round <= 3; ++round) {
        const auction::AuctionOutcome& o = aggregator.run_round(round, 5, rng);
        for (const auction::Winner& w : o.winners) EXPECT_NE(w.node, banned);
        for (const auction::ScoredBid& sb : o.ranking) EXPECT_NE(sb.bid.node, banned);
    }
}

TEST(ShardFault, BanOutsideThePopulationIsRejected) {
    // An id past N would skew the coordinator's active count and size the
    // blacklists by the id; the aggregator refuses it before anything
    // ships.
    ProcessShardAggregator aggregator(make_store(40, 25), *market().scoring,
                                      *market().strategy, wire_config(5), layout(),
                                      /*num_shards=*/2, /*shard_timeout_s=*/30.0);
    for (const auction::NodeId bad : {auction::NodeId{40}, auction::NodeId{1} << 20}) {
        try {
            aggregator.ban(bad);
            ADD_FAILURE() << "ban(" << bad << ") was taken";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
            EXPECT_NE(what.find("40"), std::string::npos) << what;
        }
    }
    aggregator.ban(39);
    stats::Rng rng(25);
    const auction::AuctionOutcome& o = aggregator.run_round(1, 5, rng);
    EXPECT_EQ(o.winners.size(), 5u);
    for (const auction::ScoredBid& sb : o.ranking) EXPECT_NE(sb.bid.node, 39u);
}

TEST(ShardFault, AggregatorRejectsNonWireFriendlySpecs) {
    const Market& m = market();
    const PopulationStore store = make_store(30, 24);
    auto build = [&](auction::WinnerDeterminationConfig wd, double timeout = 1.0) {
        ProcessShardAggregator probe(store, *m.scoring, *m.strategy, std::move(wd),
                                     layout(), 2, timeout);
    };
    auction::WinnerDeterminationConfig shuffle = wire_config(5);
    shuffle.tie_break = auction::TieBreak::shuffle;
    EXPECT_THROW(build(shuffle), std::invalid_argument);

    auction::WinnerDeterminationConfig psi = wire_config(5);
    psi.psi = 0.5;
    EXPECT_THROW(build(psi), std::invalid_argument);

    auction::WinnerDeterminationConfig full = wire_config(5);
    full.full_ranking = true;
    EXPECT_THROW(build(full), std::invalid_argument);

    EXPECT_THROW(build(wire_config(5), /*timeout=*/0.0), std::invalid_argument);

    // Supervisor config is validated up front too.
    auto build_sup = [&](ShardSupervisorConfig sup) {
        ProcessShardAggregator probe(store, *m.scoring, *m.strategy, wire_config(5),
                                     layout(), 2, 1.0, std::move(sup));
    };
    ShardSupervisorConfig over_quorum;
    over_quorum.min_live_shards = 3;  // only 2 shards exist
    EXPECT_THROW(build_sup(over_quorum), std::invalid_argument);

    // A broadcast rule the strategy was not solved against, pricing three
    // dimensions over the two-column layout: every worker's bid collection
    // would throw on it, so the constructor must reject it before it forks.
    const std::vector<stats::MinMaxNormalizer> wide_norms(
        3, stats::MinMaxNormalizer(0.0, 1.0));
    const auction::ScaledProductScoring wide(25.0, 3, wide_norms);
    auto build_rule = [&](const auction::ScoringRule& rule) {
        ProcessShardAggregator probe(store, rule, *m.strategy, wire_config(5),
                                     layout(), 2, 1.0);
    };
    EXPECT_THROW(build_rule(wide), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Wire protocol: frame-level edge cases on raw pipes
// ---------------------------------------------------------------------------

struct Pipe {
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe() {
        if (fds[0] >= 0) ::close(fds[0]);
        if (fds[1] >= 0) ::close(fds[1]);
    }
};

TEST(ShardFault, WireCrc32MatchesKnownVector) {
    // The IEEE 802.3 check value: CRC32("123456789") — a wrong polynomial,
    // reflection, or init/final XOR all fail this.
    EXPECT_EQ(wire::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(wire::crc32("", 0), 0u);
}

TEST(ShardFault, WireTruncatedLengthPrefixReadsAsEof) {
    // A peer that dies 10 bytes into the 24-byte header must surface as
    // eof, not as a garbage frame.
    Pipe p;
    const std::uint8_t junk[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    ASSERT_TRUE(wire::write_all(p.fds[1], junk, sizeof(junk)));
    ::close(p.fds[1]);
    p.fds[1] = -1;
    wire::FrameHeader header;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(wire::read_frame(p.fds[0], header, payload), wire::ReadStatus::eof);
}

TEST(ShardFault, WireBadMagicOrHeaderCrcIsBadHeader) {
    Pipe p;
    wire::FrameHeader h;
    h.type = static_cast<std::uint32_t>(wire::FrameType::head);
    h.magic = 0xdeadbeefu;
    h.header_crc =
        wire::crc32(&h, sizeof(wire::FrameHeader) - sizeof(std::uint32_t));
    ASSERT_TRUE(wire::write_all(p.fds[1], &h, sizeof(h)));
    wire::FrameHeader header;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(wire::read_frame(p.fds[0], header, payload),
              wire::ReadStatus::bad_header);

    // A flipped bit in the length field is caught by the header CRC before
    // it can desynchronize the stream.
    wire::FrameHeader sized;
    sized.type = static_cast<std::uint32_t>(wire::FrameType::head);
    sized.payload_size = 8;
    sized.header_crc =
        wire::crc32(&sized, sizeof(wire::FrameHeader) - sizeof(std::uint32_t));
    sized.payload_size = 1ull << 40;  // corrupt AFTER hashing
    ASSERT_TRUE(wire::write_all(p.fds[1], &sized, sizeof(sized)));
    EXPECT_EQ(wire::read_frame(p.fds[0], header, payload),
              wire::ReadStatus::bad_header);
}

TEST(ShardFault, WireChecksumMismatchDrainsFrameAndStaysFramed) {
    // bad_payload is the RECOVERABLE verdict: the advertised bytes are
    // drained, so the very next frame on the stream parses clean.
    Pipe p;
    const char garbled[] = "garbled-payload";
    ASSERT_TRUE(wire::write_frame_raw(p.fds[1], wire::FrameType::head, garbled,
                                      sizeof(garbled), /*payload_crc=*/0x1234));
    const char clean[] = "clean-payload";
    ASSERT_TRUE(
        wire::write_frame(p.fds[1], wire::FrameType::head, clean, sizeof(clean)));
    wire::FrameHeader header;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(wire::read_frame(p.fds[0], header, payload),
              wire::ReadStatus::bad_payload);
    ASSERT_EQ(wire::read_frame(p.fds[0], header, payload), wire::ReadStatus::ok);
    ASSERT_EQ(payload.size(), sizeof(clean));
    EXPECT_EQ(std::memcmp(payload.data(), clean, sizeof(clean)), 0);
    // Zero-length frames are checksummed too (crc must be 0).
    ASSERT_TRUE(wire::write_frame_raw(p.fds[1], wire::FrameType::nack, nullptr, 0,
                                      /*payload_crc=*/7));
    EXPECT_EQ(wire::read_frame(p.fds[0], header, payload),
              wire::ReadStatus::bad_payload);
}

TEST(ShardFault, WireFrameLargerThanPipeBufRoundTripsToAConcurrentReader) {
    // A frame past PIPE_BUF (and past the pipe's capacity) cannot land in
    // the pipe at once: the one writev of header and payload fills it as the
    // reader, on another thread, drains it, and the reader gets every byte
    // in order. A truncated frame on the same stream (it claims half the
    // bytes it hashed) still reads as bad_payload and leaves the stream
    // framed.
    Pipe p;
    std::vector<std::uint8_t> big(256 * 1024 + 13);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
    const char small[] = "after-the-big-one";
    std::vector<wire::ReadStatus> status;
    std::vector<std::vector<std::uint8_t>> got;
    std::thread reader([&] {
        wire::FrameHeader header;
        std::vector<std::uint8_t> payload;
        for (int frame = 0; frame < 3; ++frame) {
            status.push_back(wire::read_frame(p.fds[0], header, payload));
            got.push_back(payload);
        }
    });
    const bool sent =
        wire::write_frame(p.fds[1], wire::FrameType::head, big.data(), big.size())
        && wire::write_frame_raw(p.fds[1], wire::FrameType::head, big.data(),
                                 big.size() / 2, wire::crc32(big.data(), big.size()))
        && wire::write_frame(p.fds[1], wire::FrameType::head, small, sizeof(small));
    ::close(p.fds[1]);  // a failed write leaves the reader at eof, not blocked
    p.fds[1] = -1;
    reader.join();
    ASSERT_TRUE(sent);
    ASSERT_EQ(status.size(), 3u);
    EXPECT_EQ(status[0], wire::ReadStatus::ok);
    EXPECT_TRUE(got[0] == big);
    EXPECT_EQ(status[1], wire::ReadStatus::bad_payload);
    EXPECT_EQ(status[2], wire::ReadStatus::ok);
    ASSERT_EQ(got[2].size(), sizeof(small));
    EXPECT_EQ(std::memcmp(got[2].data(), small, sizeof(small)), 0);
}

TEST(ShardFault, WireDeadlineExpiresAsTimeout) {
    Pipe p;
    wire::FrameHeader header;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(wire::read_frame_deadline(
                  p.fds[0], header, payload,
                  std::chrono::steady_clock::now() + std::chrono::milliseconds(30)),
              wire::ReadStatus::timeout);
}

TEST(ShardFault, WireWriteToClosedPipeFailsWithoutSignal) {
    // With SIGPIPE ignored (the aggregator and workers both install this)
    // writing to a dead peer must report failure, not kill the process —
    // that is what turns a dead worker into an eviction.
    using SigHandler = void (*)(int);
    const SigHandler previous = std::signal(SIGPIPE, SIG_IGN);
    Pipe p;
    ::close(p.fds[0]);
    p.fds[0] = -1;
    const char data[] = "to-nobody";
    EXPECT_FALSE(wire::write_frame(p.fds[1], wire::FrameType::request, data,
                                   sizeof(data)));
    std::signal(SIGPIPE, previous);
}

} // namespace
} // namespace fmore::mec
