// The three 1M-node market workloads. All share the bench/scale_round
// market: a synthetic SoA population of 1,000,000 nodes, alpha=25
// scaled-product scoring over (data size, category proportion), additive
// cost, theta ~ U[0.5, 1.5], K=32 winners and partial ranking.
//
//  - market_1m: mec::ShardedAuctionSelector in view mode over a
//    mec::MecPopulation, 8 in-process shards (the scale/10m
//    configuration), one select() per round. Reference: the monolithic
//    mec::AuctionSelector.
//  - stream_1m: mec::StreamingAuctionSelector with 1 shard, Poisson
//    arrivals at N bids per virtual second, quorum and deadline set so both
//    close reasons occur. Reference: the round composed from public calls,
//    each close checked against the batch Mechanism::run_frame over the
//    arrived set.
//  - wire_1m: mec::ProcessShardAggregator with one forked worker per core,
//    salted tie-break and a shard deadline far above the round time, one
//    run_round() per round. Reference: the monolithic salted market.
//
// The trace lanes run the real selector and, on a second world built from
// the same seed, the same round composed from the public calls it makes,
// with a span around each call; the two must agree every round.

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/mec/arrival_model.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/shard_aggregator.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/mec/streaming_selector.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/normalizer.hpp"
#include "lanes.hpp"

namespace perfbench {
namespace {

using namespace fmore;

constexpr std::size_t kNodes = 1'000'000;
constexpr std::size_t kWinners = 32;
constexpr double kDataHi = 150.0;
constexpr std::size_t kShards = 8;
constexpr std::size_t kWireWorkers = 4;
constexpr double kShardDeadlineS = 30.0;
// Poisson arrivals at N bids per virtual second; the quorum is 90% of N and
// the deadline sits at the quorum's expected arrival time, so a round closes
// on either trigger about as often.
constexpr double kArrivalRateHz = static_cast<double>(kNodes);
constexpr std::size_t kQuorum = kNodes / 10 * 9;
constexpr double kDeadlineS = static_cast<double>(kQuorum) / kArrivalRateHz;

const mec::QualityLayout& layout() {
    static const mec::QualityLayout columns{mec::ResourceDim::data_size,
                                            mec::ResourceDim::category_proportion};
    return columns;
}

std::uint64_t store_seed(std::uint64_t seed) { return seed ^ 0x5ca1e000ULL; }
std::uint64_t round_seed(std::uint64_t seed) { return seed ^ 0xf00dULL; }

/// The market's rules with its equilibrium strategy solved cold.
struct MarketRules {
    std::vector<stats::MinMaxNormalizer> norms;
    std::unique_ptr<auction::ScaledProductScoring> scoring;
    std::unique_ptr<auction::AdditiveCost> cost;
    std::unique_ptr<stats::UniformDistribution> theta;
    std::unique_ptr<auction::EquilibriumStrategy> strategy;

    explicit MarketRules(Tracer& tracer) {
        norms.emplace_back(0.0, kDataHi);
        norms.emplace_back(0.0, 1.0);
        scoring = std::make_unique<auction::ScaledProductScoring>(25.0, 2, norms);
        cost = std::make_unique<auction::AdditiveCost>(std::vector<double>{6.0 / kDataHi, 2.0});
        theta = std::make_unique<stats::UniformDistribution>(0.5, 1.5);
        auction::EquilibriumConfig eq;
        eq.num_bidders = kNodes;
        eq.num_winners = kWinners;
        const auction::EquilibriumSolver solver(*scoring, *cost, *theta, {1.0, 0.05},
                                                {kDataHi, 1.0}, eq);
        const Span span(tracer, "auction.equilibrium", -1);
        strategy = std::make_unique<auction::EquilibriumStrategy>(solver.solve());
    }
};

mec::PopulationStore make_store(const MarketRules& rules, std::uint64_t seed) {
    mec::PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    mec::SyntheticDataSpec data;
    data.data_lo = 20.0;
    data.data_hi = kDataHi;
    stats::Rng rng(store_seed(seed));
    return mec::PopulationStore(kNodes, data, *rules.theta, spec, rng);
}

std::unique_ptr<mec::MecPopulation> make_population(const MarketRules& rules,
                                                    std::uint64_t seed, Tracer& tracer) {
    const Span span(tracer, "mec.population", -1);
    return std::make_unique<mec::MecPopulation>(make_store(rules, seed));
}

auction::WinnerDeterminationConfig market_wd(auction::TieBreak tie_break) {
    auction::WinnerDeterminationConfig wd;
    wd.num_winners = kWinners;
    wd.full_ranking = false;
    wd.tie_break = tie_break;
    return wd;
}

const auction::ScoreAuctionMechanism& built_in_engine(const auction::Mechanism& mechanism) {
    const auto* engine = dynamic_cast<const auction::ScoreAuctionMechanism*>(&mechanism);
    if (engine == nullptr)
        throw std::logic_error("the market's mechanism is not the built-in score engine");
    return *engine;
}

std::size_t record_bytes(const fl::SelectionRecord& record) {
    return record.selected.size() * sizeof(fl::SelectedClient)
           + (record.all_scores.size() + record.scores_by_node.size()) * sizeof(double)
           + record.dropped_shards.size() * sizeof(std::size_t);
}

/// Closed loop: a round starts when the previous one returns. `round_fn`
/// runs round r (the timed part); `check_fn` validates it and returns its
/// digest. Exceptions fail the round and the loop goes on.
template <class RoundFn, class CheckFn>
void run_rounds(std::size_t warmup, std::size_t timed, std::size_t check_rounds,
                LaneReport& report, RoundFn&& round_fn, CheckFn&& check_fn) {
    std::int64_t first_start = 0;
    std::int64_t last_end = 0;
    for (std::size_t round = 1; round <= warmup + timed; ++round) {
        ++report.attempted;
        const std::int64_t start = now_ns();
        bool ok = true;
        try {
            round_fn(round);
        } catch (const std::exception& error) {
            report.fail(round, error.what());
            ok = false;
        }
        const std::int64_t end = now_ns();
        if (round > warmup) {
            if (first_start == 0) first_start = start;
            last_end = end;
            report.round_ms.push_back(ms_between(start, end));
        }
        const std::string digest = ok ? check_fn(round) : std::string("failed");
        if (round <= check_rounds) report.digests.push_back(digest);
    }
    if (timed > 0) report.run_s = ms_between(first_start, last_end) * 1e-3;
}

/// Builds a world `repeats` times (dropping the previous one first, so two
/// never coexist) and records each build's wall time as set-up.
template <class World, class Build>
std::unique_ptr<World> timed_setup(std::size_t repeats, LaneReport& report, Build&& build) {
    std::unique_ptr<World> world;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
        world.reset();
        const std::int64_t start = now_ns();
        world = build();
        report.setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
    }
    return world;
}

// ---------------------------------------------------------------------------
// market_1m
// ---------------------------------------------------------------------------

struct ShardedWorld {
    MarketRules rules;
    std::unique_ptr<mec::MecPopulation> population;
    std::unique_ptr<mec::ShardedAuctionSelector> selector;

    ShardedWorld(std::uint64_t seed, Tracer& tracer)
        : rules(tracer), population(make_population(rules, seed, tracer)) {
        selector = std::make_unique<mec::ShardedAuctionSelector>(
            *population, *rules.scoring, *rules.strategy,
            market_wd(auction::TieBreak::shuffle), layout(), /*data_dimension=*/0, kShards);
    }
};

/// The sharded round composed from the public calls ShardedAuctionSelector
/// makes: evolve, per-shard collect, the shuffle tie keys, per-shard head,
/// head merge, select and price, record assembly.
class ComposedShardedRound {
public:
    ComposedShardedRound(const MarketRules& rules, std::uint64_t seed)
        : rules_(rules),
          population_(make_store(rules, seed)),
          mechanism_(auction::make_mechanism(market_wd(auction::TieBreak::shuffle))),
          engine_(built_in_engine(*mechanism_)) {
        const std::vector<std::size_t> cuts = mec::PopulationStore::even_boundaries(kNodes, kShards);
        starts_.assign(1, 0);
        starts_.insert(starts_.end(), cuts.begin(), cuts.end());
        starts_.resize(kShards);
        starts_.push_back(kNodes);
        frames_.resize(kShards);
        heads_.resize(kShards);
    }

    fl::SelectionRecord run(std::size_t round, stats::Rng& rng, Tracer& tracer) {
        const auto r = static_cast<std::int64_t>(round);
        if (round > 1) {
            const Span span(tracer, "mec.evolve", r);
            population_.evolve(rng);
        }
        const mec::PopulationStore& store = population_.store();
        for (std::size_t s = 0; s < kShards; ++s) {
            const Span span(tracer, "mec.collect", r);
            frames_[s].reset(starts_[s + 1] - starts_[s], layout().size());
            mec::collect_bid_rows(store, starts_[s], starts_[s + 1], layout(),
                                  *rules_.strategy, *rules_.scoring,
                                  /*strategy_scores_broadcast_rule=*/true,
                                  auction::PaymentMethod::integral, blacklist_, frames_[s], 0,
                                  columns_, /*parallel=*/true);
            frames_[s].set_scored(true);
        }
        auction::TieKeys keys;
        {
            const Span span(tracer, "auction.tie_keys", r);
            order_.resize(kNodes);
            std::iota(order_.begin(), order_.end(), std::size_t{0});
            rng.shuffle(order_);
            pos_.resize(kNodes);
            for (std::size_t j = 0; j < kNodes; ++j)
                pos_[order_[j]] = static_cast<std::uint32_t>(j);
            keys.pos = pos_.data();
        }
        const std::size_t cutoff = engine_.ranking_cutoff(kNodes);
        for (std::size_t s = 0; s < kShards; ++s) {
            const Span span(tracer, "auction.rank", r);
            heads_[s].clear();
            auction::collect_shard_head(frames_[s], starts_[s], keys, cutoff, heads_[s]);
        }
        {
            const Span span(tracer, "auction.merge", r);
            auction::merge_heads(heads_, cutoff, outcome_.ranking);
        }
        {
            const Span span(tracer, "auction.select_price", r);
            engine_.select_into(outcome_.ranking, rng, chosen_);
            engine_.price_into(*rules_.scoring, outcome_.ranking, chosen_, outcome_.winners);
        }
        const Span span(tracer, "mec.record", r);
        return mec::assemble_selection_record(
            outcome_, kNodes, [this](auction::NodeId node) { return promised(node); },
            compliance_, blacklist_, rng);
    }

    [[nodiscard]] std::size_t bids_collected() const {
        std::size_t total = 0;
        for (const auction::BidFrame& frame : frames_) total += frame.active_count();
        return total;
    }

private:
    double promised(auction::NodeId node) const {
        const auto it = std::upper_bound(starts_.begin(), starts_.end(), node);
        const auto s = static_cast<std::size_t>(it - starts_.begin()) - 1;
        return frames_[s].quality_row(node - starts_[s])[0];
    }

    const MarketRules& rules_;
    mec::MecPopulation population_;
    std::unique_ptr<auction::Mechanism> mechanism_;
    const auction::ScoreAuctionMechanism& engine_;
    std::vector<std::size_t> starts_;
    std::vector<auction::BidFrame> frames_;
    std::vector<auction::ShardHead> heads_;
    std::vector<const double*> columns_;
    std::vector<std::size_t> order_;
    std::vector<std::uint32_t> pos_;
    std::vector<std::size_t> chosen_;
    auction::AuctionOutcome outcome_;
    mec::Blacklist blacklist_;
    mec::ComplianceSpec compliance_;
};

std::string check_record(const fl::SelectionRecord& record, std::size_t round,
                         LaneReport& report) {
    if (record.selected.size() != kWinners)
        report.fail(round, std::to_string(record.selected.size()) + " winners, expected "
                               + std::to_string(kWinners));
    else if (!record.dropped_shards.empty())
        report.fail(round, std::to_string(record.dropped_shards.size()) + " shards lost");
    return digest_selection(record).hex();
}

/// Trace lanes' shared shape: `rounds` untraced rounds of the real
/// selector (after `warmup`), the composed twin catching up untraced, then
/// `trace_rounds` rounds in lockstep with spans on. Every composed round
/// must match the selector's.
template <class SelectFn, class ComposeFn>
void trace_lockstep(const LaneArgs& args, LaneReport& report, Tracer& tracer,
                    SelectFn&& select, ComposeFn&& compose) {
    const std::size_t prefix = args.warmup_rounds + args.rounds;
    std::vector<std::string> digests;
    Tracer off(false);
    run_rounds(
        args.warmup_rounds, args.rounds, 0, report,
        [&](std::size_t round) {
            digests.emplace_back("failed");
            digests.back() = digest_selection(select(round)).hex();
        },
        [](std::size_t) { return std::string(); });
    for (std::size_t round = 1; round <= prefix; ++round) {
        if (digest_selection(compose(round, off)).hex() != digests[round - 1])
            report.fail(round, "composed round differs from the selector");
    }
    for (std::size_t round = prefix + 1; round <= prefix + args.trace_rounds; ++round) {
        ++report.attempted;
        const auto r = static_cast<std::int64_t>(round);
        fl::SelectionRecord expect;
        {
            const Span span(tracer, "mec.select", r);
            expect = select(round);
        }
        fl::SelectionRecord got;
        {
            const Span span(tracer, "bench.round", r);
            got = compose(round, tracer);
        }
        if (digest_selection(got).hex() != digest_selection(expect).hex())
            report.fail(round, "composed round differs from the selector");
        report.add_value("mec.record_kb", "median", static_cast<double>(record_bytes(got)) / 1024.0);
    }
}

} // namespace

LaneReport run_market_1m(const LaneArgs& args, Tracer& tracer) {
    LaneReport report;
    stats::Rng rng(round_seed(args.seed));
    if (args.lane == "reference") {
        Tracer off(false);
        const MarketRules rules(off);
        mec::MecPopulation population(make_store(rules, args.seed));
        mec::AuctionSelector monolithic(population, *rules.scoring, *rules.strategy,
                                        market_wd(auction::TieBreak::shuffle),
                                        mec::data_category_extractor(), /*data_dimension=*/0);
        fl::SelectionRecord record;
        run_rounds(
            args.check_rounds, 0, args.check_rounds, report,
            [&](std::size_t round) { record = monolithic.select(round, kWinners, rng); },
            [&](std::size_t round) { return check_record(record, round, report); });
        report.peak_rss_kib = peak_rss_kib(0);
        return report;
    }

    const std::size_t repeats = args.lane == "main" ? args.setup_repeats : 1;
    std::unique_ptr<ShardedWorld> world = timed_setup<ShardedWorld>(
        repeats, report, [&] { return std::make_unique<ShardedWorld>(args.seed, tracer); });
    if (args.lane == "main") {
        fl::SelectionRecord record;
        run_rounds(
            args.warmup_rounds, args.rounds, args.check_rounds, report,
            [&](std::size_t round) { record = world->selector->select(round, kWinners, rng); },
            [&](std::size_t round) { return check_record(record, round, report); });
    } else {
        ComposedShardedRound composed(world->rules, args.seed);
        stats::Rng twin_rng(round_seed(args.seed));
        trace_lockstep(
            args, report, tracer,
            [&](std::size_t round) { return world->selector->select(round, kWinners, rng); },
            [&](std::size_t round, Tracer& t) {
                fl::SelectionRecord record = composed.run(round, twin_rng, t);
                if (t.enabled())
                    report.add_value("mec.bids_collected", "median",
                                     static_cast<double>(composed.bids_collected()));
                return record;
            });
    }
    report.peak_rss_kib = peak_rss_kib(0);
    return report;
}

// ---------------------------------------------------------------------------
// stream_1m
// ---------------------------------------------------------------------------

namespace {

mec::StreamingRoundConfig stream_config() {
    mec::StreamingRoundConfig config;
    config.deadline_s = kDeadlineS;
    config.quorum = kQuorum;
    config.process = mec::ArrivalProcess::poisson;
    config.arrival_rate_hz = kArrivalRateHz;
    config.shards = 1;
    return config;
}

struct StreamWorld {
    MarketRules rules;
    std::unique_ptr<mec::MecPopulation> population;
    std::unique_ptr<mec::StreamingAuctionSelector> selector;

    StreamWorld(std::uint64_t seed, Tracer& tracer)
        : rules(tracer), population(make_population(rules, seed, tracer)) {
        selector = std::make_unique<mec::StreamingAuctionSelector>(
            *population, *rules.scoring, *rules.strategy,
            market_wd(auction::TieBreak::salted), layout(), /*data_dimension=*/0,
            stream_config());
    }
};

/// The streaming round composed from the public calls
/// StreamingAuctionSelector makes: evolve, collect, the Poisson arrival
/// schedule, open + per-bid offer, close, record assembly. With
/// `check_batch` every close is compared with the batch
/// Mechanism::run_frame over the arrived set.
class ComposedStreamRound {
public:
    ComposedStreamRound(const MarketRules& rules, std::uint64_t seed)
        : rules_(rules),
          population_(make_store(rules, seed)),
          market_(std::shared_ptr<const auction::Mechanism>(
                      auction::make_mechanism(market_wd(auction::TieBreak::salted))),
                  *rules.scoring) {}

    fl::SelectionRecord run(std::size_t round, stats::Rng& rng, Tracer& tracer,
                            bool check_batch, LaneReport& report) {
        const auto r = static_cast<std::int64_t>(round);
        if (round > 1) {
            const Span span(tracer, "mec.evolve", r);
            population_.evolve(rng);
        }
        std::size_t expected = 0;
        {
            const Span span(tracer, "mec.collect", r);
            staging_.reset(kNodes, layout().size());
            mec::collect_bid_rows(population_.store(), 0, kNodes, layout(), *rules_.strategy,
                                  *rules_.scoring, /*strategy_scores_broadcast_rule=*/true,
                                  auction::PaymentMethod::integral, blacklist_, staging_, 0,
                                  columns_, /*parallel=*/true);
            staging_.set_scored(true);
            for (std::size_t i = 0; i < kNodes; ++i) expected += staging_.active(i) ? 1 : 0;
        }
        mec::ArrivalModel arrivals;
        {
            const Span span(tracer, "mec.arrivals", r);
            arrivals = mec::ArrivalModel::poisson(kNodes, kArrivalRateHz, rng);
        }
        const stats::Rng batch_rng = rng;
        {
            const Span span(tracer, "auction.ingest", r);
            auction::StreamingRoundSpec spec;
            spec.deadline_s = kDeadlineS;
            spec.quorum = kQuorum;
            spec.expected_bids = expected;
            market_.open_round(kNodes, layout().size(), spec, rng);
            for (const mec::Arrival& arrival : arrivals.schedule()) {
                if (!staging_.active(arrival.node)) continue;
                if (!market_.offer(arrival.node, staging_.quality_row(arrival.node),
                                   staging_.payment(arrival.node), staging_.score(arrival.node),
                                   arrival.seconds))
                    break;
            }
        }
        {
            const Span span(tracer, "auction.close", r);
            (void)market_.close_round(rng);
        }
        if (check_batch) {
            stats::Rng replay = batch_rng;
            market_.mechanism().run_frame(*rules_.scoring, market_.frame(), replay, scratch_,
                                          batch_);
            if (digest_winners(batch_.winners).value()
                    != digest_winners(market_.outcome().winners).value()
                || batch_.ranking.size() != market_.outcome().ranking.size())
                report.fail(round, "streaming close differs from the batch pass");
        }
        const Span span(tracer, "mec.record", r);
        return mec::assemble_selection_record(
            market_.outcome(), kNodes,
            [this](auction::NodeId node) { return market_.frame().quality_row(node)[0]; },
            compliance_, blacklist_, rng);
    }

    [[nodiscard]] const auction::StreamingMarket& market() const { return market_; }
    [[nodiscard]] std::size_t staged_bids() const { return staging_.active_count(); }

private:
    const MarketRules& rules_;
    mec::MecPopulation population_;
    auction::StreamingMarket market_;
    auction::BidFrame staging_;
    std::vector<const double*> columns_;
    auction::RankScratch scratch_;
    auction::AuctionOutcome batch_;
    mec::Blacklist blacklist_;
    mec::ComplianceSpec compliance_;
};

void count_close(const std::string& reason, LaneReport& report) {
    report.add_value("auction.quorum_closes", "sum", reason == "quorum" ? 1.0 : 0.0);
    report.add_value("auction.deadline_closes", "sum", reason == "deadline" ? 1.0 : 0.0);
}

} // namespace

LaneReport run_stream_1m(const LaneArgs& args, Tracer& tracer) {
    LaneReport report;
    stats::Rng rng(round_seed(args.seed));
    if (args.lane == "reference") {
        Tracer off(false);
        const MarketRules rules(off);
        ComposedStreamRound composed(rules, args.seed);
        fl::SelectionRecord record;
        run_rounds(
            args.check_rounds, 0, args.check_rounds, report,
            [&](std::size_t round) { record = composed.run(round, rng, off, true, report); },
            [&](std::size_t round) { return check_record(record, round, report); });
        report.peak_rss_kib = peak_rss_kib(0);
        return report;
    }

    const std::size_t repeats = args.lane == "main" ? args.setup_repeats : 1;
    std::unique_ptr<StreamWorld> world = timed_setup<StreamWorld>(
        repeats, report, [&] { return std::make_unique<StreamWorld>(args.seed, tracer); });
    if (args.lane == "main") {
        fl::SelectionRecord record;
        run_rounds(
            args.warmup_rounds, args.rounds, args.check_rounds, report,
            [&](std::size_t round) { record = world->selector->select(round, kWinners, rng); },
            [&](std::size_t round) {
                count_close(record.close_reason, report);
                return check_record(record, round, report);
            });
    } else {
        ComposedStreamRound composed(world->rules, args.seed);
        stats::Rng twin_rng(round_seed(args.seed));
        trace_lockstep(
            args, report, tracer,
            [&](std::size_t round) { return world->selector->select(round, kWinners, rng); },
            [&](std::size_t round, Tracer& t) {
                fl::SelectionRecord record = composed.run(round, twin_rng, t, false, report);
                if (t.enabled()) {
                    const auction::StreamingMarket& market = composed.market();
                    const auto arrived = static_cast<double>(market.arrived());
                    report.add_value("mec.bids_collected", "median",
                                     static_cast<double>(composed.staged_bids()));
                    report.add_value("auction.arrived_bids", "median", arrived);
                    report.add_value("auction.head_churn_frac", "median",
                                     static_cast<double>(market.head_churn()) / arrived);
                    count_close(auction::to_string(market.close_reason()), report);
                }
                return record;
            });
    }
    report.peak_rss_kib = peak_rss_kib(0);
    return report;
}

// ---------------------------------------------------------------------------
// wire_1m
// ---------------------------------------------------------------------------

namespace {

struct WireWorld {
    MarketRules rules;
    std::unique_ptr<mec::PopulationStore> store;
    std::unique_ptr<mec::ProcessShardAggregator> aggregator;

    WireWorld(std::uint64_t seed, Tracer& tracer) : rules(tracer) {
        {
            const Span span(tracer, "mec.population", -1);
            store = std::make_unique<mec::PopulationStore>(make_store(rules, seed));
        }
        const Span span(tracer, "mec.fork", -1);
        aggregator = std::make_unique<mec::ProcessShardAggregator>(
            *store, *rules.scoring, *rules.strategy, market_wd(auction::TieBreak::salted),
            layout(), kWireWorkers, kShardDeadlineS);
    }
};

std::string check_wire_round(const mec::ProcessShardAggregator& aggregator,
                             const auction::AuctionOutcome& outcome, std::size_t round,
                             LaneReport& report) {
    const mec::ShardHealth& health = aggregator.last_health();
    if (outcome.winners.size() != kWinners)
        report.fail(round, std::to_string(outcome.winners.size()) + " winners, expected "
                               + std::to_string(kWinners));
    else if (!aggregator.last_dropped_shards().empty())
        report.fail(round, std::to_string(aggregator.last_dropped_shards().size())
                               + " shards lost");
    else if (health.evictions + health.respawns + health.corrupt_frames + health.frame_retries
             != 0)
        report.fail(round, "unhealthy round on a clean run");
    return digest_winners(outcome.winners).hex();
}

std::vector<std::int64_t> worker_cpu_ns(const mec::ProcessShardAggregator& aggregator) {
    std::vector<std::int64_t> cpu(aggregator.num_shards(), 0);
    for (std::size_t s = 0; s < cpu.size(); ++s) {
        const int pid = aggregator.worker_pid(s);
        if (pid > 0) cpu[s] = cpu_time_ns(pid);
    }
    return cpu;
}

} // namespace

LaneReport run_wire_1m(const LaneArgs& args, Tracer& tracer) {
    LaneReport report;
    stats::Rng rng(round_seed(args.seed));
    if (args.lane == "reference") {
        Tracer off(false);
        const MarketRules rules(off);
        mec::MecPopulation population(make_store(rules, args.seed));
        mec::AuctionSelector monolithic(population, *rules.scoring, *rules.strategy,
                                        market_wd(auction::TieBreak::salted),
                                        mec::data_category_extractor(), /*data_dimension=*/0);
        const auction::AuctionOutcome* outcome = nullptr;
        run_rounds(
            args.check_rounds, 0, args.check_rounds, report,
            [&](std::size_t round) {
                outcome = &monolithic.run_auction_round(round, kWinners, rng);
            },
            [&](std::size_t round) {
                if (outcome->winners.size() != kWinners)
                    report.fail(round, "monolithic market returned other than K winners");
                return digest_winners(outcome->winners).hex();
            });
        report.peak_rss_kib = peak_rss_kib(0);
        return report;
    }

    const std::size_t repeats = args.lane == "main" ? args.setup_repeats : 1;
    std::unique_ptr<WireWorld> world = timed_setup<WireWorld>(
        repeats, report, [&] { return std::make_unique<WireWorld>(args.seed, tracer); });
    mec::ProcessShardAggregator& aggregator = *world->aggregator;
    const auction::AuctionOutcome* outcome = nullptr;
    run_rounds(
        args.warmup_rounds, args.rounds, args.check_rounds, report,
        [&](std::size_t round) { outcome = &aggregator.run_round(round, kWinners, rng); },
        [&](std::size_t round) { return check_wire_round(aggregator, *outcome, round, report); });

    if (args.lane == "trace") {
        const std::size_t first = args.warmup_rounds + args.rounds + 1;
        for (std::size_t round = first; round < first + args.trace_rounds; ++round) {
            ++report.attempted;
            const std::vector<std::int64_t> before = worker_cpu_ns(aggregator);
            const std::int64_t start = now_ns();
            {
                const Span span(tracer, "mec.run_round", static_cast<std::int64_t>(round));
                outcome = &aggregator.run_round(round, kWinners, rng);
            }
            const double wall_ms = ms_between(start, now_ns());
            const std::vector<std::int64_t> after = worker_cpu_ns(aggregator);
            double busy_ms = 0.0;
            for (std::size_t s = 0; s < after.size(); ++s)
                busy_ms = std::max(busy_ms, ms_between(before[s], after[s]));
            report.add_value("mec.worker_busy_ms", "median", busy_ms);
            report.add_value("mec.wire_wait_ms", "median", wall_ms - busy_ms);
            const mec::ShardHealth& health = aggregator.last_health();
            report.add_value("mec.evictions", "sum", static_cast<double>(health.evictions));
            report.add_value("mec.respawns", "sum", static_cast<double>(health.respawns));
            report.add_value("mec.corrupt_frames", "sum",
                             static_cast<double>(health.corrupt_frames));
            report.add_value("mec.frame_retries", "sum",
                             static_cast<double>(health.frame_retries));
            report.add_value("mec.dropped_shards", "sum",
                             static_cast<double>(aggregator.last_dropped_shards().size()));
            (void)check_wire_round(aggregator, *outcome, round, report);
        }
    }

    long rss = peak_rss_kib(0);
    for (std::size_t s = 0; s < aggregator.num_shards(); ++s) {
        const int pid = aggregator.worker_pid(s);
        if (pid > 0) rss += peak_rss_kib(pid);
    }
    report.peak_rss_kib = rss;
    return report;
}

} // namespace perfbench
