#include "engine_parts.hpp"

#include <stdexcept>
#include <string>

#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/mec/streaming_selector.hpp"
#include "fmore/util/fault_injector.hpp"

namespace fmore::core::detail {

const ExperimentSpec& checked_spec(const ExperimentSpec& spec, ExperimentKind engine) {
    validate_or_throw(spec);
    if (spec.kind != engine) {
        const bool simulation = engine == ExperimentKind::simulation;
        throw std::invalid_argument(
            std::string(simulation ? "SimulationTrial" : "RealWorldTrial")
            + ": spec.kind is '" + to_string(spec.kind) + "'; use "
            + (simulation ? "RealWorldTrial" : "SimulationTrial")
            + " (or run through ExperimentTrial, which dispatches on kind)");
    }
    return spec;
}

fl::CoordinatorConfig coordinator_config(const ExperimentSpec& spec) {
    fl::CoordinatorConfig cc;
    cc.rounds = spec.training.rounds;
    cc.winners_per_round = spec.auction.winners;
    cc.local_epochs = spec.training.local_epochs;
    cc.batch_size = spec.training.batch_size;
    cc.learning_rate = spec.training.learning_rate;
    cc.eval_cap = spec.training.eval_cap;
    return cc;
}

std::unique_ptr<fl::ClientSelector> make_market_selector(
    const ExperimentSpec& spec, mec::MecPopulation& population,
    const SolvedEquilibrium& solved, const fl::PolicyContext& context,
    const std::function<std::vector<double>()>& bid_latencies) {
    const AuctionSpec& auc = spec.auction;
    auction::WinnerDeterminationConfig wd;
    wd.mechanism = auc.mechanism;
    wd.num_winners = auc.winners;
    wd.payment_rule = auc.payment_rule;
    wd.psi = context.probabilistic_acceptance ? auc.psi : 1.0;
    if (context.probabilistic_acceptance) wd.psi_per_node = auc.psi_per_node;
    wd.budget = auc.budget;
    wd.full_ranking = auc.full_scoreboard;
    wd.latency_discount = auc.latency_discount;
    if (bid_latencies
        && (auc.latency_discount > 0.0 || auc.mechanism == "latency_discounted"))
        wd.expected_latency_s = bid_latencies();

    const bool testbed = spec.kind == ExperimentKind::testbed;
    mec::QualityLayout layout =
        testbed ? mec::QualityLayout{mec::ResourceDim::cpu, mec::ResourceDim::bandwidth,
                                     mec::ResourceDim::data_size}
                : mec::QualityLayout{mec::ResourceDim::data_size,
                                     mec::ResourceDim::category_proportion};
    const std::size_t data_dimension = testbed ? 2 : 0;

    if (spec.timing.streaming) {
        // Streaming market: bids trickle in on the virtual clock and the
        // round closes on deadline/quorum; the closed set ranks exactly as
        // the batch selector would (streaming_equivalence_test). Sharded
        // streaming closes through the head-merge composition, bit-identical
        // to the monolithic close.
        mec::StreamingRoundConfig sc;
        sc.deadline_s = spec.timing.round_deadline_s;
        sc.quorum = spec.timing.min_updates;
        sc.process = spec.timing.arrival_process;
        sc.arrival_rate_hz = spec.timing.arrival_rate_hz;
        sc.bid_latencies_s = bid_latencies();
        sc.shards = auc.shards;
        sc.adaptive_quorum = spec.timing.adaptive_quorum;
        return std::make_unique<mec::StreamingAuctionSelector>(
            population, *solved.scoring, solved.strategy, wd, std::move(layout),
            data_dimension, std::move(sc));
    }
    if (auc.shards > 1) {
        // Sharded market: same winners, payments and metrics as the
        // monolithic selector by construction (shard_equivalence_test).
        auto sharded = std::make_unique<mec::ShardedAuctionSelector>(
            population, *solved.scoring, solved.strategy, wd, std::move(layout),
            data_dimension, auc.shards);
        sharded->set_shard_timeout(auc.shard_timeout_s);
        if (!auc.fault_plan.empty()) {
            // Coordinator-only plans (ckill/ckill_mid) leave the shard
            // workers alone, so the selector runs exactly as without a
            // plan — what the crash harness's uninterrupted twin needs.
            const util::FaultInjector faults =
                util::FaultInjector::from_spec(auc.fault_plan);
            if (faults.has_shard_faults()) sharded->set_fault_injector(faults);
        }
        if (auc.shard_quorum > 0) sharded->set_min_live_shards(auc.shard_quorum);
        return sharded;
    }
    return std::make_unique<mec::AuctionSelector>(population, *solved.scoring,
                                                  solved.strategy, wd,
                                                  std::move(layout),
                                                  data_dimension);
}

} // namespace fmore::core::detail
