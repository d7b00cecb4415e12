#include "fmore/mec/streaming_selector.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "fmore/mec/population_store.hpp"

namespace fmore::mec {

StreamingAuctionSelector::StreamingAuctionSelector(
    MecPopulation& population, const auction::ScoringRule& scoring,
    const auction::EquilibriumStrategy& strategy,
    auction::WinnerDeterminationConfig wd_config, QualityLayout layout,
    std::size_t data_dimension, StreamingRoundConfig streaming,
    auction::PaymentMethod payment_method)
    : MarketSelector(population, scoring, strategy, std::move(wd_config), std::move(layout),
                     data_dimension, payment_method),
      streaming_(std::move(streaming)) {
    if (streaming_.process == ArrivalProcess::poisson
        && !(streaming_.arrival_rate_hz > 0.0))
        throw std::invalid_argument(
            "StreamingAuctionSelector: poisson arrivals need arrival_rate_hz > 0");
    if (streaming_.shards == 0)
        throw std::invalid_argument(
            "StreamingAuctionSelector: shards = 0 (1 = the monolithic close)");
    if (streaming_.adaptive_quorum && streaming_.quorum == 0)
        throw std::invalid_argument(
            "StreamingAuctionSelector: adaptive_quorum needs a starting "
            "quorum > 0 (timing.min_updates seeds the controller)");
    last_quorum_ = streaming_.quorum;
}

const auction::AuctionOutcome& StreamingAuctionSelector::run_auction_round(
    std::size_t round, std::size_t k, stats::Rng& rng) {
    // Round 1 bids on the initial resource state; drift applies afterwards
    // — the batch selector's convention, so the generator streams align.
    if (round > 1) population_.evolve(rng);
    collect_frame();
    const std::size_t n = node_ids();
    const std::size_t expected = frame_.active_count();

    const std::shared_ptr<const auction::Mechanism>& mechanism = mechanism_for(k);
    if (!market_ || &market_->mechanism() != mechanism.get())
        market_ = std::make_unique<auction::StreamingMarket>(mechanism, scoring_);

    // The arrival schedule. Poisson draws BEFORE the round opens (one
    // shuffle + one uniform per node, a fixed sequence); closed-loop
    // latencies consume nothing and are built once.
    const ArrivalModel* arrivals = nullptr;
    ArrivalModel poisson_round;
    if (streaming_.process == ArrivalProcess::poisson) {
        poisson_round = ArrivalModel::poisson(n, streaming_.arrival_rate_hz, rng);
        arrivals = &poisson_round;
    } else {
        if (!latency_arrivals_) {
            std::vector<double> latencies = streaming_.bid_latencies_s;
            latencies.resize(n, 0.0);
            latency_arrivals_ = ArrivalModel::closed_loop(latencies);
        }
        arrivals = &*latency_arrivals_;
    }

    // The quorum this round opens with: fixed, or the adaptive
    // controller's current target. The controller is a pure function of
    // the close telemetry it has observed, so re-running the same trial
    // replays the same quorum schedule byte for byte.
    ensure_adaptive(n);
    last_quorum_ = adaptive_ ? adaptive_->quorum() : streaming_.quorum;

    auction::StreamingRoundSpec spec;
    spec.deadline_s = streaming_.deadline_s;
    spec.quorum = last_quorum_;
    spec.expected_bids = expected;
    market_->open_round(n, layout_.size(), spec, rng);
    for (const Arrival& arrival : arrivals->schedule()) {
        // Blacklisted defaulters never bid; their schedule slots lapse.
        if (!frame_.active(arrival.node)) continue;
        if (!market_->offer(arrival.node, frame_.quality_row(arrival.node),
                            frame_.payment(arrival.node), frame_.score(arrival.node),
                            arrival.seconds))
            break; // the round closed (quorum or deadline) — the feed stops
    }
    // Sharded close: the same virtual-shard cuts the sharded batch selector
    // uses, folded through the head merge — bit-identical to the monolithic
    // close (streaming_equivalence_test pins this).
    const auction::AuctionOutcome* outcome;
    if (streaming_.shards > 1) {
        shard_starts_.assign(1, 0);
        const std::vector<std::size_t> cuts =
            PopulationStore::even_boundaries(n, streaming_.shards);
        shard_starts_.insert(shard_starts_.end(), cuts.begin(), cuts.end());
        outcome = &market_->close_round_sharded(rng, shard_starts_);
    } else {
        outcome = &market_->close_round(rng);
    }
    if (adaptive_)
        adaptive_->observe(auction::to_string(market_->close_reason()),
                           market_->close_time_s());
    return *outcome;
}

void StreamingAuctionSelector::annotate(fl::SelectionRecord& record) const {
    // Close telemetry rides the record into RoundMetrics, so a whole run's
    // close-reason mix is summarizable via RunResult::health() — the seed
    // for tuning timing.min_updates adaptively.
    record.close_reason = auction::to_string(market_->close_reason());
    record.close_time_s = market_->close_time_s();
    record.arrived_bids = market_->arrived();
    record.bid_quorum = last_quorum_;
}

auction::CloseReason StreamingAuctionSelector::last_close_reason() const {
    return market_ ? market_->close_reason() : auction::CloseReason::open;
}

std::size_t StreamingAuctionSelector::last_arrived() const {
    return market_ ? market_->arrived() : 0;
}

double StreamingAuctionSelector::last_close_time_s() const {
    return market_ ? market_->close_time_s() : 0.0;
}

std::size_t StreamingAuctionSelector::last_head_churn() const {
    return market_ ? market_->head_churn() : 0;
}

void StreamingAuctionSelector::ensure_adaptive(std::size_t population_size) {
    if (streaming_.adaptive_quorum && !adaptive_) {
        fl::AdaptiveQuorumConfig ac;
        ac.initial = streaming_.quorum;
        ac.max_quorum = population_size;
        ac.deadline_s = streaming_.deadline_s;
        adaptive_.emplace(ac);
    }
}

void StreamingAuctionSelector::restore_checkpoint(const fl::SelectorCheckpoint& ckpt) {
    MarketSelector::restore_checkpoint(ckpt);
    if (streaming_.adaptive_quorum && !ckpt.close_replay.empty()) {
        adaptive_.reset();
        ensure_adaptive(node_ids());
        for (const auto& [reason, close_time_s] : ckpt.close_replay)
            adaptive_->observe(reason, close_time_s);
        last_quorum_ = adaptive_->quorum();
    }
}

} // namespace fmore::mec
