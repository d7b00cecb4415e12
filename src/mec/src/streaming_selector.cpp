#include "fmore/mec/streaming_selector.hpp"

#include <stdexcept>
#include <string>
#include <utility>

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
    if (!(streaming_.deadline_s >= 0.0))
        throw std::invalid_argument("StreamingAuctionSelector: deadline_s = "
                                    + std::to_string(streaming_.deadline_s)
                                    + ": must be >= 0 (0 waits for every bid)");
    if (streaming_.process == ArrivalProcess::poisson
        && !(streaming_.arrival_rate_hz > 0.0))
        throw std::invalid_argument(
            "StreamingAuctionSelector: poisson arrivals need arrival_rate_hz > 0");
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

    // The arrival schedule. Poisson draws before the round is ranked (one
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

    resolve_close(arrivals->schedule());
    // The frame's active rows are now the arrived set; the walk consumed no
    // draws, so the ranking draws what the batch pass over that set draws.
    mechanism_for(k)->run_frame(scoring_, frame_, rng, scratch_, outcome_);
    if (adaptive_)
        adaptive_->observe(auction::to_string(close_.reason), close_.close_time_s);
    return outcome_;
}

void StreamingAuctionSelector::resolve_close(const std::vector<Arrival>& schedule) {
    // The schedule names every node once, in replay order. A banned row
    // never bids; the first bid strictly past the deadline closes the round
    // at the deadline; quorum is checked on each accepted bid, so it
    // outranks exhaustion when the last bid fills it; a walk that runs out
    // of bids closes exhausted at the last one.
    close_ = StreamCloseDecision{};
    std::size_t next = 0;
    for (; next < schedule.size(); ++next) {
        const Arrival& arrival = schedule[next];
        if (!frame_.active(arrival.node)) continue;
        if (streaming_.deadline_s > 0.0 && arrival.seconds > streaming_.deadline_s) {
            close_.reason = auction::CloseReason::deadline;
            close_.close_time_s = streaming_.deadline_s;
            break;
        }
        ++close_.arrived;
        close_.close_time_s = arrival.seconds;
        if (last_quorum_ > 0 && close_.arrived >= last_quorum_) {
            close_.reason = auction::CloseReason::quorum;
            ++next;
            break;
        }
    }
    for (; next < schedule.size(); ++next) frame_.set_active(schedule[next].node, false);
}

void StreamingAuctionSelector::annotate(fl::SelectionRecord& record) const {
    // Close telemetry rides the record into RoundMetrics, so a whole run's
    // close-reason mix is summarizable via RunResult::health() — the seed
    // for tuning timing.min_updates adaptively.
    record.close_reason = auction::to_string(close_.reason);
    record.close_time_s = close_.close_time_s;
    record.arrived_bids = close_.arrived;
    record.bid_quorum = last_quorum_;
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
