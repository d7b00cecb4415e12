#pragma once

/// @file streaming_selector.hpp
/// The streaming marketplace as a client selector: FMore's bid-ask /
/// bid-collection / winner-determination loop where the collection step is
/// a LIVE ARRIVAL FEED instead of a batch. Bids are collected through the
/// same fused `collect_bid_rows` pass, then replayed one at a time into an
/// `auction::StreamingMarket` on the virtual clock an `ArrivalModel`
/// supplies; the round closes on `deadline_s` expiry or `quorum` arrivals,
/// whichever fires first, and the emitted `SelectionRecord` over the
/// arrived set is bit-identical to the batch `AuctionSelector` over that
/// same set. Because this is an `fl::ClientSelector`, the closed rounds
/// feed `fl::Coordinator` and `fl::AsyncCoordinator` unchanged — streaming
/// selection composes with sync, semi_sync and async training.

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "fmore/auction/streaming_market.hpp"
#include "fmore/fl/adaptive_quorum.hpp"
#include "fmore/mec/arrival_model.hpp"
#include "fmore/mec/auction_selector.hpp"

namespace fmore::mec {

/// Per-round close policy + arrival process of a streaming selector.
struct StreamingRoundConfig {
    /// Virtual-clock bid deadline in seconds (`timing.round_deadline_s`);
    /// 0 waits for every bid.
    double deadline_s = 0.0;
    /// Close after this many arrivals (`timing.min_updates` as a bid
    /// quorum); 0 disables. Counts ARRIVED BIDS, so it may exceed K.
    std::size_t quorum = 0;
    ArrivalProcess process = ArrivalProcess::latency;
    /// Poisson arrival rate (bids/second of virtual time); used only by
    /// `ArrivalProcess::poisson`.
    double arrival_rate_hz = 0.0;
    /// Closed-loop per-node bid latencies (`ArrivalProcess::latency`),
    /// indexed by NodeId; missing entries arrive at t = 0. Typically
    /// `ClusterTimeModel::latency_factor(i) * auction_overhead_s`.
    std::vector<double> bid_latencies_s;
    /// Market shards (`auction.shards`): > 1 closes each round through
    /// `StreamingMarket::close_round_sharded` — the arrived frame is
    /// carved at `PopulationStore::even_boundaries` cuts, per-shard heads
    /// fold through a `StreamingHeadMerge`, and the outcome is
    /// bit-identical to the monolithic close (the same composition the
    /// cross-process `ProcessShardAggregator` streams over its pipes).
    std::size_t shards = 1;
    /// Tune the bid quorum per round with an `fl::AdaptiveQuorumController`
    /// seeded from `quorum` (`timing.adaptive_quorum`): the running
    /// close-reason mix and close-time tail move the target under a
    /// bounded step, so the schedule replays deterministically.
    bool adaptive_quorum = false;
};

/// Streaming twin of `AuctionSelector` (same construction surface, same
/// compliance/blacklist semantics), driving an `auction::StreamingMarket`
/// per round. Under `ArrivalProcess::latency` the selector consumes exactly
/// the generator stream the batch selector would, so a deadline-free,
/// quorum-free streaming round reproduces the batch round bit for bit —
/// the invariant streaming_equivalence_test pins.
class StreamingAuctionSelector final : public fl::ClientSelector {
public:
    StreamingAuctionSelector(MecPopulation& population,
                             const auction::ScoringRule& scoring,
                             const auction::EquilibriumStrategy& strategy,
                             auction::WinnerDeterminationConfig wd_config,
                             QualityLayout layout, std::size_t data_dimension,
                             StreamingRoundConfig streaming,
                             auction::PaymentMethod payment_method =
                                 auction::PaymentMethod::integral);

    [[nodiscard]] fl::SelectionRecord select(std::size_t round, std::size_t k,
                                             stats::Rng& rng) override;
    [[nodiscard]] std::string name() const override { return "FMore-stream"; }
    [[nodiscard]] bool contracts_data_volume() const override {
        return data_dimension_ != npos;
    }

    /// Run one streaming auction round (collect, replay arrivals, close)
    /// without assembling a selection record.
    const auction::AuctionOutcome& run_auction_round(std::size_t round, std::size_t k,
                                                     stats::Rng& rng);

    /// Why the last round stopped accepting bids.
    [[nodiscard]] auction::CloseReason last_close_reason() const;
    /// Bids that made it into the last round.
    [[nodiscard]] std::size_t last_arrived() const;
    /// Virtual time at which the last round closed.
    [[nodiscard]] double last_close_time_s() const;
    /// Top-K evictions during the last round's ingestion.
    [[nodiscard]] std::size_t last_head_churn() const;
    /// Bid quorum the last round opened with (== the config's quorum when
    /// the adaptive controller is off).
    [[nodiscard]] std::size_t last_quorum() const { return last_quorum_; }
    /// The adaptive controller's quorum schedule so far (one entry per
    /// closed round, the quorum the NEXT round opens with); empty when
    /// `adaptive_quorum` is off. A pure function of the close telemetry —
    /// byte-identical across replays of the same run.
    [[nodiscard]] std::vector<std::size_t> quorum_schedule() const {
        return adaptive_ ? adaptive_->schedule() : std::vector<std::size_t>{};
    }

    void set_compliance(const ComplianceSpec& spec) { compliance_ = spec; }
    [[nodiscard]] const Blacklist& blacklist() const { return blacklist_; }

    /// Durable-run hooks: bans plus — under `adaptive_quorum` — the close
    /// telemetry replay that reconstructs the controller's schedule state
    /// (the controller is a pure function of its observation sequence, so
    /// replaying the tape restores it exactly).
    void save_checkpoint(fl::SelectorCheckpoint& ckpt) const override;
    /// @throws std::invalid_argument on a banned id outside the population
    void restore_checkpoint(const fl::SelectorCheckpoint& ckpt) override;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

private:
    void ensure_market(std::size_t k);
    void ensure_adaptive(std::size_t population_size);

    MecPopulation& population_;
    const auction::ScoringRule& scoring_;
    const auction::EquilibriumStrategy& strategy_;
    auction::WinnerDeterminationConfig wd_config_;
    QualityLayout layout_;
    std::size_t data_dimension_;
    StreamingRoundConfig streaming_;
    auction::PaymentMethod payment_method_;
    bool strategy_scores_broadcast_rule_ = false;

    ComplianceSpec compliance_;
    Blacklist blacklist_;

    /// Batch-collected bids awaiting their arrival times; the market's own
    /// frame holds the arrived subset.
    auction::BidFrame staging_;
    std::vector<const double*> columns_;
    std::unique_ptr<auction::StreamingMarket> market_;
    std::size_t market_k_ = 0;
    /// Closed-loop schedules do not change between rounds; built once.
    std::optional<ArrivalModel> latency_arrivals_;
    /// Virtual-shard cut points of the sharded close (shards > 1).
    std::vector<std::size_t> shard_starts_;
    std::optional<fl::AdaptiveQuorumController> adaptive_;
    std::size_t last_quorum_ = 0;
};

} // namespace fmore::mec
