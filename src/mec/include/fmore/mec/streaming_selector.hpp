#pragma once

/// @file streaming_selector.hpp
/// The streaming marketplace as a client selector: FMore's bid-ask /
/// bid-collection / winner-determination loop where the aggregator "waits
/// a given time interval" for sealed bids (Section III.A steps 2-3) on the
/// virtual clock an `ArrivalModel` supplies. It is one round on the market
/// shell `MarketSelector` (auction_selector.hpp): the shell's frame collect
/// quotes every node, one walk of the arrival schedule resolves the close
/// (`deadline_s` expiry, `quorum` arrivals or the last bid, whichever comes
/// first) and deactivates every row that missed it, and the mechanism's
/// `run_frame` ranks the rows that arrived, the same call the batch
/// `AuctionSelector` makes. The emitted `SelectionRecord` is therefore the
/// batch market's over the arrived set, bit for bit. The walk keeps the
/// trigger semantics of `auction::StreamingMarket`, the per-bid ingestion
/// service; streaming_equivalence_test replays the selector's rounds
/// through one. Because this is an `fl::ClientSelector`, the closed rounds
/// feed `fl::Coordinator` and `fl::AsyncCoordinator` unchanged — streaming
/// selection composes with sync, semi_sync and async training.

#include <cstddef>
#include <optional>
#include <vector>

#include "fmore/fl/adaptive_quorum.hpp"
#include "fmore/mec/arrival_model.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/stream_round.hpp"

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
    /// Read by nothing: the round ranks its arrived set in the shell's one
    /// frame, and any value closes it as 1 does. It stays only while
    /// perfbench's `stream_1m` lane assigns it; a sharded streaming close
    /// is the cross-process `ProcessShardAggregator`'s.
    std::size_t shards = 1;
    /// Tune the bid quorum per round with an `fl::AdaptiveQuorumController`
    /// seeded from `quorum` (`timing.adaptive_quorum`): the running
    /// close-reason mix and close-time tail move the target under a
    /// bounded step, so the schedule replays deterministically.
    bool adaptive_quorum = false;
};

/// Streaming twin of `AuctionSelector` on the same market shell. Under
/// `ArrivalProcess::latency` the selector consumes exactly the generator
/// stream the batch selector would, so a deadline-free, quorum-free
/// streaming round reproduces the batch round bit for bit — the invariant
/// streaming_equivalence_test pins.
class StreamingAuctionSelector final : public MarketSelector {
public:
    /// @throws std::invalid_argument when `check_bid_layout` rejects the
    ///         layout, strategy and rule, or on an unusable `streaming`: a
    ///         negative or NaN deadline, Poisson arrivals without a positive
    ///         rate, or an adaptive quorum with no starting quorum
    StreamingAuctionSelector(MecPopulation& population,
                             const auction::ScoringRule& scoring,
                             const auction::EquilibriumStrategy& strategy,
                             auction::WinnerDeterminationConfig wd_config,
                             QualityLayout layout, std::size_t data_dimension,
                             StreamingRoundConfig streaming,
                             auction::PaymentMethod payment_method =
                                 auction::PaymentMethod::integral);

    [[nodiscard]] std::string name() const override { return "FMore-stream"; }

    /// Run one streaming auction round (collect, close on the arrival
    /// schedule, rank the arrived rows) without assembling a selection
    /// record.
    [[nodiscard]] const auction::AuctionOutcome& run_auction_round(std::size_t round,
                                                                   std::size_t k,
                                                                   stats::Rng& rng) override;

    /// Why the last round stopped accepting bids (`open` before the first).
    [[nodiscard]] auction::CloseReason last_close_reason() const { return close_.reason; }
    /// Bids that made it into the last round.
    [[nodiscard]] std::size_t last_arrived() const { return close_.arrived; }
    /// Virtual time at which the last round closed.
    [[nodiscard]] double last_close_time_s() const { return close_.close_time_s; }
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

    /// Durable-run hooks: bans (the shell's) plus — under `adaptive_quorum`
    /// — the close telemetry replay that reconstructs the controller's
    /// schedule state (the controller is a pure function of its observation
    /// sequence, so replaying the tape restores it exactly). The replay is
    /// not saved here: the trial rebuilds it from the checkpointed metrics
    /// tape, where every closed round's reason and time already ride its
    /// SelectionRecord.
    /// @throws std::invalid_argument on a banned id outside the population
    void restore_checkpoint(const fl::SelectorCheckpoint& ckpt) override;

private:
    void ensure_adaptive(std::size_t population_size);
    /// Resolve the round's close in one walk of `schedule` over the frame
    /// and deactivate every row that missed it.
    void resolve_close(const std::vector<Arrival>& schedule);
    /// The close telemetry: reason, time, arrivals and opening quorum.
    void annotate(fl::SelectionRecord& record) const override;

    StreamingRoundConfig streaming_;
    /// Closed-loop schedules do not change between rounds; built once.
    std::optional<ArrivalModel> latency_arrivals_;
    std::optional<fl::AdaptiveQuorumController> adaptive_;
    std::size_t last_quorum_ = 0;
    StreamCloseDecision close_{auction::CloseReason::open};
};

} // namespace fmore::mec
