#pragma once

/// @file streaming_market.hpp
/// The auction as a long-lived service: bids arrive ONE AT A TIME on a
/// virtual clock instead of as a round batch, a running top-K is folded
/// incrementally — O(log K) per arrival in the same `BoundedTopK`
/// `rank_frame` uses, under the same `MarketOrder` — and the round closes
/// on deadline expiry OR quorum, whichever fires first. The paper's
/// aggregator "waits a given time interval" for sealed bids (Section III.A
/// step 2); this subsystem is that wait made explicit, with the
/// service-style close semantics of Cao et al.
/// (arXiv:2509.10512) and Le et al. (arXiv:2009.10269).
///
/// The load-bearing invariant: closing a streaming round emits winners,
/// payments and a ranking head BIT-IDENTICAL to the batch
/// `Mechanism::run_frame` over the same arrived set. Under
/// `TieBreak::salted` the tie salt is drawn when the round OPENS (the batch
/// path's first and only pre-selection draw, so the generator streams
/// align) and every arrival folds into the running head immediately; under
/// `TieBreak::shuffle` the coin-flip permutation is a function of the final
/// arrived set, so the close replays the batch pass over the arrived frame
/// — same draws, same order, same bits. Custom mechanisms (any type other
/// than the exact built-in engine) also close through `run_frame`, which
/// routes through their own overrides — the equivalence holds for EVERY
/// registered mechanism, not just the built-ins
/// (streaming_equivalence_test).
///
/// No production path runs `StreamingMarket`: in a trial,
/// `mec::StreamingAuctionSelector` resolves the same close in one walk of
/// its arrival schedule and ranks the arrived rows in place, and the
/// equivalence suite replays its rounds through this class. The streaming
/// bench and perfbench's `stream_1m` twin drive it too; the twin is why it
/// is still in the library and not in `fmore_reference`.

#include <cstdint>
#include <memory>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/market_order.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/types.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {

/// Why a streaming round stopped accepting bids.
enum class CloseReason : std::uint8_t {
    open,       ///< still accepting bids
    quorum,     ///< the configured arrival quorum was reached
    deadline,   ///< a bid arrived past the deadline (closed at the deadline)
    exhausted,  ///< every expected bid arrived before either trigger
};

[[nodiscard]] const char* to_string(CloseReason reason);

/// Close policy of one streaming round. Zero disables a trigger; with both
/// disabled the round closes when `expected_bids` have arrived (or when the
/// caller closes it explicitly).
struct StreamingRoundSpec {
    /// Virtual-clock deadline in seconds. A bid whose arrival time is
    /// strictly later misses the round and closes it — the same "strictly
    /// later than the timeout" rule the sharded selector applies to slow
    /// shards.
    double deadline_s = 0.0;
    /// Close as soon as this many bids have arrived (`timing.min_updates`
    /// in spec terms: a quorum over ARRIVED BIDS, so it may legitimately
    /// exceed K).
    std::size_t quorum = 0;
    /// Number of bids that will be offered this round; 0 means one per
    /// frame row. Reaching it closes the round as `exhausted`.
    std::size_t expected_bids = 0;
};

/// Long-lived ingestion service over one mechanism: open a round, offer
/// bids as they arrive, close on deadline/quorum/exhaustion. Internal
/// buffers (frame, candidate heaps, scratch) are reused across rounds, so a
/// steady-state round allocates nothing — the same discipline as the fused
/// batch path.
class StreamingMarket {
public:
    /// @throws std::invalid_argument on a null mechanism
    StreamingMarket(std::shared_ptr<const Mechanism> mechanism,
                    const ScoringRule& scoring);

    /// Start a round over a bid arena of `rows` node slots × `dims` quality
    /// dimensions. Under `TieBreak::salted` (built-in engine) this draws
    /// the round's tie salt from `rng` — exactly the one draw batch
    /// `rank_frame` makes before selection, so a streaming round and a
    /// batch round consume identical generator streams.
    void open_round(std::size_t rows, std::size_t dims,
                    const StreamingRoundSpec& spec, stats::Rng& rng);

    /// Offer one sealed bid at virtual time `arrival_s`. Returns true when
    /// the bid was accepted into the round; false when the round is already
    /// closed or the bid misses the deadline (which closes the round).
    /// Arrival times must be non-decreasing — the virtual clock only runs
    /// forward.
    /// @throws std::invalid_argument on an out-of-range node, a duplicate
    ///         bid for a node, or a clock that runs backwards
    bool offer(NodeId node, const double* quality, double payment, double score,
               double arrival_s);

    [[nodiscard]] bool closed() const { return reason_ != CloseReason::open; }
    [[nodiscard]] CloseReason close_reason() const { return reason_; }
    /// Bids accepted into the current round so far.
    [[nodiscard]] std::size_t arrived() const { return arrived_; }
    [[nodiscard]] std::size_t expected() const { return expected_; }
    /// Virtual time at which the round closed (deadline value for deadline
    /// closes, the closing bid's arrival time otherwise).
    [[nodiscard]] double close_time_s() const { return close_time_s_; }
    /// Evictions from the live provisional head after it first filled — how
    /// much the top-K actually moved during ingestion.
    [[nodiscard]] std::size_t head_churn() const { return head_churn_; }

    /// Finalize the round: selection and pricing over the arrived set,
    /// bit-identical to batch `Mechanism::run_frame` over the same frame.
    /// A still-open round is closed as `exhausted` first. Idempotent —
    /// calling again returns the finalized outcome without consuming `rng`.
    const AuctionOutcome& close_round(stats::Rng& rng);

    [[nodiscard]] const AuctionOutcome& outcome() const { return outcome_; }
    /// The arrived set as a frame (active rows = accepted bids).
    [[nodiscard]] const BidFrame& frame() const { return frame_; }
    [[nodiscard]] const Mechanism& mechanism() const { return *mechanism_; }

private:
    void track_head(const RankScratch::Candidate& cand);

    std::shared_ptr<const Mechanism> mechanism_;
    const ScoringRule& scoring_;
    /// Non-null only for the EXACT built-in engine type — the same
    /// dispatch rule `run_frame` uses, so subclass overrides are never
    /// bypassed.
    const ScoreAuctionMechanism* engine_ = nullptr;
    bool salted_incremental_ = false;

    BidFrame frame_;
    RankScratch scratch_;
    AuctionOutcome outcome_;

    StreamingRoundSpec round_;
    std::size_t expected_ = 0;
    std::size_t arrived_ = 0;
    CloseReason reason_ = CloseReason::exhausted;
    bool finalized_ = true;
    double close_time_s_ = 0.0;
    double last_arrival_s_ = 0.0;
    TieKeys tie_keys_;  ///< salted lane: the round's salt, drawn at open

    /// Candidate store of the salted incremental lane: unbounded when the
    /// spec needs the full board (full_ranking / psi scans), else the best
    /// `cand_cap_` under the market order — O(log K) per arrival.
    std::vector<RankScratch::Candidate> cands_;
    std::size_t cand_cap_ = 0;

    /// Live provisional head for churn statistics (display only; the close
    /// recomputes nothing from it).
    std::vector<RankScratch::Candidate> head_;
    std::size_t head_cap_ = 0;
    std::size_t head_churn_ = 0;
};

} // namespace fmore::auction
