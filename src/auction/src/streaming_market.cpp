#include "fmore/auction/streaming_market.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <typeinfo>

namespace fmore::auction {

namespace {

using Candidate = RankScratch::Candidate;

} // namespace

const char* to_string(CloseReason reason) {
    switch (reason) {
        case CloseReason::open: return "open";
        case CloseReason::quorum: return "quorum";
        case CloseReason::deadline: return "deadline";
        case CloseReason::exhausted: return "exhausted";
    }
    return "?";
}

StreamingMarket::StreamingMarket(std::shared_ptr<const Mechanism> mechanism,
                                 const ScoringRule& scoring)
    : mechanism_(std::move(mechanism)), scoring_(scoring) {
    if (!mechanism_)
        throw std::invalid_argument("StreamingMarket: null mechanism");
    // Same exact-type dispatch as run_frame/rank_frame: the incremental
    // fast lane replicates the BASE engine's ranking only, so any subclass
    // (which may override rank/select/price) closes through its own
    // run_frame instead.
    if (typeid(*mechanism_) == typeid(ScoreAuctionMechanism))
        engine_ = static_cast<const ScoreAuctionMechanism*>(mechanism_.get());
    salted_incremental_ =
        engine_ != nullptr && engine_->spec().tie_break == TieBreak::salted;
}

void StreamingMarket::open_round(std::size_t rows, std::size_t dims,
                                 const StreamingRoundSpec& spec, stats::Rng& rng) {
    if (spec.expected_bids > rows)
        throw std::invalid_argument("StreamingMarket: expected_bids = "
                                    + std::to_string(spec.expected_bids)
                                    + " exceeds the " + std::to_string(rows)
                                    + "-row bid arena");
    if (!(spec.deadline_s >= 0.0))
        throw std::invalid_argument("StreamingMarket: deadline_s must be >= 0");
    round_ = spec;
    expected_ = spec.expected_bids == 0 ? rows : spec.expected_bids;
    arrived_ = 0;
    reason_ = CloseReason::open;
    finalized_ = false;
    close_time_s_ = 0.0;
    last_arrival_s_ = 0.0;
    head_churn_ = 0;

    frame_.reset(rows, dims);
    // reset() marks every row active (the batch collector's convention);
    // a streaming arena starts EMPTY and rows light up as bids land.
    for (NodeId row = 0; row < rows; ++row) frame_.set_active(row, false);
    frame_.set_scored(true);

    cands_.clear();
    head_.clear();
    if (salted_incremental_) {
        // The batch path's one pre-selection draw, made at open so the
        // generator stream matches run_frame's bit for bit.
        tie_keys_ = draw_tie_keys(/*salted=*/true, /*active=*/{}, rows, rng, scratch_);
        const MechanismSpec& ms = engine_->spec();
        const bool probabilistic = ms.psi < 1.0 || !ms.psi_per_node.empty();
        if (ms.full_ranking || probabilistic) {
            // The close needs the whole board anyway.
            cand_cap_ = BoundedTopK<Candidate>::kUnbounded;
        } else {
            cand_cap_ = ms.num_winners
                        + (ms.payment_rule == PaymentRule::second_price ? 1 : 0);
        }
    }
    // The churn head holds K rows when the built-in engine drives; churn
    // tracking is off otherwise.
    head_cap_ = engine_ != nullptr ? engine_->spec().num_winners : 0;
}

void StreamingMarket::track_head(const Candidate& cand) {
    // An offer that lands in a full head evicts its worst row: churn.
    BoundedTopK<Candidate> head(head_, head_cap_);
    const bool full = head.full();
    if (head.offer(cand) && full) ++head_churn_;
}

bool StreamingMarket::offer(NodeId node, const double* quality, double payment,
                            double score, double arrival_s) {
    if (closed()) return false;
    if (node >= frame_.rows())
        throw std::invalid_argument("StreamingMarket: node " + std::to_string(node)
                                    + " is outside the "
                                    + std::to_string(frame_.rows()) + "-row arena");
    if (frame_.active(node))
        throw std::invalid_argument("StreamingMarket: duplicate bid from node "
                                    + std::to_string(node));
    if (arrival_s < last_arrival_s_)
        throw std::invalid_argument(
            "StreamingMarket: the virtual clock ran backwards (arrival at "
            + std::to_string(arrival_s) + "s after "
            + std::to_string(last_arrival_s_) + "s)");
    // Strictly-later-than-the-deadline misses the round — the same rule the
    // sharded selector applies to a slow shard's head.
    if (round_.deadline_s > 0.0 && arrival_s > round_.deadline_s) {
        reason_ = CloseReason::deadline;
        close_time_s_ = round_.deadline_s;
        return false;
    }
    last_arrival_s_ = arrival_s;

    frame_.set_active(node, true);
    double* q = frame_.quality_row(node);
    for (std::size_t d = 0; d < frame_.dims(); ++d) q[d] = quality[d];
    frame_.payment(node) = payment;
    frame_.score(node) = score;
    ++arrived_;

    const Candidate cand{score, salted_incremental_ ? tie_keys_.key(node) : 0, node};
    // The same bounded top-K rank_frame's fused pass runs per chunk,
    // applied per ARRIVAL. O(log K) per bid.
    if (salted_incremental_) BoundedTopK<Candidate>(cands_, cand_cap_).offer(cand);
    track_head(cand);

    if (round_.quorum > 0 && arrived_ >= round_.quorum) {
        reason_ = CloseReason::quorum;
        close_time_s_ = arrival_s;
    } else if (arrived_ >= expected_) {
        reason_ = CloseReason::exhausted;
        close_time_s_ = arrival_s;
    }
    return true;
}

const AuctionOutcome& StreamingMarket::close_round_sharded(
    stats::Rng& rng, const std::vector<std::size_t>& shard_starts) {
    if (finalized_) return outcome_;
    if (shard_starts.empty() || shard_starts.front() != 0
        || !std::is_sorted(shard_starts.begin(), shard_starts.end())
        || shard_starts.back() > frame_.rows())
        throw std::invalid_argument(
            "StreamingMarket: shard_starts must be sorted, begin at row 0 and "
            "stay inside the bid arena");
    if (!salted_incremental_) return close_round(rng);  // batch replay is exact
    if (reason_ == CloseReason::open) {
        reason_ = CloseReason::exhausted;
        close_time_s_ = last_arrival_s_;
    }
    // Per virtual shard: the same bounded head collection the forked
    // workers run, over this shard's slice of the arrived frame; then the
    // incremental merge. Both sides of the equivalence truncate the same
    // strict total order at the same cutoff, so the ranking — and the
    // selection and pricing over it — matches close_round bit for bit.
    const std::size_t cutoff = engine_->ranking_cutoff(arrived_);
    shard_merge_.open(frame_.dims(), cutoff);
    for (std::size_t s = 0; s < shard_starts.size(); ++s) {
        const std::size_t begin = shard_starts[s];
        const std::size_t end =
            s + 1 < shard_starts.size() ? shard_starts[s + 1] : frame_.rows();
        collect_shard_head(frame_, begin, end, 0, tie_keys_, cutoff, shard_head_);
        shard_merge_.ingest(shard_head_);
    }
    shard_merge_.finish(outcome_.ranking);
    engine_->select_into(outcome_.ranking, rng, scratch_.chosen);
    engine_->price_into(scoring_, outcome_.ranking, scratch_.chosen,
                        outcome_.winners);
    finalized_ = true;
    return outcome_;
}

const AuctionOutcome& StreamingMarket::close_round(stats::Rng& rng) {
    if (finalized_) return outcome_;
    if (reason_ == CloseReason::open) {
        // Caller-initiated close with the feed dry: exhausted semantics.
        reason_ = CloseReason::exhausted;
        close_time_s_ = last_arrival_s_;
    }
    if (salted_incremental_) {
        // The arrivals already folded the board; what remains is exactly
        // the tail of rank_frame's salted lane: sort the kept candidates
        // under the market order, truncate at the engine's cutoff, and
        // materialize the head from the frame.
        BoundedTopK<Candidate>(cands_, cand_cap_).sort();
        const std::size_t top = engine_->ranking_cutoff(arrived_);
        if (cands_.size() > top) cands_.resize(top);
        const std::size_t dims = frame_.dims();
        outcome_.ranking.resize(cands_.size());
        for (std::size_t r = 0; r < cands_.size(); ++r) {
            const NodeId row = cands_[r].node;
            ScoredBid& sb = outcome_.ranking[r];
            sb.bid.node = row;
            sb.bid.quality.assign(frame_.quality_row(row),
                                  frame_.quality_row(row) + dims);
            sb.bid.payment = frame_.payment(row);
            sb.score = cands_[r].score;
        }
        engine_->select_into(outcome_.ranking, rng, scratch_.chosen);
        engine_->price_into(scoring_, outcome_.ranking, scratch_.chosen,
                            outcome_.winners);
    } else {
        // Shuffle-mode engine or a custom mechanism: the tie permutation /
        // the mechanism's own semantics are a function of the FINAL arrived
        // set, so the close replays the batch pass over the arrived frame —
        // no draws were consumed during ingestion, so the streams align.
        mechanism_->run_frame(scoring_, frame_, rng, scratch_, outcome_);
    }
    finalized_ = true;
    return outcome_;
}

} // namespace fmore::auction
