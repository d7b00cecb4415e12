#pragma once

/// @file bid_frame.hpp
/// The flat, reusable arena of one round's sealed bids. At million-node
/// scale the classic `std::vector<Bid>` round costs two heap allocations
/// per bidder per round (one QualityVector per bid, again per ScoredBid);
/// a `BidFrame` instead keeps all N×d declared qualities in one contiguous
/// buffer and all N asked payments in another, both reused across rounds —
/// after the first round the bid-collection path performs zero steady-state
/// allocations. Row index == NodeId, so population stores write bids
/// straight into their row; an `active` flag per row replaces skip-by-
/// omission (blacklisted nodes stay addressable but never rank).
///
/// `to_bids` / `from_bids` adapt between the frame and the classic bid
/// list, which keeps every `Mechanism` — including custom registrations
/// that only implement the vector API — usable on frame-collected rounds.

#include <cstdint>
#include <vector>

#include "fmore/auction/types.hpp"

namespace fmore::auction {

class BidFrame {
public:
    BidFrame() = default;
    BidFrame(std::size_t rows, std::size_t dims) { reset(rows, dims); }

    /// Size the arena for `rows` bidders of `dims` quality dimensions and
    /// mark every row active. Buffers grow but never shrink, so a frame
    /// reused across rounds reaches an allocation-free steady state.
    /// Quality/payment cells are left as-is: the collect pass overwrites
    /// every active row and inactive rows are never read.
    void reset(std::size_t rows, std::size_t dims);

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t dims() const { return dims_; }

    [[nodiscard]] double* quality_row(NodeId node) {
        return quality_.data() + node * dims_;
    }
    [[nodiscard]] const double* quality_row(NodeId node) const {
        return quality_.data() + node * dims_;
    }
    [[nodiscard]] double& payment(NodeId node) { return payment_[node]; }
    [[nodiscard]] double payment(NodeId node) const { return payment_[node]; }

    void set_active(NodeId node, bool active) { active_[node] = active ? 1 : 0; }
    [[nodiscard]] bool active(NodeId node) const { return active_[node] != 0; }
    /// Number of active rows (O(rows) scan).
    [[nodiscard]] std::size_t active_count() const;

    /// Optional aggregator score column S(q, p), filled by a collector that
    /// already has each row's quality in registers (the fully fused
    /// pipeline). When present (`scored()`), `Mechanism::rank_frame` streams
    /// this column instead of re-reading N×d qualities in ranking order.
    /// Values must equal `ScoringRule::score_span` on the row — same
    /// arithmetic, so downstream results are bit-identical either way.
    [[nodiscard]] double& score(NodeId node) { return score_[node]; }
    [[nodiscard]] double score(NodeId node) const { return score_[node]; }
    void set_scored(bool scored) { scored_ = scored; }
    [[nodiscard]] bool scored() const { return scored_; }

    /// Materialize the active rows, in node order, as classic sealed bids.
    /// `out` is reused: element QualityVectors keep their capacity, so
    /// repeated calls over a same-shape frame do not allocate.
    void to_bids(std::vector<Bid>& out) const;

    /// Load a classic bid list: rows = max NodeId + 1, rows without a bid
    /// inactive. Round-trips with `to_bids` exactly.
    /// @throws std::invalid_argument on inconsistent quality dimensions or
    ///         duplicate NodeIds
    void from_bids(const std::vector<Bid>& bids);

private:
    std::size_t rows_ = 0;
    std::size_t dims_ = 0;
    std::vector<double> quality_;  ///< rows × dims, row-major
    std::vector<double> payment_;  ///< rows
    std::vector<double> score_;    ///< rows; meaningful only when scored_
    std::vector<std::uint8_t> active_;
    bool scored_ = false;
};

/// Reusable working memory of `Mechanism::rank_frame` and of the round's
/// coin flip (`draw_tie_keys`). Owned by the caller (one per selector), so
/// repeated rounds touch no allocator.
struct RankScratch {
    /// One ranking candidate: the bid's score, its coin-flip tie-break key
    /// (the shuffled scan position, or a salt-derived per-node hash in
    /// `TieBreak::salted` mode) and the row it names, ranked under
    /// `MarketOrder` — in shuffle mode keys are unique so the node clause
    /// never fires, in salted mode it breaks the measure-zero hash
    /// collision.
    struct Candidate {
        double score = 0.0;
        std::uint64_t key = 0;
        NodeId node = 0;
    };

    std::vector<std::size_t> active;   ///< active rows in ascending node order
    std::vector<std::size_t> order;    ///< the same rows, coin-flip shuffled
    std::vector<std::uint32_t> pos;    ///< row id -> shuffled position
    std::vector<std::vector<Candidate>> slot_heads; ///< per-worker bounded top-K
    std::vector<Candidate> merged;
    std::vector<std::size_t> chosen;   ///< selected ranking indices
    std::vector<Bid> bids;             ///< vector-API adapter buffer
};

} // namespace fmore::auction
