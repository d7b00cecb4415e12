#pragma once

/// @file shard_merge.hpp
/// The shard seam of the auction market: bounded per-shard ranking heads
/// and their deterministic merge. A market of N bidders split into S
/// contiguous shards runs the fused score+top-K pass per shard and ships
/// only each shard's HEAD — at most `cutoff` rows of
/// (node, score, key, payment) plus the head rows' quality vectors — to
/// the coordinator. Because every shard orders candidates under the SAME
/// `MarketOrder` the monolithic pass uses (score desc, tie key asc, node
/// asc), the union of per-shard heads provably contains the global top
/// `cutoff`, and the head merge — keep the best `cutoff` rows of the union,
/// sort them — reproduces the monolithic ranking head bit-identically.
///
/// Tie keys come in the two `TieBreak` flavours: a pointer into the
/// coordinator's global shuffled-position table (`TieBreak::shuffle`, the
/// in-process sharded lane) or an 8-byte round salt hashed with the global
/// NodeId (`TieBreak::salted`, what the multi-process aggregator ships
/// over its pipes instead of an O(N) permutation).

#include <cstdint>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/market_order.hpp"
#include "fmore/auction/types.hpp"

namespace fmore::auction {

/// One ranked row of a shard head. `node` is the GLOBAL id — shards report
/// in market coordinates, so heads from different shards merge directly.
struct HeadRow {
    NodeId node = 0;
    double score = 0.0;
    std::uint64_t key = 0;  ///< tie-break key under the round's TieBreak mode
    double payment = 0.0;   ///< the bid's asked payment
};

/// A shard's contribution to one round: its top rows under the market
/// order plus those rows' declared quality vectors (row-major, `dims`
/// doubles per head row — needed to materialize winners' bids and the
/// contracted data volume). This is the ONLY per-round payload a shard
/// ships; its size is bounded by the ranking cutoff, not the shard size.
struct ShardHead {
    std::size_t dims = 0;
    std::vector<HeadRow> rows;     ///< sorted best-first
    std::vector<double> quality;   ///< rows.size() × dims, row-major

    void clear() {
        dims = 0;
        rows.clear();
        quality.clear();
    }
    [[nodiscard]] const double* quality_row(std::size_t r) const {
        return quality.data() + r * dims;
    }

    /// Append the wire form to `out`: row count, dims, the HeadRow array,
    /// the quality buffer — fixed-width little-endian fields, no padding
    /// assumptions. `deserialize` round-trips exactly.
    void serialize(std::vector<std::uint8_t>& out) const;
    /// @throws std::invalid_argument on truncated or inconsistent bytes
    [[nodiscard]] static ShardHead deserialize(const std::uint8_t* data,
                                               std::size_t size);
};

/// Fused score + bounded top-`limit` pass over one shard's collected
/// frame (local rows, `frame.scored()` required): the shard-side half of a
/// market that already holds its bids in a frame (the streaming close). A
/// shard that quotes straight from a store uses `mec::collect_head_rows`,
/// which builds the same head with no frame. Writes at most `limit` rows
/// into `out`, sorted best-first under the market order, nodes translated
/// to global ids via `node_offset`. `limit` must be the GLOBAL ranking
/// cutoff (or the shard active count if smaller): any row in the global
/// top-cutoff is in its own shard's top-cutoff, so the union of such heads
/// always contains the global head.
/// @throws std::logic_error when the frame's score column is not filled
void collect_shard_head(const BidFrame& frame, std::size_t node_offset,
                        const TieKeys& keys, std::size_t limit, ShardHead& out);

/// Row-range variant: the shard is rows `[begin_row, end_row)` of a frame
/// that holds the WHOLE market (the in-process sharded-streaming lane,
/// where one arrived frame is carved into virtual shards). Global ids are
/// `node_offset + row` exactly as above, so the two overloads produce the
/// same head for the same rows.
void collect_shard_head(const BidFrame& frame, std::size_t begin_row,
                        std::size_t end_row, std::size_t node_offset,
                        const TieKeys& keys, std::size_t limit, ShardHead& out);

/// The coordinator's head merge, fed shard heads (or single head rows) ONE
/// AT A TIME as their streams complete: each row folds into a
/// `BoundedTopK` of at most `cutoff` rows — O(log cutoff) per row — with
/// the kept rows' quality vectors parked in a slot-reusing arena. The kept
/// set is the global top-`cutoff` of everything ingested under the strict
/// total order, so any ingestion order (row-by-row, chunked, whole heads,
/// interleaved across shards) finishes bit-identically. This is how the
/// sharded market gets streaming close for free — each `ShardHead` stream
/// feeds the merge as it lands instead of waiting for the full set.
class StreamingHeadMerge {
public:
    /// Start a merge round: `cutoff` is the global ranking cutoff, `dims`
    /// the quality dimensionality of the incoming heads.
    void open(std::size_t dims, std::size_t cutoff);

    /// Fold one shard's head into the running merge.
    /// @throws std::invalid_argument on a dimensionality mismatch
    void ingest(const ShardHead& head);

    /// Fold ONE head row (with its `dims`-wide quality vector) into the
    /// running merge; `ingest` feeds a whole head through it row by row.
    void ingest_row(const HeadRow& row, const double* quality);

    /// True when no row scoring `score` can enter: the merge is full and
    /// `score` is below its worst kept row's. The order compares scores
    /// first, so a caller may skip deriving such a row's tie key. A score
    /// tying the worst's, or NaN on either side, reads false and takes the
    /// full comparison in `admit_row`.
    [[nodiscard]] bool rejects_score(double score) const {
        return heap_.size() >= cutoff_ && (cutoff_ == 0 || score < heap_.front().score);
    }

    /// `ingest_row` without the copy: keep `row` if it ranks within the
    /// cutoff and return the arena slot its `dims` quality values must be
    /// written to, or null when it does not enter. A producer that holds a
    /// row's quality in another layout writes it once, and only for rows
    /// the merge keeps.
    [[nodiscard]] double* admit_row(const HeadRow& row);

    /// Heads ingested so far this round (`ingest` calls; `ingest_row` does
    /// not bump this — callers count their own streams).
    [[nodiscard]] std::size_t ingested() const { return ingested_; }

    /// Sort the surviving rows under the market order and materialize the
    /// merged ranking.
    void finish(std::vector<ScoredBid>& ranking);

    /// Sort the surviving rows under the market order into `head`: the
    /// rows best-first with their quality vectors, `dims` as opened. Reuses
    /// `head`'s buffers.
    void finish(ShardHead& head);

private:
    struct Slot : HeadRow {
        std::uint32_t arena = 0;  ///< index of this row's quality vector
    };

    std::size_t dims_ = 0;
    std::size_t cutoff_ = 0;
    std::size_t ingested_ = 0;
    std::vector<Slot> heap_;
    std::vector<double> arena_;  ///< one dims-wide slot per kept row
};

/// The whole merge in one call: open, ingest every head, finish.
/// Bit-identical to the monolithic fused ranking head when every shard
/// reported (see collect_shard_head's containment argument); with dropped
/// shards it is the exact market over the responsive ones.
/// @throws std::invalid_argument when non-empty heads disagree on dims
void merge_heads(const std::vector<ShardHead>& heads, std::size_t cutoff,
                 std::vector<ScoredBid>& ranking);

/// The same merge folded into `merge`, which the caller owns and reuses
/// round after round, so a warm merge allocates nothing.
/// @throws std::invalid_argument when non-empty heads disagree on dims
void merge_heads(const std::vector<ShardHead>& heads, std::size_t cutoff,
                 StreamingHeadMerge& merge, std::vector<ScoredBid>& ranking);

} // namespace fmore::auction
