#include "fmore/auction/shard_merge.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace fmore::auction {

namespace {

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& value) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T get(const std::uint8_t* data, std::size_t size, std::size_t& at) {
    if (at + sizeof(T) > size)
        throw std::invalid_argument("ShardHead::deserialize: truncated payload");
    T value;
    std::memcpy(&value, data + at, sizeof(T));
    at += sizeof(T);
    return value;
}

} // namespace

void ShardHead::serialize(std::vector<std::uint8_t>& out) const {
    put<std::uint64_t>(out, rows.size());
    put<std::uint64_t>(out, dims);
    for (const HeadRow& row : rows) {
        put<std::uint64_t>(out, row.node);
        put<double>(out, row.score);
        put<std::uint64_t>(out, row.key);
        put<double>(out, row.payment);
    }
    for (const double q : quality) put<double>(out, q);
}

ShardHead ShardHead::deserialize(const std::uint8_t* data, std::size_t size) {
    // The header's two counts decide how much is read and reserved, so
    // both are checked against the payload before either is trusted: the
    // rows must fit, and the rest must be exactly rows × dims doubles. The
    // division form cannot overflow, however large the declared counts.
    constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint64_t);
    constexpr std::size_t kRowBytes = 4 * sizeof(std::uint64_t);
    std::size_t at = 0;
    ShardHead head;
    const std::uint64_t count = get<std::uint64_t>(data, size, at);
    const std::uint64_t dims = get<std::uint64_t>(data, size, at);
    if (count > (size - kHeaderBytes) / kRowBytes)
        throw std::invalid_argument("ShardHead::deserialize: row count "
                                    + std::to_string(count) + " does not fit the "
                                    + std::to_string(size) + "-byte payload");
    const std::uint64_t quality_bytes = size - kHeaderBytes - count * kRowBytes;
    const std::uint64_t row_quality_bytes = count * sizeof(double);
    const bool exact = count == 0 ? quality_bytes == 0
                                  : quality_bytes % row_quality_bytes == 0
                                        && quality_bytes / row_quality_bytes == dims;
    if (!exact)
        throw std::invalid_argument("ShardHead::deserialize: dims " + std::to_string(dims)
                                    + " over " + std::to_string(count)
                                    + " rows does not match the " + std::to_string(size)
                                    + "-byte payload");
    const std::uint64_t cells = quality_bytes / sizeof(double);
    head.dims = static_cast<std::size_t>(dims);
    head.rows.reserve(count);
    for (std::uint64_t r = 0; r < count; ++r) {
        HeadRow row;
        row.node = static_cast<NodeId>(get<std::uint64_t>(data, size, at));
        row.score = get<double>(data, size, at);
        row.key = get<std::uint64_t>(data, size, at);
        row.payment = get<double>(data, size, at);
        head.rows.push_back(row);
    }
    head.quality.reserve(cells);
    for (std::uint64_t q = 0; q < cells; ++q)
        head.quality.push_back(get<double>(data, size, at));
    return head;
}

void collect_shard_head(const BidFrame& frame, std::size_t node_offset,
                        const TieKeys& keys, std::size_t limit, ShardHead& out) {
    collect_shard_head(frame, 0, frame.rows(), node_offset, keys, limit, out);
}

void collect_shard_head(const BidFrame& frame, std::size_t begin_row,
                        std::size_t end_row, std::size_t node_offset,
                        const TieKeys& keys, std::size_t limit, ShardHead& out) {
    if (!frame.scored())
        throw std::logic_error(
            "collect_shard_head: frame must carry the aggregator score column");
    out.clear();
    out.dims = frame.dims();
    if (limit == 0) return;

    // Once the top-K is full, a row scoring below its worst cannot enter,
    // because the order compares scores first; such a row is skipped before
    // its tie key is derived (a splitmix finalize in salted mode). Rows
    // tying the worst's score, and NaN on either side, take the full
    // comparison, so the head is the one an eager-key loop keeps.
    out.rows.reserve(std::min(limit, end_row - begin_row));
    BoundedTopK<HeadRow> heap(out.rows, limit);
    for (NodeId row = begin_row; row < end_row; ++row) {
        if (!frame.active(row)) continue;
        const double score = frame.score(row);
        if (heap.full() && score < heap.worst().score) continue;
        const NodeId global = node_offset + row;
        heap.offer(HeadRow{global, score, keys.key(global), frame.payment(row)});
    }
    heap.sort();

    // Quality vectors of the kept rows only — the payload stays O(limit·d)
    // no matter how large the shard is.
    out.quality.resize(out.rows.size() * out.dims);
    for (std::size_t r = 0; r < out.rows.size(); ++r) {
        const NodeId local = out.rows[r].node - node_offset;
        const double* q = frame.quality_row(local);
        std::copy(q, q + out.dims, out.quality.begin() + r * out.dims);
    }
}

void StreamingHeadMerge::open(std::size_t dims, std::size_t cutoff) {
    dims_ = dims;
    cutoff_ = cutoff;
    ingested_ = 0;
    heap_.clear();
    heap_.reserve(cutoff);
    arena_.resize(cutoff * dims);
}

void StreamingHeadMerge::ingest(const ShardHead& head) {
    if (!head.rows.empty() && head.dims != dims_)
        throw std::invalid_argument("StreamingHeadMerge: head dims = "
                                    + std::to_string(head.dims) + ", expected "
                                    + std::to_string(dims_));
    for (std::size_t r = 0; r < head.rows.size(); ++r)
        ingest_row(head.rows[r], head.quality_row(r));
    ++ingested_;
}

void StreamingHeadMerge::ingest_row(const HeadRow& row, const double* quality) {
    if (double* slot = admit_row(row)) std::copy(quality, quality + dims_, slot);
}

double* StreamingHeadMerge::admit_row(const HeadRow& row) {
    BoundedTopK<Slot> heap(heap_, cutoff_);
    if (!heap.admits(row)) return nullptr;
    // A newcomer to a full merge parks its quality in the arena slot of the
    // row it evicts, so the arena never holds more than `cutoff` rows.
    const std::size_t slot = heap.full() ? heap.worst().arena : heap_.size();
    heap.push(Slot{row, static_cast<std::uint32_t>(slot)});
    return arena_.data() + slot * dims_;
}

void StreamingHeadMerge::finish(std::vector<ScoredBid>& ranking) {
    BoundedTopK<Slot>(heap_, cutoff_).sort();
    ranking.resize(heap_.size());
    for (std::size_t r = 0; r < heap_.size(); ++r) {
        const double* q = arena_.data() + heap_[r].arena * dims_;
        ScoredBid& sb = ranking[r];
        sb.bid.node = heap_[r].node;
        sb.bid.quality.assign(q, q + dims_);
        sb.bid.payment = heap_[r].payment;
        sb.score = heap_[r].score;
    }
}

void StreamingHeadMerge::finish(ShardHead& head) {
    BoundedTopK<Slot>(heap_, cutoff_).sort();
    head.dims = dims_;
    head.rows.assign(heap_.begin(), heap_.end());
    head.quality.resize(heap_.size() * dims_);
    for (std::size_t r = 0; r < heap_.size(); ++r) {
        const double* q = arena_.data() + heap_[r].arena * dims_;
        std::copy(q, q + dims_, head.quality.begin() + r * dims_);
    }
}

void merge_heads(const std::vector<ShardHead>& heads, std::size_t cutoff,
                 std::vector<ScoredBid>& ranking) {
    StreamingHeadMerge merge;
    merge_heads(heads, cutoff, merge, ranking);
}

void merge_heads(const std::vector<ShardHead>& heads, std::size_t cutoff,
                 StreamingHeadMerge& merge, std::vector<ScoredBid>& ranking) {
    std::size_t dims = 0;
    std::size_t rows = 0;
    for (const ShardHead& head : heads) {
        if (rows == 0) dims = head.dims;
        rows += head.rows.size();
    }
    merge.open(dims, std::min(cutoff, rows));
    for (const ShardHead& head : heads) merge.ingest(head);
    merge.finish(ranking);
}

} // namespace fmore::auction
