#pragma once

/// @file market_order.hpp
/// The market's one order and the two pieces every ranking site builds on
/// it. FMore's winner determination scores every sealed bid, breaks exact
/// ties by a coin flip and keeps the top K (Section III.A step 3). Here that
/// rule is written once:
///  - `MarketOrder`: score descending, tie key ascending, node ascending —
///    a strict total order over any row with `score`, `key` and `node`;
///  - `BoundedTopK`: the best `cap` rows seen under an order, in
///    caller-owned storage;
///  - `draw_tie_keys`: the round's coin flip, materialized as `TieKeys`.
/// The vector and frame rankings, the shard heads and their merges, and the
/// streaming market all use these three, so they agree row for row.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/types.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {

/// Score descending, tie key ascending, node ascending. +0 and -0 tie, so
/// the key decides between them. A NaN score ranks after every number, -inf
/// included, and two NaNs compare by (key, node): without that rule NaN
/// would tie every number while numbers stay ordered, which is not a strict
/// weak order, and the head would depend on the order rows were seen in.
struct MarketOrder {
    template <typename A, typename B>
    [[nodiscard]] bool operator()(const A& a, const B& b) const noexcept {
        if (a.score > b.score) return true;
        if (a.score < b.score) return false;
        const bool a_nan = std::isnan(a.score);
        if (a_nan != std::isnan(b.score)) return !a_nan;
        if (a.key != b.key) return a.key < b.key;
        return a.node < b.node;
    }
};

/// The best `cap` items offered, under `Order`, kept in a caller-owned
/// vector so its capacity survives across rounds. Until `cap` items are in,
/// offers append; the vector becomes a heap whose root is the worst kept
/// item the moment it fills, and each later offer that beats the root
/// replaces it. Under a strict total order the worst kept item is unique,
/// so which item is evicted when does not depend on the heap's layout.
/// `kUnbounded` keeps everything. The view holds no state of its own:
/// clear the vector to start over.
template <typename T, typename Order = MarketOrder>
class BoundedTopK {
public:
    static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

    BoundedTopK(std::vector<T>& items, std::size_t cap) : items_(items), cap_(cap) {}

    [[nodiscard]] bool full() const { return items_.size() >= cap_; }
    /// The worst kept item. Precondition: `full()` and `cap > 0`.
    [[nodiscard]] const T& worst() const { return items_.front(); }

    /// Would `item` be kept: the store has room, or it beats the worst.
    template <typename U>
    [[nodiscard]] bool admits(const U& item) const {
        if (!full()) return true;
        return cap_ > 0 && Order{}(item, items_.front());
    }

    /// Keep `item`, evicting the worst when full. Precondition: `admits`.
    void push(const T& item) {
        if (!full()) {
            items_.push_back(item);
            if (full()) std::make_heap(items_.begin(), items_.end(), Order{});
            return;
        }
        std::pop_heap(items_.begin(), items_.end(), Order{});
        items_.back() = item;
        std::push_heap(items_.begin(), items_.end(), Order{});
    }

    /// `push` if admitted; true when `item` was kept.
    bool offer(const T& item) {
        if (!admits(item)) return false;
        push(item);
        return true;
    }

    /// Sort the kept items best-first (the store stops being a heap).
    void sort() { std::sort(items_.begin(), items_.end(), Order{}); }

private:
    std::vector<T>& items_;
    std::size_t cap_;
};

/// How a ranking site derives a row's tie-break key from its id (the
/// GLOBAL node id on shards). Shuffle mode points into the round's
/// inverse-permutation table (valid for the current round only); salted
/// mode needs just the 8-byte round salt.
struct TieKeys {
    const std::uint32_t* pos = nullptr;  ///< id -> shuffled position
    std::uint64_t salt = 0;
    bool salted = false;

    [[nodiscard]] std::uint64_t key(NodeId id) const {
        return salted ? stats::derive_stream_seed(salt, id) : pos[id];
    }
};

/// The round's coin flip over the active ids `active` (ascending), the
/// only draw any ranking site makes before selection. Salted: one engine
/// draw, the salt; `active` is not read. Shuffle: one shuffle of `active`
/// into `scratch.order`, inverted into `scratch.pos` (sized to
/// `id_bound`), so a row's key is its shuffled position — the order a
/// stable sort over the shuffled bids yields. Shuffle keys point into
/// `scratch` and live until its next draw.
/// @throws std::invalid_argument in shuffle mode past 2^32 ids
inline TieKeys draw_tie_keys(bool salted, const std::vector<std::size_t>& active,
                             std::size_t id_bound, stats::Rng& rng, RankScratch& scratch) {
    TieKeys keys;
    if (salted) {
        keys.salted = true;
        keys.salt = rng.engine()();
        return keys;
    }
    if (id_bound > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("draw_tie_keys: more than 2^32 ids (use TieBreak::salted)");
    scratch.order.assign(active.begin(), active.end());
    rng.shuffle(scratch.order);
    scratch.pos.resize(id_bound);
    for (std::size_t j = 0; j < scratch.order.size(); ++j)
        scratch.pos[scratch.order[j]] = static_cast<std::uint32_t>(j);
    keys.pos = scratch.pos.data();
    return keys;
}

} // namespace fmore::auction
