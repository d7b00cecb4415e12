#pragma once

/// @file stream_round.hpp
/// The position-independent arrival clock of the CROSS-PROCESS streaming
/// market, and the close decision computed over it. The design constraint
/// is the same one that shaped the pipe protocol: nothing O(N) may cross
/// the wire. So instead of shipping an arrival schedule, a bid's arrival
/// time is a pure function of an 8-byte round salt and the GLOBAL node id —
///
///     arrival_s(node) = SplitMix64(derive_stream_seed(salt, node))
///                           .uniform(0, horizon_s)
///
/// — exactly the per-node stream-seed discipline drift and salted
/// tie-breaking already use. Any party holding the salt (the coordinator,
/// every forked shard worker, an in-process twin, a test) reproduces the
/// same schedule bit for bit.
///
/// Because arrival times are independent of bid VALUES, the coordinator can
/// resolve the round's close — quorum, deadline, or exhaustion, with the
/// same trigger semantics as `auction::StreamingMarket` — before a single
/// head row crosses the wire, and ship the resulting cut (close time plus a
/// lexicographic boundary node) down with the request. Workers filter their
/// arrived rows against that cut; the coordinator merges the returned heads
/// exactly as it merges a batch round's.

#include <cstdint>

#include "fmore/auction/streaming_market.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::mec {

/// Boundary-node sentinel: the close cut is time-only (deadline or
/// exhaustion) — every arrival at or before `close_time_s` made the round.
inline constexpr std::uint64_t kStreamBoundaryAny = ~std::uint64_t{0};

/// Node `node`'s bid arrival time under round salt `arrival_salt`: one
/// SplitMix64 draw uniform in [0, horizon_s). Pure in (salt, node, horizon).
[[nodiscard]] inline double stream_arrival_s(std::uint64_t arrival_salt,
                                             std::uint64_t node,
                                             double horizon_s) {
    return stats::SplitMix64(stats::derive_stream_seed(arrival_salt, node))
        .uniform(0.0, horizon_s);
}

/// Did a bid arriving at `arrival_s` from `node` make the round closed at
/// `(close_time_s, boundary_node)`? The cut is lexicographic over
/// (seconds, node) — the replay order `auction::StreamingMarket` consumes —
/// so a quorum close admits exactly the first q arrivals, and a time-only
/// cut (boundary = kStreamBoundaryAny) admits arrivals AT the close time,
/// matching the market's at-the-deadline-counts rule.
[[nodiscard]] inline bool stream_arrived(double arrival_s, std::uint64_t node,
                                         double close_time_s,
                                         std::uint64_t boundary_node) {
    if (arrival_s != close_time_s) return arrival_s < close_time_s;
    return node <= boundary_node;
}

/// The close decision for one streaming round: the forked market's
/// coordinator resolves it from the arrival clock (`resolve_stream_close`),
/// the in-process `StreamingAuctionSelector` from its arrival schedule.
struct StreamCloseDecision {
    auction::CloseReason reason = auction::CloseReason::exhausted;
    /// Virtual time of the close: the q-th arrival for quorum closes, the
    /// deadline for deadline closes, the last arrival for exhaustion.
    double close_time_s = 0.0;
    /// Lexicographic tie-break of the forked market's cut: the
    /// quorum-filling node for quorum closes, kStreamBoundaryAny for
    /// time-only cuts. The in-process selector cuts its schedule directly
    /// and leaves it unset.
    std::uint64_t boundary_node = kStreamBoundaryAny;
    /// Bids inside the cut — the arrived set's size.
    std::size_t arrived = 0;
};

/// Resolve the round's close over the eligible nodes `[0, n)` minus
/// `banned`, with `auction::StreamingMarket`'s trigger semantics exactly:
///  - quorum fires when `quorum > 0`, at least `quorum` bids are eligible,
///    and the quorum-filling arrival is not strictly past the deadline;
///    the round closes AT that arrival (quorum outranks exhaustion when
///    the final arrival fills it);
///  - otherwise a deadline close when `deadline_s > 0` and some arrival is
///    strictly later (arrivals exactly at the deadline are counted);
///  - otherwise exhaustion at the last arrival.
/// O(n) time, O(quorum) space — one bounded top-K pass.
[[nodiscard]] StreamCloseDecision resolve_stream_close(
    std::size_t n, const Blacklist& banned, std::uint64_t arrival_salt,
    double horizon_s, double deadline_s, std::size_t quorum);

} // namespace fmore::mec
