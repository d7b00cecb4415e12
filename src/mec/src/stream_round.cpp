#include "fmore/mec/stream_round.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmore/auction/market_order.hpp"

namespace fmore::mec {

namespace {

struct Tick {
    double seconds = 0.0;
    std::uint64_t node = 0;
};

/// Arrival replay order: (seconds asc, node asc) — `ArrivalModel`'s sort.
struct Earlier {
    bool operator()(const Tick& a, const Tick& b) const {
        if (a.seconds != b.seconds) return a.seconds < b.seconds;
        return a.node < b.node;
    }
};

} // namespace

StreamCloseDecision resolve_stream_close(std::size_t n, const Blacklist& banned,
                                         std::uint64_t arrival_salt,
                                         double horizon_s, double deadline_s,
                                         std::size_t quorum) {
    if (!(horizon_s > 0.0))
        throw std::invalid_argument("resolve_stream_close: horizon_s = "
                                    + std::to_string(horizon_s)
                                    + ": must be > 0");
    if (!(deadline_s >= 0.0))
        throw std::invalid_argument("resolve_stream_close: deadline_s must be >= 0");

    // One pass: count the eligible bids, the ones at or before the
    // deadline, the latest arrival, and the first `quorum` arrivals under
    // the replay order (a bounded top-K whose worst kept is the latest).
    std::size_t eligible = 0;
    std::size_t by_deadline = 0;
    double last_s = 0.0;
    std::vector<Tick> first_q;
    first_q.reserve(std::min(quorum, n));
    auction::BoundedTopK<Tick, Earlier> earliest(first_q, quorum);
    for (std::size_t node = 0; node < n; ++node) {
        if (banned.contains(node)) continue;
        const double sec = stream_arrival_s(arrival_salt, node, horizon_s);
        ++eligible;
        if (deadline_s <= 0.0 || sec <= deadline_s) ++by_deadline;
        if (eligible == 1 || sec > last_s) last_s = sec;
        if (quorum > 0) earliest.offer(Tick{sec, node});
    }

    StreamCloseDecision close;
    if (quorum > 0 && eligible >= quorum) {
        // The quorum-filling arrival, i.e. the q-th under the replay order
        // (the latest kept). The market checks quorum on accept, so it
        // fires only when that arrival itself is not past the deadline.
        const Tick& qth = earliest.worst();
        if (deadline_s <= 0.0 || qth.seconds <= deadline_s) {
            close.reason = auction::CloseReason::quorum;
            close.close_time_s = qth.seconds;
            close.boundary_node = qth.node;
            close.arrived = quorum;
            return close;
        }
    }
    if (deadline_s > 0.0 && by_deadline < eligible) {
        close.reason = auction::CloseReason::deadline;
        close.close_time_s = deadline_s;
        close.arrived = by_deadline;
        return close;
    }
    close.reason = auction::CloseReason::exhausted;
    close.close_time_s = eligible > 0 ? last_s : 0.0;
    close.arrived = eligible;
    return close;
}

} // namespace fmore::mec
