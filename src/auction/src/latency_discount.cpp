#include "fmore/auction/latency_discount.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace fmore::auction {

LatencyDiscountedMechanism::LatencyDiscountedMechanism(MechanismSpec spec)
    : ScoreAuctionMechanism(std::move(spec), "latency_discounted") {
    if (!(spec_.latency_discount >= 0.0) || std::isinf(spec_.latency_discount))
        throw std::invalid_argument(
            "LatencyDiscountedMechanism: latency_discount = "
            + std::to_string(spec_.latency_discount)
            + ": must be finite and >= 0 (0 disables the discount)");
    for (std::size_t i = 0; i < spec_.expected_latency_s.size(); ++i) {
        const double latency = spec_.expected_latency_s[i];
        if (!(latency >= 0.0) || std::isinf(latency))
            throw std::invalid_argument(
                "LatencyDiscountedMechanism: expected_latency_s["
                + std::to_string(i) + "] = " + std::to_string(latency)
                + ": must be finite and >= 0");
    }
}

} // namespace fmore::auction
