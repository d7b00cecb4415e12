#include "fmore/mec/blacklist.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace fmore::mec {

void restore_bans(Blacklist& blacklist, const std::vector<std::uint64_t>& ids,
                  std::size_t n) {
    for (const std::uint64_t node : ids)
        if (node >= n)
            throw std::invalid_argument("checkpoint bans node " + std::to_string(node)
                                        + ", outside the " + std::to_string(n)
                                        + "-node population");
    blacklist.clear();
    for (const std::uint64_t node : ids) blacklist.ban(static_cast<std::size_t>(node));
}

ComplianceOutcome roll_compliance(const ComplianceSpec& spec,
                                  std::size_t promised_samples, stats::Rng& rng) {
    if (!(spec.defect_probability >= 0.0 && spec.defect_probability <= 1.0))
        throw std::invalid_argument("ComplianceSpec: defect_probability out of range");
    if (!(spec.under_delivery_factor >= 0.0 && spec.under_delivery_factor < 1.0))
        throw std::invalid_argument("ComplianceSpec: under_delivery_factor out of [0,1)");
    ComplianceOutcome out;
    out.delivered_samples = promised_samples;
    if (spec.defect_probability > 0.0 && rng.bernoulli(spec.defect_probability)) {
        out.defected = true;
        out.delivered_samples = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::floor(spec.under_delivery_factor
                              * static_cast<double>(promised_samples))));
    }
    return out;
}

} // namespace fmore::mec
