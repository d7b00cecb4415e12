#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fmore/stats/rng.hpp"

namespace fmore::mec {

/// The aggregator's blacklist (Section III.A step 4: "If any edge node does
/// not comply with the contract, it will be put into the blacklist by the
/// aggregator"). Banned nodes are excluded from every later bid-collection
/// phase.
///
/// Storage is a flat epoch-stamped array keyed by NodeId: `contains` is a
/// bounds check plus one load — no hashing — which matters because the bid
/// collector asks it once per node per round. `clear` bumps the epoch
/// instead of touching N entries, so the array is reusable across trials
/// at O(1).
class Blacklist {
public:
    void ban(std::size_t node) {
        if (node >= stamp_.size()) stamp_.resize(node + 1, 0);
        if (stamp_[node] != epoch_) {
            stamp_[node] = epoch_;
            ++banned_;
        }
    }
    [[nodiscard]] bool contains(std::size_t node) const {
        return node < stamp_.size() && stamp_[node] == epoch_;
    }
    [[nodiscard]] std::size_t size() const { return banned_; }
    /// All currently banned node ids, ascending — what the durable-run
    /// checkpoint records (O(N) scan; checkpoint cadence, not bid path).
    [[nodiscard]] std::vector<std::size_t> banned_ids() const {
        std::vector<std::size_t> ids;
        ids.reserve(banned_);
        for (std::size_t node = 0; node < stamp_.size(); ++node)
            if (stamp_[node] == epoch_) ids.push_back(node);
        return ids;
    }
    void clear() {
        ++epoch_;
        banned_ = 0;
        if (epoch_ == 0) {  // wrapped: stale stamps could alias, wipe once
            stamp_.assign(stamp_.size(), 0);
            epoch_ = 1;
        }
    }

private:
    std::vector<std::uint32_t> stamp_;  ///< stamp_[node] == epoch_ <=> banned
    std::uint32_t epoch_ = 1;
    std::size_t banned_ = 0;
};

/// Replace `blacklist`'s bans with `ids`, as a selector restores them from a
/// checkpoint. A checkpoint is untrusted input and `ban` sizes its array by
/// the largest id, so every id is checked against the population size `n`
/// before any is taken.
/// @throws std::invalid_argument naming the first id >= n, with `blacklist`
///         left as it was
void restore_bans(Blacklist& blacklist, const std::vector<std::uint64_t>& ids,
                  std::size_t n);

/// Stochastic contract-compliance model: a winner defects in a given round
/// with probability `defect_probability`, delivering only
/// `under_delivery_factor` of the promised data. The aggregator observes
/// delivered volume (it counts the samples behind the returned update) and
/// bans detected defectors.
struct ComplianceSpec {
    double defect_probability = 0.0;
    double under_delivery_factor = 0.5;
};

/// One winner's contract outcome.
struct ComplianceOutcome {
    bool defected = false;
    std::size_t delivered_samples = 0;
};

/// Roll the compliance dice for a winner promising `promised_samples`.
ComplianceOutcome roll_compliance(const ComplianceSpec& spec,
                                  std::size_t promised_samples, stats::Rng& rng);

} // namespace fmore::mec
