#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fmore/stats/rng.hpp"

namespace fmore::mec {

/// The aggregator's blacklist (Section III.A step 4: "If any edge node does
/// not comply with the contract, it will be put into the blacklist by the
/// aggregator"). Banned nodes are excluded from every later bid-collection
/// phase.
///
/// Storage is a flat epoch-stamped array keyed by NodeId less the first id
/// it serves: `contains` is a bounds check plus one load — no hashing —
/// which matters because the bid collector asks it once per node per
/// round. `clear` bumps the epoch instead of touching N entries, so the
/// array is reusable across trials at O(1).
class Blacklist {
public:
    Blacklist() = default;
    /// A blacklist of ids from `first_node` on, stored from there: a shard
    /// worker's, whose rows start at its node offset, so its array spans no
    /// id below its own rows.
    explicit Blacklist(std::size_t first_node) : first_(first_node) {}

    /// @throws std::invalid_argument when `node` is below the first id this
    ///         blacklist serves
    void ban(std::size_t node) {
        if (node < first_)
            throw std::invalid_argument("Blacklist::ban: node " + std::to_string(node)
                                        + " is below the first id served, "
                                        + std::to_string(first_));
        const std::size_t at = node - first_;
        if (at >= stamp_.size()) stamp_.resize(at + 1, 0);
        if (stamp_[at] != epoch_) {
            stamp_[at] = epoch_;
            ++banned_;
        }
        lowest_ = std::min(lowest_, node);
        highest_ = std::max(highest_, node);
    }
    [[nodiscard]] bool contains(std::size_t node) const {
        // An id below the first wraps far past the array.
        const std::size_t at = node - first_;
        return at < stamp_.size() && stamp_[at] == epoch_;
    }
    /// False when no id in [lo, hi) is banned, decided from the span of
    /// ids banned since the last `clear` alone: true only when [lo, hi)
    /// meets that span. The bid collector asks once per 256-row block and
    /// skips the block's `contains` calls when false.
    [[nodiscard]] bool may_contain(std::size_t lo, std::size_t hi) const {
        return lo < hi && lowest_ < hi && lo <= highest_;
    }
    [[nodiscard]] std::size_t size() const { return banned_; }
    /// All currently banned node ids, ascending — what the durable-run
    /// checkpoint records (O(N) scan; checkpoint cadence, not bid path).
    [[nodiscard]] std::vector<std::size_t> banned_ids() const {
        std::vector<std::size_t> ids;
        ids.reserve(banned_);
        for (std::size_t at = 0; at < stamp_.size(); ++at)
            if (stamp_[at] == epoch_) ids.push_back(first_ + at);
        return ids;
    }
    void clear() {
        ++epoch_;
        banned_ = 0;
        lowest_ = kNoBan;
        highest_ = 0;
        if (epoch_ == 0) {  // wrapped: stale stamps could alias, wipe once
            stamp_.assign(stamp_.size(), 0);
            epoch_ = 1;
        }
    }

private:
    std::size_t first_ = 0;             ///< the id stamp_[0] stands for
    std::vector<std::uint32_t> stamp_;  ///< stamp_[node - first_] == epoch_ <=> banned
    std::uint32_t epoch_ = 1;
    std::size_t banned_ = 0;
    static constexpr std::size_t kNoBan = static_cast<std::size_t>(-1);
    std::size_t lowest_ = kNoBan;  ///< the smallest id banned since the last clear
    std::size_t highest_ = 0;      ///< the largest (meaningless while none is)
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
