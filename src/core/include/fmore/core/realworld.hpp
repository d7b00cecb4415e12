#pragma once

#include <memory>
#include <string>

#include "fmore/core/equilibrium_cache.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/fl/coordinator.hpp"
#include "fmore/fl/metrics.hpp"
#include "fmore/mec/cluster.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/ml/model.hpp"

namespace fmore::core {

struct RunCheckpoint;

/// The testbed reproduction (Figs. 12-13): 31 heterogeneous nodes behind a
/// switch, three-dimensional resource auction, and a wall-clock model so
/// runs report seconds as well as rounds.
class RealWorldTrial {
public:
    /// @throws std::invalid_argument when `spec` fails validation or is a
    ///         simulation spec
    RealWorldTrial(const ExperimentSpec& spec, std::size_t trial_index);

    /// Run under a named selection policy (fl::PolicyRegistry); the paper's
    /// testbed section compares FMore and RandFL.
    [[nodiscard]] fl::RunResult run(const std::string& policy);

    /// `run`, optionally resuming from a loaded checkpoint and writing new
    /// checkpoints on the spec's `timing.checkpoint_every` cadence — across
    /// the sync, semi-sync/async, sharded and streaming lanes alike. A resumed
    /// run's tape is bit-identical to a never-interrupted one (see
    /// docs/ARCHITECTURE.md, "Durability model"). `run(policy)` is exactly
    /// `run_resumable(policy, nullptr)`.
    [[nodiscard]] fl::RunResult run_resumable(const std::string& policy,
                                              const RunCheckpoint* resume_from);

    /// Sealed-bid score board of the last auction-backed round.
    [[nodiscard]] const std::vector<double>& last_all_scores() const {
        return last_all_scores_;
    }

    [[nodiscard]] const std::vector<ml::ClientShard>& shards() const { return shards_; }
    [[nodiscard]] const auction::EquilibriumStrategy& equilibrium() const {
        return solved_->strategy;
    }

private:
    [[nodiscard]] ml::Model make_model(std::uint64_t seed) const;
    /// Per-node expected bid latency in seconds: the trial's straggler
    /// factor (fixed stream, so every policy sees the same slow nodes)
    /// times the auction overhead. Feeds both latency-discounted pricing
    /// and the streaming market's closed-loop arrival schedule.
    [[nodiscard]] std::vector<double> bid_latency_table() const;
    void rebuild_population();

    ExperimentSpec spec_;
    std::size_t trial_index_;
    std::uint64_t trial_seed_;
    double data_cap_ = 1.0; ///< largest shard size (scoring/cost scale)
    ml::Dataset train_;
    ml::Dataset test_;
    std::vector<ml::ClientShard> shards_;
    std::unique_ptr<stats::UniformDistribution> theta_dist_;
    std::shared_ptr<const SolvedEquilibrium> solved_;
    std::unique_ptr<mec::MecPopulation> population_;
    std::vector<double> last_all_scores_;
};

} // namespace fmore::core
