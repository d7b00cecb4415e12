#pragma once

#include <memory>
#include <string>

#include "fmore/core/equilibrium_cache.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/fl/coordinator.hpp"
#include "fmore/fl/metrics.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/distributions.hpp"

namespace fmore::core {

struct RunCheckpoint;

/// Read-only view of a simulator world's sizes and hyperparameters, filled
/// once from the spec. The benchmark's trace lane replays the round's calls
/// on the same world and reads them here; the engine itself reads only the
/// spec.
struct SimulationConfig {
    std::size_t train_samples = 0;
    std::size_t test_samples = 0;
    std::size_t num_nodes = 0;     ///< N
    std::size_t winners = 0;       ///< K
    std::size_t shards_lo = 0;
    std::size_t shards_hi = 0;
    std::size_t data_lo = 0;
    std::size_t data_hi = 0;
    double alpha = 0.0;
    double beta_data = 0.0;
    double beta_category = 0.0;
    double theta_lo = 0.0;
    double theta_hi = 0.0;
    auction::WinModel win_model = auction::WinModel::paper;
    std::size_t local_epochs = 0;
    std::size_t batch_size = 0;
    double learning_rate = 0.0;
    std::size_t eval_cap = 0;
};

/// One fully-assembled trial of the paper's simulator: dataset, non-IID
/// shards, MEC population, solved equilibrium strategy, model and
/// coordinator. Owns (or shares, for the cached equilibrium) everything so
/// lifetimes are trivial; build one per (spec, trial) pair — construction
/// costs well under a second, and the equilibrium tabulation is reused
/// across trials via core::EquilibriumCache.
class SimulationTrial {
public:
    /// @throws std::invalid_argument when `spec` fails validation or is a
    ///         testbed spec
    SimulationTrial(const ExperimentSpec& spec, std::size_t trial_index);

    /// Run the federated experiment under one selection policy resolved
    /// from fl::PolicyRegistry ("fmore", "psi_fmore", "randfl", "fixfl", or
    /// any custom registration). Each call re-initializes the global model
    /// from the trial seed, so policies compared within a trial start from
    /// identical weights, data and population state.
    [[nodiscard]] fl::RunResult run(const std::string& policy);

    /// `run`, optionally resuming from a loaded checkpoint and writing new
    /// checkpoints on the spec's `timing.checkpoint_every` cadence. A
    /// resumed run's tape is bit-identical to a never-interrupted one (see
    /// docs/ARCHITECTURE.md, "Durability model"). `run(policy)` is exactly
    /// `run_resumable(policy, nullptr)`.
    [[nodiscard]] fl::RunResult run_resumable(const std::string& policy,
                                              const RunCheckpoint* resume_from);

    /// Sealed-bid score board of the last FMore round (Fig. 8 inputs).
    [[nodiscard]] const std::vector<double>& last_all_scores() const {
        return last_all_scores_;
    }

    [[nodiscard]] const auction::EquilibriumStrategy& equilibrium() const {
        return solved_->strategy;
    }
    [[nodiscard]] const ml::Dataset& train_set() const { return train_; }
    [[nodiscard]] const ml::Dataset& test_set() const { return test_; }
    [[nodiscard]] const std::vector<ml::ClientShard>& shards() const { return shards_; }
    [[nodiscard]] const SimulationConfig& config() const { return config_; }

private:
    [[nodiscard]] ml::Model make_model(std::uint64_t seed) const;
    void rebuild_population();

    ExperimentSpec spec_;
    SimulationConfig config_;
    std::size_t trial_index_;
    std::uint64_t trial_seed_;
    ml::Dataset train_;
    ml::Dataset test_;
    std::vector<ml::ClientShard> shards_;
    std::unique_ptr<stats::UniformDistribution> theta_dist_;
    std::shared_ptr<const SolvedEquilibrium> solved_;
    std::unique_ptr<mec::MecPopulation> population_;
    std::vector<double> last_all_scores_;
};

} // namespace fmore::core
