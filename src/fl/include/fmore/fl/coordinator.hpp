#pragma once

#include <functional>
#include <optional>

#include "fmore/fl/metrics.hpp"
#include "fmore/fl/run_state.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore::fl {

/// Federated training hyperparameters (paper Algorithm 1 / Section V.A).
struct CoordinatorConfig {
    std::size_t rounds = 20;        ///< T — the paper's figures plot 20 rounds
    std::size_t winners_per_round = 20; ///< K
    std::size_t local_epochs = 1;
    std::size_t batch_size = 16;
    double learning_rate = 0.05;    ///< eta of Eq. 2
    /// Evaluate at most this many test samples per round (0 = all); keeps
    /// the benches fast without biasing comparisons (same subset each run).
    std::size_t eval_cap = 0;
    /// Worker threads for the intra-round parallelism (client training and
    /// evaluation). 0 = auto: the `FMORE_ROUND_THREADS` environment
    /// variable when set, otherwise whatever the process-wide
    /// `util::ThreadBudget` has not already leased to the trial runner —
    /// which is what keeps trials x clients from oversubscribing. Round
    /// metrics are bit-identical for every value.
    std::size_t round_threads = 0;
};

/// Optional per-round wall-clock model: given the selected clients and the
/// samples each trained, return the round's duration in seconds. Provided
/// by the MEC cluster simulator for the real-world experiments.
using RoundTimeModel =
    std::function<double(const SelectionRecord&, const std::vector<std::size_t>& samples)>;

/// Orchestrates federated learning (paper Algorithm 1): per round the
/// selector proposes K winners, each winner runs local SGD on its shard,
/// and the coordinator FedAvg-aggregates and evaluates on the held-out
/// test set.
///
/// The K local trainings of a round are independent and run concurrently
/// on the shared `util::ThreadPool`, each on a thread-local clone of the
/// model seeded from a per-client stream drawn in selection order. The pool
/// starts the clients with the most samples first, but results land in
/// selection-order slots and are aggregated in that fixed order, so
/// round metrics are bit-identical to the serial path for any thread count
/// (the same guarantee the trial runner gives across trials). Evaluation
/// splits its fixed 128-sample batches over the same workers and reduces
/// per-batch records in batch order — again bit-identical.
///
/// Every per-round buffer (the tasks and their sample lists, the clients'
/// parameter updates, the dispatch order, FedAvg's accumulator, the eval
/// records) and every worker clone is a member, reused from round to round,
/// so once the first rounds have grown them a round allocates nothing that
/// scales with clients, minibatches or parameters.
class Coordinator {
public:
    /// References must outlive the coordinator. `shards` maps client id ->
    /// local data; a client's FedAvg weight D_i is the number of samples it
    /// actually trained on this round.
    /// @throws std::invalid_argument on no shards, an empty test set, zero
    ///         rounds or zero winners per round
    Coordinator(ml::Model& model, const ml::Dataset& train, const ml::Dataset& test,
                std::vector<ml::ClientShard> shards, CoordinatorConfig config);

    /// `control`, when non-null, resumes the run mid-tape and/or observes
    /// each completed round (see `RunControl`); the default is a fresh run.
    [[nodiscard]] RunResult run(ClientSelector& selector, stats::Rng& rng,
                                const RoundTimeModel& time_model = nullptr,
                                const RunControl* control = nullptr);

    [[nodiscard]] const std::vector<ml::ClientShard>& shards() const { return shards_; }
    [[nodiscard]] const CoordinatorConfig& config() const { return config_; }

protected:
    /// One client's unit of work for a round, fixed in the serial pre-pass.
    struct ClientTask {
        std::size_t slot = 0;            ///< selection-order slot
        const SelectedClient* selected = nullptr;
        std::vector<std::size_t> local;  ///< training sample indices
        std::uint64_t seed = 0;          ///< per-client training stream
    };
    /// What a trained client hands back, slot-addressed.
    struct ClientUpdate {
        std::vector<float> params;
        ml::TrainStats stats;
    };

    /// The serial pre-pass shared by the sync and async coordinators:
    /// resolve each selected client to a task in selection order, consuming
    /// the round RNG (contracted-volume subsampling, per-client training
    /// seeds) in that fixed order so the stream is independent of
    /// scheduling and of the coordinator mode. `tasks` is overwritten; its
    /// elements and their `local` buffers are reused.
    /// @throws std::out_of_range on an unknown client
    /// @throws std::runtime_error when every selected shard is empty
    void build_tasks(const std::vector<SelectedClient>& picked, stats::Rng& rng,
                     std::vector<ClientTask>& tasks) const;

    /// Size this round's workers against the process-wide ThreadBudget,
    /// honouring config/FMORE_ROUND_THREADS overrides; `cap` is the widest
    /// parallel section. Populates `lease` when workers were claimed.
    [[nodiscard]] std::size_t
    acquire_workers(std::size_t cap, std::optional<util::ThreadLease>& lease) const;

    /// Train every task from `global` into `updates[task.slot]`, whose
    /// parameter buffers are reused.
    void train_clients(const std::vector<float>& global, const std::vector<ClientTask>& tasks,
                       std::vector<ClientUpdate>& updates, std::size_t workers);
    [[nodiscard]] ml::EvalStats evaluate_global(std::size_t workers,
                                                const std::vector<float>& global);

    [[nodiscard]] std::size_t eval_batch_count() const;

    ml::Model& model_;
    const ml::Dataset& train_;
    const ml::Dataset& test_;
    std::vector<ml::ClientShard> shards_;
    CoordinatorConfig config_;
    std::vector<std::size_t> eval_indices_;
    /// Model clones, one per worker slot; slot 0 is the calling thread.
    /// Built on the calling thread before a parallel section first needs
    /// them, reused across rounds.
    std::vector<std::unique_ptr<ml::Model>> worker_models_;

private:
    void ensure_worker_models(std::size_t count);

    // The synchronous round's buffers (see the class comment).
    std::vector<ClientTask> tasks_;
    std::vector<ClientUpdate> updates_;
    std::vector<std::size_t> dispatch_order_;
    std::vector<const std::vector<float>*> update_views_;
    std::vector<double> update_weights_;
    std::vector<std::size_t> client_samples_;
    std::vector<double> fedavg_acc_;
    std::vector<ml::EvalBatch> eval_records_;
};

} // namespace fmore::fl
