#include "fmore/fl/coordinator.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "fmore/fl/fedavg.hpp"

namespace fmore::fl {

Coordinator::Coordinator(ml::Model& model, const ml::Dataset& train,
                         const ml::Dataset& test, std::vector<ml::ClientShard> shards,
                         CoordinatorConfig config)
    : model_(model),
      train_(train),
      test_(test),
      shards_(std::move(shards)),
      config_(config) {
    if (shards_.empty()) throw std::invalid_argument("Coordinator: no client shards");
    // An empty test set would average eval metrics over zero samples (NaN).
    if (test_.size() == 0) throw std::invalid_argument("Coordinator: empty test set");
    if (config_.rounds == 0) throw std::invalid_argument("Coordinator: zero rounds");
    if (config_.winners_per_round == 0)
        throw std::invalid_argument("Coordinator: zero winners per round");
    eval_indices_.resize(test_.size());
    for (std::size_t i = 0; i < eval_indices_.size(); ++i) eval_indices_[i] = i;
    if (config_.eval_cap > 0 && config_.eval_cap < eval_indices_.size()) {
        eval_indices_.resize(config_.eval_cap);
    }
}

void Coordinator::build_tasks(const std::vector<SelectedClient>& picked, stats::Rng& rng,
                              std::vector<ClientTask>& tasks) const {
    std::size_t count = 0;
    for (const SelectedClient& sel : picked) {
        if (sel.client >= shards_.size())
            throw std::out_of_range("Coordinator: selector picked unknown client");
        const ml::ClientShard& shard = shards_[sel.client];
        if (shard.indices.empty()) continue;

        if (count == tasks.size()) tasks.emplace_back();
        ClientTask& task = tasks[count];
        task.slot = count++;
        task.selected = &sel;
        // Honour the contracted data volume: FMore winners train on the
        // bid data size; baselines train on the full shard.
        task.local.assign(shard.indices.begin(), shard.indices.end());
        if (sel.train_samples.has_value() && *sel.train_samples < task.local.size()) {
            rng.shuffle(task.local);
            task.local.resize(std::max<std::size_t>(1, *sel.train_samples));
        }
        task.seed = rng.engine()();
    }
    tasks.resize(count);
    if (tasks.empty())
        throw std::runtime_error("Coordinator: every selected client had an empty shard");
}

std::size_t Coordinator::eval_batch_count() const {
    return (eval_indices_.size() + ml::kEvalBatch - 1) / ml::kEvalBatch;
}

std::size_t Coordinator::acquire_workers(std::size_t cap,
                                         std::optional<util::ThreadLease>& lease) const {
    // Explicit overrides (config/FMORE_ROUND_THREADS) are honoured even
    // when they overdraw the budget, but still recorded so sibling levels
    // see them; the auto path *claims* its workers atomically — concurrent
    // coordinators split what is free instead of each reading the same
    // remainder — and the calling thread takes a slot of its own unless a
    // trial-level lease already counted it.
    const std::size_t explicit_req = util::explicit_round_threads(config_.round_threads);
    std::size_t workers = 1;
    if (cap > 1) {
        if (explicit_req > 0) {
            workers = std::min(explicit_req, cap);
            lease.emplace(workers - 1, /*exact=*/true);
        } else if (util::ThreadBudget::current_thread_counted()) {
            lease.emplace(cap - 1); // helpers only; the caller is paid for
            workers = 1 + lease->granted();
        } else {
            lease.emplace(cap); // the caller claims its own slot too
            workers = std::max<std::size_t>(1, lease->granted());
        }
    }
    return workers;
}

void Coordinator::ensure_worker_models(std::size_t count) {
    while (worker_models_.size() < count)
        worker_models_.push_back(std::make_unique<ml::Model>(model_.clone()));
}

void Coordinator::train_clients(const std::vector<float>& global,
                                const std::vector<ClientTask>& tasks,
                                std::vector<ClientUpdate>& updates,
                                std::size_t workers) {
    // One clone trains one client at a time: set the round's global
    // parameters, reset the training stream to the client's seed, run the
    // local epochs. The computation is a pure function of (global, task),
    // so which worker slot executes it cannot matter.
    auto train_one = [&](ml::Model& model, const ClientTask& task) {
        model.set_parameters(global);
        model.reseed(task.seed);
        ml::TrainStats stats{};
        for (std::size_t e = 0; e < config_.local_epochs; ++e) {
            stats = model.train_epoch(train_, task.local, config_.batch_size,
                                      config_.learning_rate);
        }
        ClientUpdate& update = updates[task.slot];
        model.get_parameters_into(update.params);
        update.stats = stats;
    };

    if (workers <= 1) {
        // Serial path: the coordinator's own model is the (only) worker.
        for (const ClientTask& task : tasks) train_one(model_, task);
        return;
    }

    // Longest first: the pool claims tasks in this order, so the last task
    // to start is a short one and no long task sets the round's tail. Ties
    // keep slot order; each update still lands in its slot.
    dispatch_order_.resize(tasks.size());
    std::iota(dispatch_order_.begin(), dispatch_order_.end(), std::size_t{0});
    std::sort(dispatch_order_.begin(), dispatch_order_.end(),
              [&tasks](std::size_t a, std::size_t b) {
                  const std::size_t na = tasks[a].local.size();
                  const std::size_t nb = tasks[b].local.size();
                  return na != nb ? na > nb : a < b;
              });

    ensure_worker_models(workers);
    auto train_slot = [&](std::size_t slot, std::size_t i) {
        train_one(*worker_models_[slot], tasks[dispatch_order_[i]]);
    };
    // Passed by reference: parallel_for's std::function then stores it in
    // place instead of allocating a copy of the closure.
    util::ThreadPool::shared().parallel_for(tasks.size(), workers - 1, std::ref(train_slot));
}

ml::EvalStats Coordinator::evaluate_global(std::size_t workers,
                                           const std::vector<float>& global) {
    const std::size_t batches = eval_batch_count();
    eval_records_.resize(batches);
    const std::size_t chunks = std::min(workers, batches);
    if (chunks <= 1) {
        // The coordinator's own model holds `global`.
        model_.evaluate_batches(test_, eval_indices_, ml::kEvalBatch, 0, batches,
                                eval_records_.data());
        return ml::reduce_eval_batches(eval_records_);
    }

    // Batch boundaries are fixed by ml::kEvalBatch (never by the worker
    // count) and records are reduced in batch order, so any chunking is
    // bit-identical to the serial pass.
    ensure_worker_models(chunks);
    const std::size_t per_chunk = (batches + chunks - 1) / chunks;
    auto eval_chunk = [&](std::size_t slot, std::size_t c) {
        const std::size_t lo = c * per_chunk;
        const std::size_t hi = std::min(batches, lo + per_chunk);
        if (lo >= hi) return;
        ml::Model& local = *worker_models_[slot];
        local.set_parameters(global);
        local.evaluate_batches(test_, eval_indices_, ml::kEvalBatch, lo, hi,
                               eval_records_.data());
    };
    util::ThreadPool::shared().parallel_for(chunks, workers - 1, std::ref(eval_chunk));
    return ml::reduce_eval_batches(eval_records_);
}

RunResult Coordinator::run(ClientSelector& selector, stats::Rng& rng,
                           const RoundTimeModel& time_model, const RunControl* control) {
    RunResult result;
    std::vector<float> global = model_.get_parameters();
    std::size_t first_round = 1;
    if (control) {
        first_round = control->start_round;
        result.rounds = control->prior_rounds;
        if (!control->global.empty()) {
            global = control->global;
            model_.set_parameters(global);
        }
    }
    result.rounds.reserve(config_.rounds);

    for (std::size_t round = first_round; round <= config_.rounds; ++round) {
        RoundMetrics metrics;
        metrics.round = round;
        metrics.selection = selector.select(round, config_.winners_per_round, rng);
        metrics.dropped_shards = metrics.selection.dropped_shards.size();
        const std::vector<SelectedClient>& picked = metrics.selection.selected;
        if (picked.empty())
            throw std::runtime_error("Coordinator: selector returned no clients");

        // Serial pre-pass in selection order: everything that touches the
        // shared round RNG (contracted-volume subsampling, the per-client
        // training seeds) happens here, so the stream is independent of
        // scheduling.
        build_tasks(picked, rng, tasks_);

        // Size the round's workers, capped at the widest parallel section
        // (client trainings or eval batches).
        const std::size_t cap = std::max(tasks_.size(), eval_batch_count());
        std::optional<util::ThreadLease> lease;
        const std::size_t workers = acquire_workers(cap, lease);

        updates_.resize(tasks_.size());
        train_clients(global, tasks_, updates_, std::min(workers, tasks_.size()));

        // Fixed-order aggregation over the selection-order slots, reading
        // each update in place. `client_samples_` stays parallel to
        // `picked` — a selected client whose shard was empty trained
        // nothing, and the RoundTimeModel zips samples with
        // `selection.selected` positionally.
        update_views_.clear();
        update_weights_.clear();
        client_samples_.assign(picked.size(), 0);
        double train_loss_sum = 0.0;
        double train_loss_weight = 0.0;
        for (const ClientTask& task : tasks_) {
            const ClientUpdate& update = updates_[task.slot];
            const auto weight = static_cast<double>(task.local.size());
            update_views_.push_back(&update.params);
            update_weights_.push_back(weight);
            client_samples_[static_cast<std::size_t>(task.selected - picked.data())] =
                task.local.size();
            train_loss_sum += update.stats.mean_loss * weight;
            train_loss_weight += weight;
            metrics.mean_winner_payment += task.selected->payment;
            metrics.mean_winner_score += task.selected->score;
        }

        federated_average(update_views_, update_weights_, fedavg_acc_, global);
        model_.set_parameters(global);

        const ml::EvalStats eval = evaluate_global(workers, global);
        metrics.aggregated_updates = tasks_.size();
        metrics.test_accuracy = eval.accuracy;
        metrics.test_loss = eval.mean_loss;
        metrics.train_loss =
            train_loss_weight > 0.0 ? train_loss_sum / train_loss_weight : 0.0;
        const auto n_sel = static_cast<double>(picked.size());
        metrics.mean_winner_payment /= n_sel;
        metrics.mean_winner_score /= n_sel;
        if (time_model) {
            metrics.round_seconds = time_model(metrics.selection, client_samples_);
        }
        result.rounds.push_back(std::move(metrics));
        if (control && control->on_round)
            control->on_round(round, result.rounds, global, {}, 0);
    }
    return result;
}

} // namespace fmore::fl
