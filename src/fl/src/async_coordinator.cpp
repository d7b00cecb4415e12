#include "fmore/fl/async_coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fmore/fl/fedavg.hpp"

namespace fmore::fl {

namespace {

bool bad(double value) { return std::isnan(value) || std::isinf(value); }

} // namespace

AsyncCoordinator::AsyncCoordinator(ml::Model& model, const ml::Dataset& train,
                                   const ml::Dataset& test,
                                   std::vector<ml::ClientShard> shards,
                                   CoordinatorConfig config,
                                   AsyncCoordinatorConfig async_config)
    : Coordinator(model, train, test, std::move(shards), config),
      async_(async_config) {
    if (async_.mode == RoundMode::sync)
        throw std::invalid_argument(
            "AsyncCoordinator: mode = sync — use fl::Coordinator for the "
            "synchronous barrier");
    if (async_.min_updates > config.winners_per_round)
        throw std::invalid_argument(
            "AsyncCoordinator: min_updates = " + std::to_string(async_.min_updates)
            + " exceeds winners_per_round = "
            + std::to_string(config.winners_per_round));
    if (bad(async_.round_deadline_s) || async_.round_deadline_s < 0.0)
        throw std::invalid_argument(
            "AsyncCoordinator: round_deadline_s must be finite and >= 0");
    if (async_.round_deadline_s > 0.0 && async_.mode != RoundMode::semi_sync)
        throw std::invalid_argument(
            "AsyncCoordinator: round_deadline_s only applies to semi_sync "
            "(async aggregates purely on update count)");
    if (bad(async_.staleness_alpha) || async_.staleness_alpha < 0.0)
        throw std::invalid_argument(
            "AsyncCoordinator: staleness_alpha must be finite and >= 0");
    if (bad(async_.round_overhead_s) || async_.round_overhead_s < 0.0
        || bad(async_.auction_overhead_s) || async_.auction_overhead_s < 0.0)
        throw std::invalid_argument(
            "AsyncCoordinator: overheads must be finite and >= 0");
}

RunResult AsyncCoordinator::run_async(ClientSelector& selector, stats::Rng& rng,
                                      const ClientTimeModel& time_model,
                                      const RunControl* control) {
    if (!time_model)
        throw std::invalid_argument("AsyncCoordinator: null ClientTimeModel — "
                                    "async rounds need a per-client clock");

    RunResult result;
    std::vector<float> global = model_.get_parameters();
    std::vector<InFlight> flight;
    std::uint64_t next_seq = 0;
    std::size_t first_round = 1;
    constexpr double kNever = std::numeric_limits<double>::infinity();
    if (control) {
        first_round = control->start_round;
        result.rounds = control->prior_rounds;
        if (!control->global.empty()) {
            global = control->global;
            model_.set_parameters(global);
        }
        next_seq = control->next_seq;
        flight.reserve(control->flight.size());
        for (const InFlightUpdate& u : control->flight) {
            InFlight entry;
            entry.seq = u.seq;
            entry.base_round = u.base_round;
            entry.weight = u.weight;
            entry.arrival = u.dropped ? kNever : u.arrival;
            entry.dropped = u.dropped;
            entry.params = u.params;
            entry.stats = u.stats;
            flight.push_back(std::move(entry));
        }
    }

    for (std::size_t round = first_round; round <= config_.rounds; ++round) {
        RoundMetrics metrics;
        metrics.round = round;
        metrics.selection = selector.select(round, config_.winners_per_round, rng);
        metrics.dropped_shards = metrics.selection.dropped_shards.size();
        const std::vector<SelectedClient>& picked = metrics.selection.selected;
        if (picked.empty())
            throw std::runtime_error("AsyncCoordinator: selector returned no clients");

        // Serial pre-pass, selection order: the shared Coordinator pre-pass
        // (contracted-volume subsampling, per-client training seeds), then
        // this mode's timing draws — one DispatchTiming per task, in slot
        // order, so dropout draws consume the round RNG deterministically.
        std::vector<ClientTask> tasks;
        build_tasks(picked, rng, tasks);
        struct DispatchInfo {
            double weight = 0.0;   ///< samples this dispatch trains (D_i)
            double payment = 0.0;
            double score = 0.0;
            double seconds = 0.0;
            bool dropped = false;
        };
        std::vector<DispatchInfo> dispatch(tasks.size());
        for (const ClientTask& task : tasks) {
            const DispatchTiming t =
                time_model(task.selected->client, task.local.size(), rng);
            dispatch[task.slot] = DispatchInfo{static_cast<double>(task.local.size()),
                                               task.selected->payment,
                                               task.selected->score,
                                               t.seconds,
                                               t.dropped};
        }

        // Train the dispatches that will eventually report. Dropped clients
        // never deliver, so their training is skipped outright — safe
        // because every task already owns its seed (no shared stream).
        std::vector<ClientTask> trainable;
        trainable.reserve(tasks.size());
        for (ClientTask& task : tasks) {
            if (!dispatch[task.slot].dropped) trainable.push_back(std::move(task));
        }
        const std::size_t cap = std::max(trainable.size(), eval_batch_count());
        std::optional<util::ThreadLease> lease;
        const std::size_t workers = acquire_workers(cap, lease);
        std::vector<ClientUpdate> updates(dispatch.size()); // slot-addressed
        if (!trainable.empty()) {
            train_clients(global, trainable, updates,
                          std::min(workers, trainable.size()));
        }

        // Enter this round's dispatches into the in-flight set, slot order.
        // `arrival` is relative to the round start; dropped dispatches
        // never arrive but do anchor this round's aggregation (the server
        // cannot know yet that they died).
        for (std::size_t slot = 0; slot < dispatch.size(); ++slot) {
            const DispatchInfo& info = dispatch[slot];
            InFlight entry;
            entry.seq = next_seq++;
            entry.base_round = round;
            entry.weight = info.weight;
            if (info.dropped) {
                entry.arrival = kNever;
                entry.dropped = true;
            } else {
                entry.arrival = info.seconds;
                entry.params = std::move(updates[slot].params);
                entry.stats = updates[slot].stats;
            }
            flight.push_back(std::move(entry));
        }

        // When does this round's aggregation fire? Walk pending arrivals in
        // time order (ties by dispatch order). `min_updates` counts *this
        // round's* dispatches — carried-over late updates merge
        // opportunistically when the trigger fires but never hasten it
        // (they land near t=0 and would otherwise collapse every round to
        // the overhead floor, aggregating nothing but stale state). 0 means
        // "every dispatched winner" — the synchronous barrier.
        std::vector<std::size_t> order; // indices into flight, arriving entries
        for (std::size_t i = 0; i < flight.size(); ++i) {
            if (!flight[i].dropped) order.push_back(i);
        }
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            if (flight[a].arrival != flight[b].arrival)
                return flight[a].arrival < flight[b].arrival;
            return flight[a].seq < flight[b].seq;
        });
        const std::size_t want_raw =
            async_.min_updates == 0 ? trainable.size() : async_.min_updates;
        const std::size_t want = std::max<std::size_t>(want_raw, 1);
        const bool deadline_active =
            async_.mode == RoundMode::semi_sync && async_.round_deadline_s > 0.0;

        double trigger = 0.0;
        if (!order.empty()) {
            // Arrival of the want-th fresh update, if dropouts leave that
            // many; the last fresh arrival otherwise.
            double reached = -1.0;
            double last_fresh = -1.0;
            std::size_t fresh_seen = 0;
            for (const std::size_t i : order) {
                if (flight[i].base_round != round) continue;
                last_fresh = flight[i].arrival;
                if (++fresh_seen == want) {
                    reached = flight[i].arrival;
                    break;
                }
            }
            if (reached >= 0.0) {
                trigger = reached;
                if (deadline_active && async_.round_deadline_s < trigger) {
                    // Deadline fires first — but never aggregate thin air:
                    // stretch to the first arrival when nothing landed yet.
                    trigger =
                        std::max(async_.round_deadline_s, flight[order[0]].arrival);
                }
            } else if (deadline_active) {
                // Dropouts make min_updates unreachable, but the server
                // cannot know that — it holds the round open to its
                // deadline (stretched to the first arrival when even that
                // brings nothing).
                trigger = std::max(async_.round_deadline_s, flight[order[0]].arrival);
            } else if (last_fresh >= 0.0) {
                // No deadline to wait for: close on the last fresh arrival.
                trigger = last_fresh;
            } else {
                // Only carried updates remain; close on the first so the
                // run still makes progress.
                trigger = flight[order[0]].arrival;
            }
        } else {
            // Pathological round: every dispatch (and everything carried)
            // dropped. Close the round at the deadline and move on with the
            // global unchanged.
            trigger = deadline_active ? async_.round_deadline_s : 0.0;
        }

        // Everything that has landed by the trigger participates, freshest
        // staleness first in dispatch order (== selection-slot order within
        // a round, which is what makes the no-straggler case bit-identical
        // to the sync coordinator's aggregation).
        std::vector<std::size_t> participants;
        for (const std::size_t i : order) {
            if (flight[i].arrival <= trigger) participants.push_back(i);
        }
        std::sort(participants.begin(), participants.end(),
                  [&](std::size_t a, std::size_t b) {
                      return flight[a].seq < flight[b].seq;
                  });

        // Staleness expiry has one authority — the carry loop below, which
        // never lets an entry survive past max_staleness — so everything
        // arriving here merges.
        std::vector<std::vector<float>> client_params;
        std::vector<double> client_weights;
        double train_loss_sum = 0.0;
        double train_loss_weight = 0.0;
        double staleness_sum = 0.0;
        const std::size_t merged = participants.size();
        for (const std::size_t i : participants) {
            InFlight& entry = flight[i];
            const std::size_t staleness = round - entry.base_round;
            const double decay =
                std::pow(1.0 + static_cast<double>(staleness), async_.staleness_alpha);
            const double weight = entry.weight / decay;
            client_params.push_back(std::move(entry.params));
            client_weights.push_back(weight);
            train_loss_sum += entry.stats.mean_loss * weight;
            train_loss_weight += weight;
            staleness_sum += static_cast<double>(staleness);
        }

        // Clients the server has not heard from anchor the current global
        // at full data weight — absent winners implicitly vote "no change",
        // so a thin aggregation takes a proportionally small step instead
        // of being yanked toward whichever client happened to be fastest.
        double anchor = 0.0;
        for (const InFlight& entry : flight) {
            if (!entry.dropped && entry.arrival <= trigger) continue; // merged
            anchor += entry.weight;
        }
        if (merged > 0) {
            if (anchor > 0.0) {
                client_params.push_back(global);
                client_weights.push_back(anchor);
            }
            global = federated_average(client_params, client_weights);
            model_.set_parameters(global);
        }

        // Metrics mirror the sync coordinator's definitions; payment/score
        // average over the round's *selection* in slot order (the auction
        // happened and the payments are owed regardless of who finished in
        // time).
        for (const DispatchInfo& info : dispatch) {
            metrics.mean_winner_payment += info.payment;
            metrics.mean_winner_score += info.score;
        }
        const auto n_sel = static_cast<double>(picked.size());
        metrics.mean_winner_payment /= n_sel;
        metrics.mean_winner_score /= n_sel;

        const ml::EvalStats eval = evaluate_global(workers, global);
        metrics.test_accuracy = eval.accuracy;
        metrics.test_loss = eval.mean_loss;
        metrics.train_loss =
            train_loss_weight > 0.0 ? train_loss_sum / train_loss_weight : 0.0;
        metrics.aggregated_updates = merged;
        metrics.mean_staleness =
            merged > 0 ? staleness_sum / static_cast<double>(merged) : 0.0;
        metrics.round_seconds = trigger + async_.round_overhead_s;
        metrics.round_seconds += async_.auction_overhead_s;
        result.rounds.push_back(std::move(metrics));

        // Carry the survivors: drop what merged, expired or died, and
        // rebase arrivals onto the next round's clock (clients keep
        // computing through the aggregation overhead, hence the floor).
        const double elapsed = result.rounds.back().round_seconds;
        std::vector<InFlight> carried;
        carried.reserve(flight.size());
        for (InFlight& entry : flight) {
            if (entry.dropped) continue;
            if (entry.arrival <= trigger) continue;
            const std::size_t next_staleness = round + 1 - entry.base_round;
            if (async_.max_staleness > 0 && next_staleness > async_.max_staleness)
                continue;
            entry.arrival = std::max(0.0, entry.arrival - elapsed);
            carried.push_back(std::move(entry));
        }
        flight = std::move(carried);

        if (control && control->on_round) {
            // Snapshot the carry state exactly as the next round will see
            // it: dropped entries are already gone, arrivals are rebased.
            std::vector<InFlightUpdate> carry;
            carry.reserve(flight.size());
            for (const InFlight& entry : flight) {
                InFlightUpdate u;
                u.seq = entry.seq;
                u.base_round = entry.base_round;
                u.weight = entry.weight;
                u.arrival = entry.arrival;
                u.dropped = entry.dropped;
                u.params = entry.params;
                u.stats = entry.stats;
                carry.push_back(std::move(u));
            }
            control->on_round(round, result.rounds, global, carry, next_seq);
        }
    }
    return result;
}

} // namespace fmore::fl
