#include "fmore/core/trials.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "fmore/core/report.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore::core {

AveragedSeries average_runs(const std::vector<fl::RunResult>& runs) {
    if (runs.empty()) throw std::invalid_argument("average_runs: no runs");
    const std::size_t rounds = runs.front().rounds.size();
    for (const fl::RunResult& run : runs) {
        if (run.rounds.size() != rounds)
            throw std::invalid_argument("average_runs: round count mismatch");
    }
    AveragedSeries out;
    out.accuracy.assign(rounds, 0.0);
    out.loss.assign(rounds, 0.0);
    out.payment.assign(rounds, 0.0);
    out.score.assign(rounds, 0.0);
    out.seconds.assign(rounds, 0.0);
    const double inv = 1.0 / static_cast<double>(runs.size());
    for (const fl::RunResult& run : runs) {
        for (std::size_t r = 0; r < rounds; ++r) {
            out.accuracy[r] += inv * run.rounds[r].test_accuracy;
            out.loss[r] += inv * run.rounds[r].test_loss;
            out.payment[r] += inv * run.rounds[r].mean_winner_payment;
            out.score[r] += inv * run.rounds[r].mean_winner_score;
            out.seconds[r] += inv * run.rounds[r].round_seconds;
        }
    }
    out.cumulative_seconds.assign(rounds, 0.0);
    double acc = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        acc += out.seconds[r];
        out.cumulative_seconds[r] = acc;
    }
    return out;
}

double mean_rounds_to_accuracy(const std::vector<fl::RunResult>& runs, double target,
                               std::size_t penalty_rounds) {
    if (runs.empty()) throw std::invalid_argument("mean_rounds_to_accuracy: no runs");
    double total = 0.0;
    for (const fl::RunResult& run : runs) {
        const std::size_t penalty =
            penalty_rounds > 0 ? penalty_rounds : run.rounds.size();
        const auto reached = run.rounds_to_accuracy(target);
        total += static_cast<double>(reached.value_or(penalty));
    }
    return total / static_cast<double>(runs.size());
}

double mean_seconds_to_accuracy(const std::vector<fl::RunResult>& runs, double target) {
    if (runs.empty()) throw std::invalid_argument("mean_seconds_to_accuracy: no runs");
    double total = 0.0;
    for (const fl::RunResult& run : runs) {
        total += run.seconds_to_accuracy(target).value_or(run.total_seconds());
    }
    return total / static_cast<double>(runs.size());
}

void print_accuracy_loss(std::ostream& out, const std::vector<NamedSeries>& all) {
    if (all.empty()) throw std::invalid_argument("print_accuracy_loss: no series");
    std::vector<std::string> headers{"round"};
    for (const NamedSeries& s : all) headers.push_back(s.name + "_acc");
    for (const NamedSeries& s : all) headers.push_back(s.name + "_loss");
    TablePrinter table(out, headers);
    const std::size_t rounds = all.front().series.rounds();
    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<double> row{static_cast<double>(r + 1)};
        for (const NamedSeries& s : all) row.push_back(s.series.accuracy[r]);
        for (const NamedSeries& s : all) row.push_back(s.series.loss[r]);
        table.row(row);
    }
}

std::size_t bench_trial_count(std::size_t fallback) {
    if (const char* env = std::getenv("FMORE_BENCH_TRIALS")) {
        const long v = std::atol(env);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return fallback;
}

std::size_t resolve_trial_threads(std::size_t requested, std::size_t trials) {
    if (trials <= 1) return trials;
    std::size_t threads = requested;
    if (threads == 0) {
        if (const char* env = std::getenv("FMORE_TRIAL_THREADS")) {
            const long v = std::atol(env);
            if (v > 0) threads = static_cast<std::size_t>(v);
        }
    }
    if (threads == 0) {
        // The process-wide budget (FMORE_THREADS, else the hardware
        // concurrency) — so the documented cap actually binds the default
        // sizing; only an explicit request can overdraw it.
        threads = util::thread_budget();
    }
    return std::min(threads, trials);
}

std::vector<fl::RunResult> run_trials(std::size_t trials, const TrialFn& fn,
                                      const TrialRunnerOptions& options) {
    if (!fn) throw std::invalid_argument("run_trials: null trial function");
    std::vector<fl::RunResult> results(trials);
    if (trials == 0) return results;

    const std::size_t threads = resolve_trial_threads(options.threads, trials);
    if (threads <= 1) {
        for (std::size_t t = 0; t < trials; ++t) results[t] = fn(t);
        return results;
    }

    // Register the workers with the process-wide thread budget for the
    // sweep's duration: round-level parallelism inside each trial
    // auto-sizes from what is left, so trials x clients never
    // oversubscribes the machine.
    const util::ThreadLease lease(threads, /*exact=*/true);

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        // This thread is one of the lease's counted workers; nested
        // round-level auto-sizing must not bill it a second slot.
        const util::CountedThreadScope counted;
        for (;;) {
            const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
            if (t >= trials) return;
            try {
                results[t] = fn(t);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
                // Fail fast: exhaust the counter so other workers stop
                // claiming instead of finishing the whole sweep.
                next.store(trials, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    try {
        for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    } catch (...) {
        // Thread creation failed (resource limits); drain the workers that
        // did start, then propagate — never destroy a joinable thread.
        next.store(trials, std::memory_order_relaxed);
        for (std::thread& th : pool) th.join();
        throw;
    }
    for (std::thread& th : pool) th.join();
    if (first_error) std::rethrow_exception(first_error);
    return results;
}

std::vector<fl::RunResult> run_experiment_trials(const ExperimentSpec& spec,
                                                 const std::string& policy,
                                                 std::size_t trials,
                                                 const TrialRunnerOptions& options) {
    // Validate once up front so a bad spec fails with the full message list
    // instead of one exception per worker thread.
    validate_or_throw(spec);
    return run_trials(
        trials,
        [&spec, &policy](std::size_t t) {
            ExperimentTrial trial(spec, t);
            return trial.run(policy);
        },
        options);
}

AveragedSeries averaged_experiment(const ExperimentSpec& spec, const std::string& policy,
                                   std::size_t trials, const TrialRunnerOptions& options) {
    return average_runs(run_experiment_trials(spec, policy, trials, options));
}

} // namespace fmore::core
