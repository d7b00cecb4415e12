#pragma once

/// @file thread_pool.hpp
/// The process-wide execution substrate behind every level of parallelism
/// in the repo. Two pieces:
///
///  - `ThreadBudget` — one global accounting of how many worker threads the
///    process may run at once (`FMORE_THREADS` override, else the hardware
///    concurrency). The trial runner (`core/trials.*`) and the round-level
///    parallelism in `fl::Coordinator` both lease workers from it, which is
///    what keeps nested parallelism (trials x clients) from oversubscribing
///    the machine: when the trial level has claimed every slot, rounds run
///    serial, and vice versa.
///
///  - `ThreadPool` — a shared task-queue pool whose `parallel_for` always
///    has the *calling* thread participate, so progress is guaranteed even
///    when every pool worker is busy with someone else's batch (several
///    trial workers can drive round-level loops through the one shared pool
///    concurrently without deadlock).
///
/// Thread counts never influence results anywhere in the repo: work is
/// claimed dynamically but written into index-addressed slots and reduced
/// in a fixed order, so outputs are bit-identical from 1 thread to N.

#include <cstddef>
#include <functional>
#include <memory>

namespace fmore::util {

/// Total worker-thread budget of this process: the `FMORE_THREADS`
/// environment variable when set to a positive integer, otherwise
/// `std::thread::hardware_concurrency()`; always >= 1. Read once and
/// cached.
[[nodiscard]] std::size_t thread_budget();

/// Process-wide ledger of claimed worker threads. Levels that spawn or
/// occupy workers (the trial runner, the round-level client loop) register
/// their claim here so sibling and nested levels can size themselves from
/// what is actually left.
class ThreadBudget {
public:
    [[nodiscard]] static ThreadBudget& instance();

    /// Total budget (== `thread_budget()`).
    [[nodiscard]] std::size_t total() const;

    /// Workers currently claimed across the process (may transiently exceed
    /// `total()` when a caller insists via an explicit override).
    [[nodiscard]] std::size_t claimed() const;

    /// Budget still unclaimed, floored at 0.
    [[nodiscard]] std::size_t available() const;

    /// Claim up to `want` workers; returns how many were granted
    /// (`min(want, available())`, atomically). Pair with `release`.
    [[nodiscard]] std::size_t try_claim(std::size_t want);

    /// Claim exactly `count` workers even if that overdraws the budget —
    /// used for explicit user overrides (FMORE_TRIAL_THREADS /
    /// FMORE_ROUND_THREADS), which must be honoured but still visible to
    /// the auto-sizing of other levels.
    void claim_exact(std::size_t count);

    void release(std::size_t count);

    /// True when the calling thread is itself one of the budget's counted
    /// workers (it runs inside a `CountedThreadScope`, e.g. a trial-runner
    /// worker). Nested levels use this to decide whether the caller still
    /// needs a slot of its own.
    [[nodiscard]] static bool current_thread_counted();

private:
    ThreadBudget() = default;
    struct Impl;
    [[nodiscard]] Impl& impl() const;
};

/// RAII lease of worker threads from the global budget.
class ThreadLease {
public:
    /// Claim up to `want` workers (`granted() <= want`).
    explicit ThreadLease(std::size_t want);
    /// Exact claim for explicit overrides (see ThreadBudget::claim_exact).
    ThreadLease(std::size_t count, bool exact);
    ~ThreadLease();
    ThreadLease(const ThreadLease&) = delete;
    ThreadLease& operator=(const ThreadLease&) = delete;

    [[nodiscard]] std::size_t granted() const { return granted_; }

private:
    std::size_t granted_ = 0;
};

/// RAII marker: the current thread is one of the workers a ThreadLease
/// counted (see ThreadBudget::current_thread_counted). The trial runner
/// wraps each worker's loop in one so round-level auto-sizing knows the
/// caller is already paid for.
class CountedThreadScope {
public:
    CountedThreadScope();
    ~CountedThreadScope();
    CountedThreadScope(const CountedThreadScope&) = delete;
    CountedThreadScope& operator=(const CountedThreadScope&) = delete;

private:
    bool previous_;
};

/// Fixed-size task-queue thread pool.
///
/// `parallel_for` partitions [0, n) dynamically (atomic work stealing) over
/// at most `max_workers` pool workers *plus the calling thread*; the caller
/// always participates, so the call completes even with zero free workers.
/// `fn(slot, index)` receives a dense worker-slot id (0 = the caller,
/// 1..max_workers = pool workers) so callers can keep per-worker scratch
/// (e.g. a thread-local model clone) without thread-id maps. Slots are
/// stable within one `parallel_for` call only.
///
/// The first exception thrown by any task aborts the remaining indices and
/// is rethrown on the calling thread.
///
/// A pool belongs to the process that constructed it. A child forked from
/// that process inherits the object but not its threads, so there
/// `parallel_for` runs every index on the calling thread, without touching
/// the pool's locks, and the destructor leaves the workers alone.
class ThreadPool {
public:
    /// Starts `workers` threads (fewer when thread creation hits a resource
    /// limit, none only by throwing) and returns once each has started, so
    /// a fork right after it inherits no lock a starting thread held.
    explicit ThreadPool(std::size_t workers);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t worker_count() const;

    void parallel_for(std::size_t n, std::size_t max_workers,
                      const std::function<void(std::size_t slot, std::size_t index)>& fn);

    /// The process-wide shared pool. Sized generously (at least 8 workers)
    /// so explicit FMORE_ROUND_THREADS overrides can exercise real
    /// concurrency even on small machines; auto-sized callers are expected
    /// to cap themselves with the ThreadBudget, not with the pool size.
    [[nodiscard]] static ThreadPool& shared();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The explicit round-thread request: `requested` when > 0, else a
/// positive `FMORE_ROUND_THREADS` environment value, else 0 (auto). Auto
/// callers should size themselves by *claiming* from the ThreadBudget (a
/// ThreadLease), not by reading `available()` — concurrent readers would
/// all see the same remainder and collectively overdraw it.
[[nodiscard]] std::size_t explicit_round_threads(std::size_t requested);

/// Advisory resolution of the worker count for one round-level parallel
/// section over `tasks` units of work: the explicit request when present,
/// else the caller (plus its own budget slot when not already counted)
/// plus whatever the ThreadBudget currently has free. Always in [1, tasks]
/// (0 tasks resolves to 1), and 1 in a child forked from the process that
/// started the shared pool, where `parallel_for` runs serially. Advisory
/// only — it does not claim; use it for sizing decisions that are not worth
/// a lease.
[[nodiscard]] std::size_t resolve_round_threads(std::size_t requested, std::size_t tasks);

} // namespace fmore::util
