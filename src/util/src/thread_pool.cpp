#include "fmore/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

namespace fmore::util {

namespace {

std::size_t env_threads(const char* name) {
    if (const char* env = std::getenv(name)) {
        const long v = std::atol(env);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return 0;
}

} // namespace

std::size_t thread_budget() {
    static const std::size_t budget = [] {
        if (const std::size_t env = env_threads("FMORE_THREADS")) return env;
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<std::size_t>(hw) : std::size_t{1};
    }();
    return budget;
}

// ---------------------------------------------------------------------------
// ThreadBudget
// ---------------------------------------------------------------------------

struct ThreadBudget::Impl {
    std::atomic<std::size_t> claimed{0};
};

ThreadBudget::Impl& ThreadBudget::impl() const {
    static Impl impl;
    return impl;
}

ThreadBudget& ThreadBudget::instance() {
    static ThreadBudget budget;
    return budget;
}

std::size_t ThreadBudget::total() const { return thread_budget(); }

std::size_t ThreadBudget::claimed() const {
    return impl().claimed.load(std::memory_order_relaxed);
}

std::size_t ThreadBudget::available() const {
    const std::size_t used = claimed();
    const std::size_t all = total();
    return used >= all ? 0 : all - used;
}

std::size_t ThreadBudget::try_claim(std::size_t want) {
    if (want == 0) return 0;
    std::atomic<std::size_t>& used = impl().claimed;
    std::size_t current = used.load(std::memory_order_relaxed);
    for (;;) {
        const std::size_t free = current >= total() ? 0 : total() - current;
        const std::size_t grant = std::min(want, free);
        if (grant == 0) return 0;
        if (used.compare_exchange_weak(current, current + grant,
                                       std::memory_order_relaxed)) {
            return grant;
        }
    }
}

void ThreadBudget::claim_exact(std::size_t count) {
    impl().claimed.fetch_add(count, std::memory_order_relaxed);
}

void ThreadBudget::release(std::size_t count) {
    impl().claimed.fetch_sub(count, std::memory_order_relaxed);
}

namespace {
thread_local bool t_thread_counted = false;
} // namespace

bool ThreadBudget::current_thread_counted() { return t_thread_counted; }

CountedThreadScope::CountedThreadScope() : previous_(t_thread_counted) {
    t_thread_counted = true;
}

CountedThreadScope::~CountedThreadScope() { t_thread_counted = previous_; }

ThreadLease::ThreadLease(std::size_t want)
    : granted_(ThreadBudget::instance().try_claim(want)) {}

ThreadLease::ThreadLease(std::size_t count, bool exact) {
    if (exact) {
        ThreadBudget::instance().claim_exact(count);
        granted_ = count;
    } else {
        granted_ = ThreadBudget::instance().try_claim(count);
    }
}

ThreadLease::~ThreadLease() {
    if (granted_ > 0) ThreadBudget::instance().release(granted_);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

namespace {

/// Shared state of one parallel_for call. Kept alive by shared_ptr: late
/// pool workers may touch it after the caller has already returned.
struct ForState {
    std::size_t n = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;

    /// Claim and run indices until the range is exhausted. Every index is
    /// claimed exactly once and counted in `done` whether it ran, failed or
    /// was skipped after a failure, so the caller's wait always terminates;
    /// the first exception parks in `error` and the rest are skipped.
    void drive(std::size_t slot) {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            if (!failed.load(std::memory_order_relaxed)) {
                try {
                    (*fn)(slot, i);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(mutex);
                    if (!error) error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 >= n) {
                const std::lock_guard<std::mutex> lock(mutex);
                cv.notify_all();
            }
        }
    }

    [[nodiscard]] bool complete() const {
        return done.load(std::memory_order_acquire) >= n;
    }
};

} // namespace

struct ThreadPool::Impl {
    /// The process that started the workers. A forked child inherits this
    /// object but none of its threads, and the mutex or condition variable
    /// may be mid-use by a thread that no longer exists there.
    pid_t owner = ::getpid();
    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
    std::condition_variable cv;
    bool stop = false;
    /// Workers that have finished starting (guarded by `mutex`).
    std::size_t started = 0;
    std::condition_variable started_cv;

    void worker_loop() {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            ++started;
        }
        started_cv.notify_all();
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [this] { return stop || !queue.empty(); });
                if (stop && queue.empty()) return;
                job = std::move(queue.front());
                queue.pop_front();
            }
            job();
        }
    }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(std::make_unique<Impl>()) {
    impl_->workers.reserve(workers);
    try {
        for (std::size_t i = 0; i < workers; ++i) {
            impl_->workers.emplace_back([this] { impl_->worker_loop(); });
        }
    } catch (...) {
        // Thread creation hit a resource limit: run with what started.
        if (impl_->workers.empty()) throw;
    }
    // Return only once every worker has started: a thread still starting
    // can hold a lock of the allocator or the runtime, and a process that
    // forks right after starting the pool (`ProcessShardAggregator`) would
    // hand its child that lock held, and the child would hang on its first
    // allocation (seen under AddressSanitizer).
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->started_cv.wait(lock, [this] { return impl_->started == impl_->workers.size(); });
}

ThreadPool::~ThreadPool() {
    // In a forked child (static destruction at exit) the workers do not
    // exist: joining them or touching their mutex could hang, so the child
    // leaves the state to the process teardown.
    if (::getpid() != impl_->owner) {
        (void)impl_.release();
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stop = true;
    }
    impl_->cv.notify_all();
    for (std::thread& t : impl_->workers) t.join();
}

std::size_t ThreadPool::worker_count() const { return impl_->workers.size(); }

void ThreadPool::parallel_for(
    std::size_t n, std::size_t max_workers,
    const std::function<void(std::size_t, std::size_t)>& fn) {
    if (n == 0) return;
    if (!fn) throw std::invalid_argument("ThreadPool::parallel_for: null function");

    // Serial fast path: no helpers wanted, nothing to split, or a process
    // other than the pool's owner (a forked child), checked before the
    // pool's mutex is touched.
    if (max_workers == 0 || n == 1 || impl_->workers.empty()
        || ::getpid() != impl_->owner) {
        for (std::size_t i = 0; i < n; ++i) fn(0, i);
        return;
    }

    auto state = std::make_shared<ForState>();
    state->n = n;
    state->fn = &fn;

    const std::size_t helpers =
        std::min({max_workers, impl_->workers.size(), n - 1});
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        for (std::size_t h = 0; h < helpers; ++h) {
            impl_->queue.emplace_back([state, slot = h + 1] { state->drive(slot); });
        }
    }
    impl_->cv.notify_all();

    state->drive(0);

    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->cv.wait(lock, [&state] { return state->complete(); });
    }
    // `fn` outlives the helpers from here on: every claimed index has
    // finished and unclaimed ones can no longer start (next >= n). A late
    // helper only observes next >= n and returns.
    if (state->error) std::rethrow_exception(state->error);
}

namespace {
/// The process that started the shared pool; 0 until it is started.
std::atomic<pid_t> g_shared_owner{0};
} // namespace

ThreadPool& ThreadPool::shared() {
    // At least 8 lanes so explicit FMORE_ROUND_THREADS overrides can be
    // exercised on small machines; capped so a huge budget does not spawn
    // hundreds of mostly-idle workers. Minus one: the caller is a lane.
    static ThreadPool pool([] {
        g_shared_owner.store(::getpid(), std::memory_order_relaxed);
        return std::min<std::size_t>(std::max<std::size_t>(thread_budget(), 8), 32) - 1;
    }());
    return pool;
}

std::size_t explicit_round_threads(std::size_t requested) {
    if (requested > 0) return requested;
    return env_threads("FMORE_ROUND_THREADS");
}

std::size_t resolve_round_threads(std::size_t requested, std::size_t tasks) {
    if (tasks <= 1) return 1;
    // A forked child of the shared pool's process: the pool runs every
    // index on the calling thread there, so one thread is what it gets.
    const pid_t owner = g_shared_owner.load(std::memory_order_relaxed);
    if (owner != 0 && owner != ::getpid()) return 1;
    std::size_t threads = explicit_round_threads(requested);
    if (threads == 0) {
        // The caller always works; it consumes one of the free slots
        // itself unless an outer lease (trial runner) already counted it.
        const std::size_t free = ThreadBudget::instance().available();
        threads = ThreadBudget::current_thread_counted()
                      ? 1 + free
                      : std::max<std::size_t>(1, free);
    }
    return std::max<std::size_t>(1, std::min(threads, tasks));
}

} // namespace fmore::util
