#include "fmore/stats/chunk_replay.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fmore/util/thread_pool.hpp"

namespace fmore::stats {

namespace {

/// What the replays wait on: the walk's progress and the prepare tasks. The
/// walk and the prepare tasks never wait, and they hold the lowest
/// `parallel_for` indices, so whatever thread count the pool grants, each is
/// claimed (and runs to its end) before any replay that waits on it.
class Board {
public:
    /// The walk copied chunk `published - 1`'s start; `chunks + 1` once it
    /// reached the end.
    void publish(std::size_t published) {
        const std::lock_guard<std::mutex> lock(mutex_);
        published_ = published;
        cv_.notify_all();
    }
    void prepared() {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++prepared_;
        cv_.notify_all();
    }
    /// The walk or a prepare task threw: nothing waits for them any more.
    void fail() {
        const std::lock_guard<std::mutex> lock(mutex_);
        failed_ = true;
        cv_.notify_all();
    }
    /// Blocks until the walk has published `published` and `prepared` tasks
    /// are done; false when the pass failed instead.
    bool wait_for(std::size_t published, std::size_t prepared) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
            return failed_ || (published_ >= published && prepared_ >= prepared);
        });
        return !failed_;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t published_ = 0;
    std::size_t prepared_ = 0;
    bool failed_ = false;
};

/// Runs `fn`, telling `board` when it throws.
template <class Fn>
void failing_to(Board& board, Fn&& fn) {
    try {
        fn();
    } catch (...) {
        board.fail();
        throw;
    }
}

} // namespace

void draw_in_chunks(Rng& rng, const ChunkedPass& pass) {
    if (pass.chunk_items == 0)
        throw std::invalid_argument("draw_in_chunks: chunk_items must be >= 1");
    const std::size_t chunks = (pass.items + pass.chunk_items - 1) / pass.chunk_items;
    const std::size_t threads = chunks <= 1 ? 1 : util::resolve_round_threads(0, chunks);
    if (threads <= 1) {
        for (std::size_t task = 0; task < pass.prepare_tasks; ++task) pass.prepare(task);
        if (pass.items > 0) pass.draw(rng, 0, pass.items);
        return;
    }

    const auto bounds = [&](std::size_t chunk) {
        const std::size_t lo = chunk * pass.chunk_items;
        return std::pair{lo, std::min(pass.items, lo + pass.chunk_items)};
    };
    std::vector<std::optional<Rng>> starts(chunks);
    Board board;
    const std::size_t first_replay = 1 + pass.prepare_tasks;
    util::ThreadPool::shared().parallel_for(
        first_replay + chunks, threads - 1, [&](std::size_t, std::size_t index) {
            if (index == 0) {
                failing_to(board, [&] {
                    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
                        starts[chunk].emplace(rng);
                        board.publish(chunk + 1);
                        const auto [lo, hi] = bounds(chunk);
                        pass.walk(rng, lo, hi);
                    }
                });
                board.publish(chunks + 1);
                return;
            }
            if (index < first_replay) {
                failing_to(board, [&] { pass.prepare(index - 1); });
                board.prepared();
                return;
            }
            const std::size_t chunk = index - first_replay;
            if (!board.wait_for(chunk + 1, pass.prepare_tasks)) return;
            Rng replay = *starts[chunk];
            const auto [lo, hi] = bounds(chunk);
            pass.draw(replay, lo, hi);
            if (!board.wait_for(chunk + 2, pass.prepare_tasks)) return;
            Rng& expected = chunk + 1 < chunks ? *starts[chunk + 1] : rng;
            if (replay.engine() != expected.engine())
                throw std::logic_error("draw_in_chunks: the replay of items ["
                                       + std::to_string(lo) + ", " + std::to_string(hi)
                                       + ") ended off the walk: the walk miscounts the "
                                         "draws of those items");
        });
}

} // namespace fmore::stats
