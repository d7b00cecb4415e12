#pragma once

/// @file chunk_replay.hpp
/// One long pass of draws from an `Rng`, spread over the shared pool.
///
/// A world build (a population store's nodes, a data set's samples) draws
/// its items in order from one mt19937_64. Only the engine is serial: a
/// chunk of items can be drawn anywhere from a copy of the engine taken at
/// the chunk's first draw. `draw_in_chunks` runs a pass in three parts:
///
///  - walk: one thread advances the caller's engine past each chunk exactly
///    as the real draws would, computing nothing else, and keeps a copy of
///    the engine at each chunk start;
///  - replay: pool threads run the pass's unchanged per-item draw code over
///    each chunk from its copy;
///  - check: each chunk's engine must end equal to the next chunk's copy (the
///    walk's end state for the last chunk), else the pass throws.
///
/// Results, and the caller's engine afterwards, are bit-identical to drawing
/// every item on the calling thread, which is what the pass does when it
/// gets one thread (`util::resolve_round_threads`: a trial lease that holds
/// the budget, `FMORE_ROUND_THREADS=1`, a forked child, or one chunk), with
/// no walk.

#include <cstddef>
#include <functional>

#include "fmore/stats/rng.hpp"

namespace fmore::stats {

/// A pass of `items` items that take their draws in order from one `Rng`.
struct ChunkedPass {
    std::size_t items = 0;
    /// Items per replayed chunk; each chunk start costs one engine copy.
    std::size_t chunk_items = 1;
    /// Output set-up that takes no draws (sizing the columns the draws
    /// fill), as `prepare_tasks` independent calls `prepare(task)`. On the
    /// pool they run beside the walk; every replay starts after all of them.
    std::size_t prepare_tasks = 0;
    std::function<void(std::size_t task)> prepare;
    /// Advance `rng` past items [lo, hi) exactly as `draw` would, taking the
    /// same engine outputs and computing nothing it does not need to.
    std::function<void(Rng& rng, std::size_t lo, std::size_t hi)> walk;
    /// The per-item draw code: draw items [lo, hi) from `rng`, in order.
    std::function<void(Rng& rng, std::size_t lo, std::size_t hi)> draw;
};

/// Runs `pass` on the calling thread and the shared pool, leaving `rng` where
/// drawing every item in order leaves it.
/// @throws std::logic_error when a chunk's replay ends off the walk (a walk
///         that miscounts the draws of `draw`); whatever `prepare`, `walk` or
///         `draw` throws
void draw_in_chunks(Rng& rng, const ChunkedPass& pass);

} // namespace fmore::stats
