#include "fmore/mec/shard_aggregator.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>

#include "fmore/auction/mechanism.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/stream_round.hpp"
#include "fmore/mec/wire_format.hpp"
#include "fmore/util/pages.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {

namespace {

using wire::FrameHeader;
using wire::FrameType;
using wire::ReadStatus;
using wire::RoundRequest;
using wire::StreamExtra;

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out.insert(out.end(), p, p + size);
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    append_bytes(out, &v, sizeof(v));
}

/// Writes to a peer that died must surface as EPIPE, not a fatal SIGPIPE —
/// eviction logic is the error handler. Installed once, and only when the
/// process has not set its own handler.
void ignore_sigpipe() {
    struct sigaction current {};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0
        && current.sa_handler == SIG_DFL) {
        struct sigaction ignore {};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, nullptr);
    }
}

} // namespace

struct ProcessShardAggregator::Impl {
    const auction::ScoringRule& scoring;
    const auction::EquilibriumStrategy& strategy;
    auction::WinnerDeterminationConfig wd;
    QualityLayout layout;
    bool strategy_scores_broadcast_rule = false;
    double timeout_s = 0.0;
    std::size_t n = 0;
    ShardSupervisorConfig sup;

    struct Worker {
        pid_t pid = -1;
        int req_fd = -1;   ///< aggregator -> worker
        int resp_fd = -1;  ///< worker -> aggregator
        bool alive = false;
        bool retired = false;  ///< respawn budget exhausted — permanent
        std::size_t respawns = 0;
        /// First round index this worker may be re-forked at. Keyed to the
        /// ROUND counter, not wall-clock, so a fault plan's respawn
        /// schedule replays identically run-to-run under any machine load.
        std::size_t resume_round = 0;
    };
    std::vector<Worker> workers;
    /// Fork sources for respawn: the pristine round-0 shards, narrowed to
    /// the layout like the workers' own and taken after the initial forks
    /// so no initial worker maps them. Empty when respawns are disabled (no
    /// memory retained).
    std::vector<PopulationStore> pristine;
    /// Drift salts of rounds 2..latest, in order — replaying them over a
    /// pristine shard reproduces the current shard state bit-exactly.
    std::vector<std::uint64_t> salt_history;
    /// Every ban ever shipped, in ship order (respawn sync).
    std::vector<auction::NodeId> all_bans;

    Blacklist banned_set;  ///< aggregator's view, for dedup and the m count
    std::vector<auction::NodeId> pending_bans;  ///< not yet shipped
    std::vector<std::size_t> last_dropped;
    std::size_t dead = 0;
    ShardHealth last_health;
    ShardHealth lifetime;
    /// Round being assembled — the eviction backoff's time base.
    std::size_t current_round = 0;
    /// Close telemetry of the most recent streaming round.
    StreamCloseDecision last_close;

    std::unique_ptr<auction::Mechanism> mechanism;
    std::size_t mechanism_k = static_cast<std::size_t>(-1);
    const auction::ScoreAuctionMechanism* engine = nullptr;
    std::vector<auction::ShardHead> heads;
    auction::RankScratch scratch;
    auction::AuctionOutcome outcome;

    Impl(const auction::ScoringRule& scoring_in,
         const auction::EquilibriumStrategy& strategy_in,
         auction::WinnerDeterminationConfig wd_in, QualityLayout layout_in,
         ShardSupervisorConfig sup_in)
        : scoring(scoring_in),
          strategy(strategy_in),
          wd(std::move(wd_in)),
          layout(std::move(layout_in)),
          sup(std::move(sup_in)) {}

    /// Idempotent fd close — a second eviction (or the destructor after
    /// one) must not close an unrelated fd that re-used the number.
    static void close_fds(Worker& w) {
        if (w.req_fd >= 0) ::close(w.req_fd);
        if (w.resp_fd >= 0) ::close(w.resp_fd);
        w.req_fd = -1;
        w.resp_fd = -1;
    }

    /// Round boundaries an evicted shard sits out before re-forking:
    /// ceil(backoff * 2^min(respawns, 6)). A pure function of the config
    /// and the shard's respawn count — the respawn schedule is part of the
    /// deterministic replay, unlike the wall-clock delay it replaces.
    std::size_t backoff_rounds(std::size_t attempt) const {
        if (!(sup.respawn_backoff_s > 0.0)) return 0;
        const double factor = static_cast<double>(1u << std::min<std::size_t>(attempt, 6));
        return static_cast<std::size_t>(std::ceil(sup.respawn_backoff_s * factor));
    }

    void evict(std::size_t s) {
        Worker& w = workers[s];
        if (!w.alive) return;
        // A half-read pipe cannot be resynchronized mid-round: kill, close,
        // reap. The supervisor may re-fork the shard at a later round
        // boundary and re-sync it from the salt history.
        if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            int status = 0;
            ::waitpid(w.pid, &status, 0);
        }
        close_fds(w);
        w.alive = false;
        w.pid = -1;
        ++dead;
        ++last_health.evictions;
        if (sup.max_respawns > 0)
            w.resume_round = current_round + 1 + backoff_rounds(w.respawns);
    }

    /// Supervisor pass at a round boundary: re-fork eligible evicted
    /// workers and re-sync them from the salt history + ban list.
    void respawn_pass(std::size_t round) {
        if (sup.max_respawns == 0) return;
        for (std::size_t s = 0; s < workers.size(); ++s) {
            Worker& w = workers[s];
            if (w.alive || w.retired) continue;
            if (w.respawns >= sup.max_respawns) {
                w.retired = true;
                continue;
            }
            if (round < w.resume_round) continue;
            // The child moves its own pristine split; the others stay out
            // of its fork.
            std::vector<util::ByteRange> others;
            for (std::size_t t = 0; t < pristine.size(); ++t) {
                if (t == s) continue;
                const std::vector<util::ByteRange> split =
                    pristine[t].column_bytes(0, pristine[t].size());
                others.insert(others.end(), split.begin(), split.end());
            }
            if (!spawn(s, others, [&] { return std::move(pristine[s]); })) {
                w.retired = true;
                continue;
            }
            ++w.respawns;
            ++last_health.respawns;
            if (!sync_worker(s)) evict(s);
        }
    }

    /// Forks worker `s` with the whole pages of `hide` left out of the
    /// child (`util::ForkExclusion`, lifted again before this returns). The
    /// child builds its shard with `make_shard()` after the fork, so the
    /// copy lands in that child alone; it reads nothing in `hide`.
    template <class MakeShard>
    bool spawn(std::size_t s, const std::vector<util::ByteRange>& hide,
               const MakeShard& make_shard);
    bool sync_worker(std::size_t s);

    const auction::ScoreAuctionMechanism* engine_for(std::size_t k) {
        if (!mechanism || mechanism_k != k) {
            auction::WinnerDeterminationConfig with_k = wd;
            with_k.num_winners = k;
            mechanism = auction::make_mechanism(with_k);
            mechanism_k = k;
            if (typeid(*mechanism) != typeid(auction::ScoreAuctionMechanism))
                throw std::invalid_argument(
                    "ProcessShardAggregator: spec resolves to mechanism '"
                    + mechanism->name()
                    + "', not the exact built-in score-auction engine the shard "
                      "workers replicate");
            engine = static_cast<const auction::ScoreAuctionMechanism*>(mechanism.get());
        }
        return engine;
    }
};

namespace {

/// Everything a forked worker runs: the per-shard half of each round, over
/// the shard store it built after the fork. Serial: the shared thread pool
/// belongs to the coordinator, which starts it before its first fork, and
/// runs every `parallel_for` on the calling thread in any other process.
[[noreturn]] void worker_main(int req_fd, int resp_fd, PopulationStore shard,
                              const auction::ScoringRule& scoring,
                              const auction::EquilibriumStrategy& strategy,
                              const QualityLayout& layout,
                              bool strategy_scores_broadcast_rule,
                              auction::PaymentMethod payment_method,
                              std::size_t shard_index,
                              const util::FaultInjector& faults) {
    ::signal(SIGPIPE, SIG_IGN);
    // Every worker hears every ban; it keeps only its own rows' ids, so its
    // blacklist spans at most its rows whatever ids the frames carry.
    const std::size_t first_node = shard.node_offset();
    Blacklist banned(first_node);
    const auto take_bans = [&](const wire::PackedU64s& ids) {
        for (std::size_t i = 0; i < ids.count; ++i) {
            const std::uint64_t node = ids.at(i);
            if (node >= first_node && node - first_node < shard.size()) banned.ban(node);
        }
    };
    auction::ShardHead head;
    auction::ShardHead chunk;
    std::vector<const double*> columns;
    auction::StreamingHeadMerge head_merge;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> clean;      ///< last good head bytes (resend)
    std::vector<std::uint8_t> corrupted;  ///< bit_flip scratch
    /// Streaming rounds: the clean wire bytes of every head chunk, kept
    /// until the next round so any chunk (and the tail of the stream) can
    /// answer a resend.
    std::vector<std::vector<std::uint8_t>> chunk_clean;

    const auto send_head_done = [&](int fd) {
        const std::uint64_t total = chunk_clean.size();
        return wire::write_frame(fd, FrameType::head_done, &total, sizeof(total));
    };

    for (;;) {
        FrameHeader h;
        switch (wire::read_frame(req_fd, h, payload)) {
            case ReadStatus::eof: ::_exit(0);      // aggregator gone
            case ReadStatus::timeout: ::_exit(0);  // unreachable (blocking)
            case ReadStatus::bad_header:
                ::_exit(2);  // stream desynced beyond recovery
            case ReadStatus::bad_payload:
                // Framed but corrupt: ask for a retransmission.
                if (!wire::write_frame(resp_fd, FrameType::nack, nullptr, 0))
                    ::_exit(0);
                continue;
            case ReadStatus::ok: break;
        }

        if (h.type == static_cast<std::uint32_t>(FrameType::sync)) {
            // Respawn re-sync: replay the drift-salt history over the
            // pristine shard, then the full ban list. Drift streams are
            // keyed by (salt, global id), so the replay lands on the exact
            // state of a worker that never died.
            wire::SyncPayload sync;
            if (!wire::decode_sync(payload, sync)) ::_exit(2);
            for (std::size_t i = 0; i < sync.salts.count; ++i)
                shard.evolve_with_salt(sync.salts.at(i));
            take_bans(sync.bans);
            continue;
        }

        if (h.type == static_cast<std::uint32_t>(FrameType::resend)) {
            // The aggregator rejected uplink bytes; the cached clean copies
            // answer it (any injected wire fault fired on the first
            // transmission only). An 8-byte payload is a streaming-round
            // chunk index: replay the stream from that chunk on, head_done
            // included. Empty is the batch whole-head resend.
            if (payload.size() == sizeof(std::uint64_t)) {
                std::uint64_t from = 0;
                std::memcpy(&from, payload.data(), sizeof(from));
                for (std::uint64_t c = from; c < chunk_clean.size(); ++c) {
                    if (!wire::write_frame(resp_fd, FrameType::head_rows,
                                           chunk_clean[c].data(),
                                           chunk_clean[c].size()))
                        ::_exit(0);
                }
                if (!send_head_done(resp_fd)) ::_exit(0);
                continue;
            }
            if (!wire::write_frame(resp_fd, FrameType::head, clean.data(),
                                   clean.size()))
                ::_exit(0);
            continue;
        }

        const bool streaming =
            h.type == static_cast<std::uint32_t>(FrameType::stream_request);
        if (!streaming && h.type != static_cast<std::uint32_t>(FrameType::request))
            ::_exit(2);
        wire::RequestPayload decoded;
        if (!wire::decode_request(payload, streaming, decoded)) ::_exit(2);
        const RoundRequest& req = decoded.request;
        const StreamExtra& extra = decoded.extra;
        take_bans(decoded.banned);

        const util::FaultEvent fault = faults.event(shard_index, req.round);
        if (fault.kind == util::FaultKind::crash_before_reply) ::_exit(3);
        if ((fault.kind == util::FaultKind::stall
             || fault.kind == util::FaultKind::delayed_reply)
            && fault.seconds > 0.0)
            ::usleep(static_cast<useconds_t>(fault.seconds * 1e6));

        if (req.round > 1) shard.evolve_with_salt(req.evolve_salt);

        // Streaming rounds keep only the bids inside the coordinator-resolved
        // close cut: a bid outside (close_time, boundary) never made the
        // round. Arrival times are pure in (salt, global id), so this is the
        // same arrived set every other party computes.
        auction::TieKeys keys;
        keys.salted = true;
        keys.salt = req.tie_salt;
        collect_head_rows(shard, layout, strategy, scoring, strategy_scores_broadcast_rule,
                          payment_method, banned, streaming ? &extra : nullptr, keys,
                          req.limit, columns, head_merge, head);

        if (streaming) {
            // Stream the head back in bounded `head_rows` chunks, each a
            // chunk index plus the ShardHead wire bytes of its row slice,
            // closed by a `head_done`. Clean bytes are cached per chunk so
            // a corrupt transmission is recoverable chunk-by-chunk.
            const std::size_t per = extra.chunk_rows == 0
                                        ? head.rows.size()
                                        : static_cast<std::size_t>(extra.chunk_rows);
            chunk_clean.clear();
            for (std::size_t at = 0; at < head.rows.size(); at += per) {
                const std::size_t take = std::min(per, head.rows.size() - at);
                chunk.clear();
                chunk.dims = head.dims;
                chunk.rows.assign(head.rows.begin() + at,
                                  head.rows.begin() + at + take);
                chunk.quality.assign(head.quality.begin() + at * head.dims,
                                     head.quality.begin() + (at + take) * head.dims);
                std::vector<std::uint8_t> bytes;
                append_u64(bytes, chunk_clean.size());
                chunk.serialize(bytes);
                chunk_clean.push_back(std::move(bytes));
            }
            // Wire faults corrupt the FIRST chunk's transmission only —
            // the checksum must catch it and the chunk-level resend must
            // recover it without disturbing the rest of the stream.
            bool sent = true;
            for (std::size_t c = 0; c < chunk_clean.size() && sent; ++c) {
                const std::vector<std::uint8_t>& bytes = chunk_clean[c];
                if (c == 0 && fault.kind == util::FaultKind::truncated_write
                    && bytes.size() >= 2) {
                    sent = wire::write_frame_raw(
                        resp_fd, FrameType::head_rows, bytes.data(),
                        bytes.size() / 2, wire::crc32(bytes.data(), bytes.size()));
                } else if (c == 0 && fault.kind == util::FaultKind::bit_flip
                           && !bytes.empty()) {
                    corrupted = bytes;
                    corrupted[req.round % corrupted.size()] ^= 0x01;
                    sent = wire::write_frame_raw(
                        resp_fd, FrameType::head_rows, corrupted.data(),
                        corrupted.size(), wire::crc32(bytes.data(), bytes.size()));
                } else {
                    sent = wire::write_frame(resp_fd, FrameType::head_rows,
                                             bytes.data(), bytes.size());
                }
            }
            if (sent) sent = send_head_done(resp_fd);
            if (!sent) ::_exit(0);
            continue;
        }

        clean.clear();
        head.serialize(clean);

        // Wire faults corrupt the TRANSMISSION, never the cached state:
        // the aggregator's checksum must catch them, and the bounded
        // resend recovers the clean bytes.
        bool sent;
        if (fault.kind == util::FaultKind::truncated_write && clean.size() >= 2) {
            // Self-described-short frame: claims (and carries) half the
            // bytes under the full payload's CRC — framed, but corrupt.
            sent = wire::write_frame_raw(resp_fd, FrameType::head, clean.data(),
                                         clean.size() / 2,
                                         wire::crc32(clean.data(), clean.size()));
        } else if (fault.kind == util::FaultKind::bit_flip && !clean.empty()) {
            corrupted = clean;
            corrupted[req.round % corrupted.size()] ^= 0x01;
            sent = wire::write_frame_raw(resp_fd, FrameType::head, corrupted.data(),
                                         corrupted.size(),
                                         wire::crc32(clean.data(), clean.size()));
        } else {
            sent = wire::write_frame(resp_fd, FrameType::head, clean.data(),
                                     clean.size());
        }
        if (!sent) ::_exit(0);
    }
}

/// A failed worker's last line on stderr. Allocation-free and noexcept: it
/// runs in the handler that keeps a worker's exception out of the caller's
/// frames, where a second exception would escape.
void report_worker_failure(std::size_t shard, const char* what) noexcept {
    char line[512];
    const int n = std::snprintf(line, sizeof line,
                                "ProcessShardAggregator: shard worker %zu failed: %s\n",
                                shard, what);
    if (n <= 0) return;
    const std::size_t len = std::min(static_cast<std::size_t>(n), sizeof line - 1);
    line[len - 1] = '\n';
    [[maybe_unused]] const ssize_t wrote = ::write(STDERR_FILENO, line, len);
}

} // namespace

template <class MakeShard>
bool ProcessShardAggregator::Impl::spawn(std::size_t s,
                                         const std::vector<util::ByteRange>& hide,
                                         const MakeShard& make_shard) {
    // Alive until this returns in the coordinator. The child _exits inside
    // this function, so it never runs the destructor over pages it lacks.
    const util::ForkExclusion exclusion(hide);
    int down[2];  // aggregator -> worker
    int up[2];    // worker -> aggregator
    if (::pipe(down) != 0) return false;
    if (::pipe(up) != 0) {
        ::close(down[0]);
        ::close(down[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(down[0]);
        ::close(down[1]);
        ::close(up[0]);
        ::close(up[1]);
        return false;
    }
    if (pid == 0) {
        // Worker: keep only its two pipe ends. Every sibling's inherited
        // fds MUST be closed, or this worker's copies of their request-pipe
        // write ends would keep those pipes open and break EOF-based
        // shutdown.
        ::close(down[1]);
        ::close(up[0]);
        for (const Worker& other : workers) {
            if (other.req_fd >= 0) ::close(other.req_fd);
            if (other.resp_fd >= 0) ::close(other.resp_fd);
        }
        // Nothing a worker throws may unwind into the caller's frames (the
        // child would go on running the caller's code): any exception,
        // from the shard copy or a round, ends the worker with status 4,
        // and the coordinator reads EOF and evicts it, as for a crash.
        try {
            worker_main(down[0], up[1], make_shard(), scoring, strategy, layout,
                        strategy_scores_broadcast_rule,
                        auction::PaymentMethod::integral, s, sup.faults);
        } catch (const std::exception& e) {
            report_worker_failure(s, e.what());
        } catch (...) {
        }
        ::_exit(4);
    }
    ::close(down[0]);
    ::close(up[1]);
    // Coordinator-side pipe ends are close-on-exec: a worker forked LATER
    // inherits only fds still open at ITS fork (the sibling-close loop in
    // the child handles those), but any exec'd child of the coordinator —
    // the crash harness re-launching itself, a user's system() — must not
    // inherit the market's pipes and silently hold EOF-based shutdown open.
    (void)::fcntl(down[1], F_SETFD, FD_CLOEXEC);
    (void)::fcntl(up[0], F_SETFD, FD_CLOEXEC);
    Worker& w = workers[s];
    w.pid = pid;
    w.req_fd = down[1];
    w.resp_fd = up[0];
    w.alive = true;
    return true;
}

bool ProcessShardAggregator::Impl::sync_worker(std::size_t s) {
    std::vector<std::uint8_t> payload;
    append_u64(payload, salt_history.size());
    for (const std::uint64_t salt : salt_history) append_u64(payload, salt);
    append_u64(payload, all_bans.size());
    if (!all_bans.empty())
        append_bytes(payload, all_bans.data(),
                     all_bans.size() * sizeof(auction::NodeId));
    return wire::write_frame(workers[s].req_fd, FrameType::sync, payload.data(),
                             payload.size());
}

ProcessShardAggregator::ProcessShardAggregator(
    const PopulationStore& store, const auction::ScoringRule& scoring,
    const auction::EquilibriumStrategy& strategy,
    auction::WinnerDeterminationConfig wd_config, QualityLayout layout,
    std::size_t num_shards, double shard_timeout_s, ShardSupervisorConfig supervisor)
    : impl_(std::make_unique<Impl>(scoring, strategy, std::move(wd_config),
                                   std::move(layout), std::move(supervisor))) {
    if (impl_->wd.tie_break != auction::TieBreak::salted)
        throw std::invalid_argument(
            "ProcessShardAggregator: requires TieBreak::salted (a shuffle "
            "permutation cannot be shipped over the wire)");
    if (impl_->wd.psi < 1.0 || !impl_->wd.psi_per_node.empty())
        throw std::invalid_argument(
            "ProcessShardAggregator: psi-probabilistic acceptance walks the whole "
            "board and cannot run on bounded shard heads");
    if (impl_->wd.full_ranking)
        throw std::invalid_argument(
            "ProcessShardAggregator: full_ranking would ship every bid; use the "
            "in-process ShardedAuctionSelector for full boards");
    if (!(shard_timeout_s > 0.0) || std::isinf(shard_timeout_s))
        throw std::invalid_argument("ProcessShardAggregator: shard_timeout_s = "
                                    + std::to_string(shard_timeout_s)
                                    + ": must be finite and > 0");
    if (impl_->sup.min_live_shards > num_shards)
        throw std::invalid_argument(
            "ProcessShardAggregator: min_live_shards = "
            + std::to_string(impl_->sup.min_live_shards) + " exceeds num_shards = "
            + std::to_string(num_shards));
    if (!(impl_->sup.respawn_backoff_s >= 0.0)
        || std::isinf(impl_->sup.respawn_backoff_s))
        throw std::invalid_argument(
            "ProcessShardAggregator: respawn_backoff_s must be finite and >= 0");
    impl_->timeout_s = shard_timeout_s;
    impl_->n = store.size();
    impl_->strategy_scores_broadcast_rule =
        impl_->strategy.scoring_rule() == &impl_->scoring;
    // Reject before any fork what a worker would only find mid-round: a bid
    // layout its collection throws on, and a non-wire-friendly mechanism.
    check_bid_layout(impl_->layout, impl_->strategy, impl_->scoring,
                     impl_->strategy_scores_broadcast_rule);
    (void)impl_->engine_for(impl_->wd.num_winners == 0 ? 1 : impl_->wd.num_winners);
    // Shard s holds rows [starts[s], starts[s + 1]).
    std::vector<std::size_t> starts = PopulationStore::even_boundaries(store.size(), num_shards);
    starts.insert(starts.begin(), 0);
    starts.push_back(store.size());
    ignore_sigpipe();
    // Started here, before any fork, the shared pool is the coordinator's,
    // so each worker's pooled passes (its drift) run on the worker's one
    // thread instead of each worker starting a pool of its own.
    (void)util::ThreadPool::shared();

    // Worker s maps only the columns a bid over the layout reads, and of
    // them only rows [lo, hi): everything else stays out of its fork. Its
    // draw bytes, which stand in for the caps it leaves out, are taken here
    // before the fork, and it hands the inherited rows back to the kernel as
    // it copies them. The coordinator never holds a shard copy while it
    // forks.
    const QualityLayout& bid_layout = impl_->layout;
    impl_->workers.resize(num_shards);
    impl_->heads.resize(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t lo = starts[s];
        const std::size_t hi = starts[s + 1];
        std::vector<std::uint8_t> draw_bits = store.draw_bits(lo, hi, bid_layout);
        if (!impl_->spawn(s, store.bytes_outside(lo, hi, bid_layout), [&] {
                return store.slice_and_release(lo, hi, bid_layout, std::move(draw_bits));
            }))
            throw std::runtime_error("ProcessShardAggregator: pipe()/fork() failed");
    }
    if (impl_->sup.max_respawns > 0) {
        impl_->pristine.reserve(num_shards);
        for (std::size_t s = 0; s < num_shards; ++s)
            impl_->pristine.push_back(store.slice(starts[s], starts[s + 1], bid_layout));
    }
}

ProcessShardAggregator::~ProcessShardAggregator() {
    if (!impl_) return;
    for (std::size_t s = 0; s < impl_->workers.size(); ++s) {
        Impl::Worker& w = impl_->workers[s];
        if (!w.alive) continue;
        // Closing the request pipe is the shutdown signal; workers exit on
        // EOF. Reap, then force the stragglers.
        if (w.req_fd >= 0) ::close(w.req_fd);
        w.req_fd = -1;
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == 0) {
            ::usleep(20000);
            if (::waitpid(w.pid, &status, WNOHANG) == 0) {
                ::kill(w.pid, SIGKILL);
                ::waitpid(w.pid, &status, 0);
            }
        }
        Impl::close_fds(w);
        w.alive = false;
    }
}

const auction::AuctionOutcome& ProcessShardAggregator::run_round(std::size_t round,
                                                                 std::size_t k,
                                                                 stats::Rng& rng) {
    Impl& impl = *impl_;
    const auction::ScoreAuctionMechanism* engine = impl.engine_for(k);
    impl.last_health = ShardHealth{};
    impl.last_dropped.clear();
    impl.current_round = round;

    // Supervisor pass: re-fork eligible evicted workers and re-sync them
    // from the salt history + ban list, under capped round-indexed backoff.
    impl.respawn_pass(round);

    // Exactly the monolithic salted round's generator discipline: one
    // drift salt (round > 1), one tie salt — nothing else crosses the wire.
    RoundRequest req;
    req.round = round;
    req.k = k;
    req.evolve_salt = round > 1 ? rng.engine()() : 0;
    req.tie_salt = auction::draw_tie_keys(/*salted=*/true, {}, impl.n, rng, impl.scratch).salt;
    req.num_banned = impl.pending_bans.size();
    const std::size_t m = impl.n - impl.banned_set.size();
    req.limit = engine->ranking_cutoff(m);
    if (round > 1) impl.salt_history.push_back(req.evolve_salt);

    std::vector<std::uint8_t> request;
    append_bytes(request, &req, sizeof(req));
    if (!impl.pending_bans.empty())
        append_bytes(request, impl.pending_bans.data(),
                     impl.pending_bans.size() * sizeof(auction::NodeId));
    impl.all_bans.insert(impl.all_bans.end(), impl.pending_bans.begin(),
                         impl.pending_bans.end());
    impl.pending_bans.clear();

    // Ship all requests first so workers overlap, then collect responses.
    for (std::size_t s = 0; s < impl.workers.size(); ++s) {
        Impl::Worker& w = impl.workers[s];
        if (!w.alive) {
            impl.last_dropped.push_back(s);  // dead/backoff/retired: no head
            continue;
        }
        if (!wire::write_frame(w.req_fd, FrameType::request, request.data(),
                               request.size())) {
            impl.evict(s);
            impl.last_dropped.push_back(s);
        }
    }

    std::vector<std::uint8_t> payload;
    for (std::size_t s = 0; s < impl.workers.size(); ++s) {
        impl.heads[s].clear();
        Impl::Worker& w = impl.workers[s];
        if (!w.alive) continue;
        const auto deadline =
            std::chrono::steady_clock::now()
            + std::chrono::microseconds(
                static_cast<long long>(impl.timeout_s * 1e6));
        // One bounded retry: a corrupt-but-framed reply (bad payload CRC,
        // or a nack for a corrupt request) is re-requested once; any second
        // failure — or an unframed one (timeout, EOF, bad header) — evicts.
        bool retried = false;
        bool got_head = false;
        while (!got_head) {
            FrameHeader h;
            const ReadStatus rs =
                wire::read_frame_deadline(w.resp_fd, h, payload, deadline);
            if (rs == ReadStatus::ok
                && h.type == static_cast<std::uint32_t>(FrameType::head)) {
                try {
                    auction::ShardHead decoded =
                        auction::ShardHead::deserialize(payload.data(), payload.size());
                    if (!decoded.rows.empty() && decoded.dims != impl.layout.size())
                        throw std::invalid_argument("head dims mismatch");
                    impl.heads[s] = std::move(decoded);
                    got_head = true;
                    continue;
                } catch (const std::exception&) {
                    // Checksummed yet malformed — a worker bug, not line
                    // noise; a retry would resend the same bytes.
                    break;
                }
            }
            if (rs == ReadStatus::bad_payload
                || (rs == ReadStatus::ok
                    && h.type == static_cast<std::uint32_t>(FrameType::nack))) {
                ++impl.last_health.corrupt_frames;
                if (!retried) {
                    retried = true;
                    ++impl.last_health.frame_retries;
                    const bool resent =
                        rs == ReadStatus::bad_payload
                            ? wire::write_frame(w.req_fd, FrameType::resend, nullptr, 0)
                            : wire::write_frame(w.req_fd, FrameType::request,
                                                request.data(), request.size());
                    if (resent) continue;
                }
            }
            break;  // timeout, EOF, bad header, second corruption, ...
        }
        if (!got_head) {
            impl.evict(s);
            impl.last_dropped.push_back(s);
        }
    }
    std::sort(impl.last_dropped.begin(), impl.last_dropped.end());

    std::size_t live = 0;
    for (const Impl::Worker& w : impl.workers) live += w.alive ? 1 : 0;
    impl.last_health.live_shards = live;
    impl.lifetime.live_shards = live;
    impl.lifetime.corrupt_frames += impl.last_health.corrupt_frames;
    impl.lifetime.frame_retries += impl.last_health.frame_retries;
    impl.lifetime.evictions += impl.last_health.evictions;
    impl.lifetime.respawns += impl.last_health.respawns;
    if (impl.sup.min_live_shards > 0 && live < impl.sup.min_live_shards)
        throw std::runtime_error(
            "ProcessShardAggregator: round " + std::to_string(round) + ": only "
            + std::to_string(live) + " of " + std::to_string(impl.workers.size())
            + " shard workers are live, below the configured quorum of "
            + std::to_string(impl.sup.min_live_shards)
            + " (auction.shard_quorum) — raise auction.shard_max_respawns / "
              "auction.shard_timeout_s, lower the quorum, or investigate the "
              "evictions recorded in lifetime_health()");

    auction::merge_heads(impl.heads, req.limit, impl.outcome.ranking);
    engine->select_into(impl.outcome.ranking, rng, impl.scratch.chosen);
    engine->price_into(impl.scoring, impl.outcome.ranking, impl.scratch.chosen,
                       impl.outcome.winners);
    return impl.outcome;
}

const auction::AuctionOutcome& ProcessShardAggregator::run_streaming_round(
    std::size_t round, std::size_t k, const StreamRoundPolicy& policy,
    stats::Rng& rng) {
    Impl& impl = *impl_;
    if (!(policy.arrival_horizon_s > 0.0) || std::isinf(policy.arrival_horizon_s))
        throw std::invalid_argument(
            "ProcessShardAggregator: arrival_horizon_s = "
            + std::to_string(policy.arrival_horizon_s)
            + ": must be finite and > 0");
    if (!(policy.deadline_s >= 0.0) || std::isinf(policy.deadline_s))
        throw std::invalid_argument(
            "ProcessShardAggregator: deadline_s must be finite and >= 0");
    const auction::ScoreAuctionMechanism* engine = impl.engine_for(k);
    impl.last_health = ShardHealth{};
    impl.last_dropped.clear();
    impl.current_round = round;
    impl.respawn_pass(round);

    // The streaming round's generator discipline: one drift salt
    // (round > 1), one tie salt, one arrival salt — the in-process twin
    // consumes exactly the same three draws.
    RoundRequest req;
    req.round = round;
    req.k = k;
    req.evolve_salt = round > 1 ? rng.engine()() : 0;
    req.tie_salt = auction::draw_tie_keys(/*salted=*/true, {}, impl.n, rng, impl.scratch).salt;
    const std::uint64_t arrival_salt = rng.engine()();
    if (round > 1) impl.salt_history.push_back(req.evolve_salt);

    // Arrival times are independent of bid values, so the close trigger is
    // resolved HERE, before any head byte moves — and the cut rides the
    // request down so every worker filters the same arrived set.
    impl.last_close =
        resolve_stream_close(impl.n, impl.banned_set, arrival_salt,
                             policy.arrival_horizon_s, policy.deadline_s,
                             policy.quorum);
    req.limit = engine->ranking_cutoff(impl.last_close.arrived);
    req.num_banned = impl.pending_bans.size();

    StreamExtra extra;
    extra.arrival_salt = arrival_salt;
    extra.horizon_s = policy.arrival_horizon_s;
    extra.close_time_s = impl.last_close.close_time_s;
    extra.boundary_node = impl.last_close.boundary_node;
    extra.chunk_rows = policy.chunk_rows;

    std::vector<std::uint8_t> request;
    append_bytes(request, &req, sizeof(req));
    append_bytes(request, &extra, sizeof(extra));
    if (!impl.pending_bans.empty())
        append_bytes(request, impl.pending_bans.data(),
                     impl.pending_bans.size() * sizeof(auction::NodeId));
    impl.all_bans.insert(impl.all_bans.end(), impl.pending_bans.begin(),
                         impl.pending_bans.end());
    impl.pending_bans.clear();

    for (std::size_t s = 0; s < impl.workers.size(); ++s) {
        Impl::Worker& w = impl.workers[s];
        impl.heads[s].clear();  // per-shard fold accumulator (merge rebuilds)
        if (!w.alive) {
            impl.last_dropped.push_back(s);
            continue;
        }
        if (!wire::write_frame(w.req_fd, FrameType::stream_request,
                               request.data(), request.size())) {
            impl.evict(s);
            impl.last_dropped.push_back(s);
        }
    }

    // Fold every worker's chunk stream into the incremental merge AS THE
    // FRAMES LAND, all shards concurrently — one poll loop over the live
    // response pipes, one frame consumed per readiness. The merge's top-K
    // kept set is order-independent, so interleaving across shards (and
    // out-of-order resent tails) finishes bit-identically to whole-head
    // merging.
    const std::size_t dims = impl.layout.size();
    auction::StreamingHeadMerge merge;
    merge.open(dims, req.limit);

    const auto fold_chunk = [&](std::size_t s, const auction::ShardHead& c) {
        auction::ShardHead& acc = impl.heads[s];
        acc.dims = c.dims;
        for (std::size_t r = 0; r < c.rows.size(); ++r) {
            merge.ingest_row(c.rows[r], c.quality_row(r));
            acc.rows.push_back(c.rows[r]);
            acc.quality.insert(acc.quality.end(), c.quality_row(r),
                               c.quality_row(r) + c.dims);
        }
    };
    // An eviction mid-stream may have folded rows the round must now
    // forget: replay the merge over the surviving shards' accumulators.
    const auto rebuild_merge = [&] {
        merge.open(dims, req.limit);
        for (const auction::ShardHead& acc : impl.heads)
            for (std::size_t r = 0; r < acc.rows.size(); ++r)
                merge.ingest_row(acc.rows[r], acc.quality_row(r));
    };

    struct Stream {
        bool got_done = false;
        std::uint64_t total = 0;
        std::uint64_t received = 0;
        bool retried = false;
    };
    std::vector<Stream> st(impl.workers.size());
    const auto stream_done = [&](std::size_t s) {
        return st[s].got_done && st[s].received >= st[s].total;
    };

    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::microseconds(static_cast<long long>(impl.timeout_s * 1e6));
    std::vector<std::uint8_t> payload;
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_shard;
    for (;;) {
        fds.clear();
        fd_shard.clear();
        for (std::size_t s = 0; s < impl.workers.size(); ++s) {
            const Impl::Worker& w = impl.workers[s];
            if (!w.alive || stream_done(s)) continue;
            struct pollfd p;
            p.fd = w.resp_fd;
            p.events = POLLIN;
            p.revents = 0;
            fds.push_back(p);
            fd_shard.push_back(s);
        }
        if (fds.empty()) break;

        const auto now = std::chrono::steady_clock::now();
        bool timed_out = now >= deadline;
        if (!timed_out) {
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now);
            const int rv = ::poll(fds.data(), fds.size(),
                                  static_cast<int>(left.count()) + 1);
            if (rv < 0) {
                if (errno == EINTR) continue;
                timed_out = true;
            } else if (rv == 0) {
                timed_out = true;
            }
        }
        if (timed_out) {
            // Every stream still open at the deadline is evicted — the
            // same miss rule the batch round applies per worker.
            for (const std::size_t s : fd_shard) {
                impl.heads[s].clear();
                impl.evict(s);
                impl.last_dropped.push_back(s);
            }
            rebuild_merge();
            break;
        }

        bool rebuild_needed = false;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0) continue;
            const std::size_t s = fd_shard[i];
            Impl::Worker& w = impl.workers[s];
            FrameHeader h;
            const ReadStatus rs =
                wire::read_frame_deadline(w.resp_fd, h, payload, deadline);
            bool fail = false;
            if (rs == ReadStatus::ok
                && h.type == static_cast<std::uint32_t>(FrameType::head_rows)) {
                std::uint64_t idx = 0;
                if (payload.size() < sizeof(idx)) {
                    fail = true;
                } else {
                    std::memcpy(&idx, payload.data(), sizeof(idx));
                    if (idx == st[s].received) {
                        try {
                            const auction::ShardHead c = auction::ShardHead::deserialize(
                                payload.data() + sizeof(idx),
                                payload.size() - sizeof(idx));
                            if (!c.rows.empty() && c.dims != dims)
                                throw std::invalid_argument("chunk dims mismatch");
                            fold_chunk(s, c);
                            ++st[s].received;
                        } catch (const std::exception&) {
                            // Checksummed yet malformed — a worker bug, not
                            // line noise; a retry would resend the same bytes.
                            fail = true;
                        }
                    } else if (idx > st[s].received && !st[s].retried) {
                        fail = true;  // a gap with no resend pending
                    }
                    // idx < received: duplicate from a resent tail — already
                    // folded. idx > received under a pending resend: the
                    // stale in-flight tail — the clean copy follows.
                }
            } else if (rs == ReadStatus::ok
                       && h.type == static_cast<std::uint32_t>(FrameType::head_done)) {
                std::uint64_t total = 0;
                if (payload.size() != sizeof(total)) {
                    fail = true;
                } else {
                    std::memcpy(&total, payload.data(), sizeof(total));
                    if (st[s].received == total) {
                        st[s].got_done = true;
                        st[s].total = total;
                    } else if (!st[s].retried) {
                        fail = true;  // short stream with no resend pending
                    }
                    // retried && received != total: the stale pre-resend
                    // done — the resent tail ends with its own.
                }
            } else if (rs == ReadStatus::bad_payload
                       || (rs == ReadStatus::ok
                           && h.type == static_cast<std::uint32_t>(FrameType::nack))) {
                // One bounded retry per shard per round, exactly as the
                // batch path: a corrupt chunk is re-requested from the
                // first missing index (the worker replays the stream tail),
                // a nacked request is re-shipped whole.
                ++impl.last_health.corrupt_frames;
                if (!st[s].retried) {
                    st[s].retried = true;
                    ++impl.last_health.frame_retries;
                    bool resent;
                    if (rs == ReadStatus::bad_payload) {
                        const std::uint64_t from = st[s].received;
                        resent = wire::write_frame(w.req_fd, FrameType::resend,
                                                   &from, sizeof(from));
                    } else {
                        resent = wire::write_frame(w.req_fd, FrameType::stream_request,
                                                   request.data(), request.size());
                    }
                    if (!resent) fail = true;
                } else {
                    fail = true;
                }
            } else {
                fail = true;  // timeout, EOF, bad header, unexpected type
            }
            if (fail) {
                impl.heads[s].clear();
                impl.evict(s);
                impl.last_dropped.push_back(s);
                rebuild_needed = true;
            }
        }
        if (rebuild_needed) rebuild_merge();
    }
    std::sort(impl.last_dropped.begin(), impl.last_dropped.end());

    std::size_t live = 0;
    for (const Impl::Worker& w : impl.workers) live += w.alive ? 1 : 0;
    impl.last_health.live_shards = live;
    impl.lifetime.live_shards = live;
    impl.lifetime.corrupt_frames += impl.last_health.corrupt_frames;
    impl.lifetime.frame_retries += impl.last_health.frame_retries;
    impl.lifetime.evictions += impl.last_health.evictions;
    impl.lifetime.respawns += impl.last_health.respawns;
    if (impl.sup.min_live_shards > 0 && live < impl.sup.min_live_shards)
        throw std::runtime_error(
            "ProcessShardAggregator: round " + std::to_string(round) + ": only "
            + std::to_string(live) + " of " + std::to_string(impl.workers.size())
            + " shard workers are live, below the configured quorum of "
            + std::to_string(impl.sup.min_live_shards)
            + " (auction.shard_quorum) — raise auction.shard_max_respawns / "
              "auction.shard_timeout_s, lower the quorum, or investigate the "
              "evictions recorded in lifetime_health()");

    merge.finish(impl.outcome.ranking);
    engine->select_into(impl.outcome.ranking, rng, impl.scratch.chosen);
    engine->price_into(impl.scoring, impl.outcome.ranking, impl.scratch.chosen,
                       impl.outcome.winners);
    return impl.outcome;
}

auction::CloseReason ProcessShardAggregator::last_close_reason() const {
    return impl_->last_close.reason;
}

double ProcessShardAggregator::last_close_time_s() const {
    return impl_->last_close.close_time_s;
}

std::size_t ProcessShardAggregator::last_arrived() const {
    return impl_->last_close.arrived;
}

const std::vector<std::size_t>& ProcessShardAggregator::last_dropped_shards() const {
    return impl_->last_dropped;
}

const ShardHealth& ProcessShardAggregator::last_health() const {
    return impl_->last_health;
}

const ShardHealth& ProcessShardAggregator::lifetime_health() const {
    return impl_->lifetime;
}

std::size_t ProcessShardAggregator::dead_shards() const { return impl_->dead; }

std::size_t ProcessShardAggregator::live_shards() const {
    std::size_t live = 0;
    for (const Impl::Worker& w : impl_->workers) live += w.alive ? 1 : 0;
    return live;
}

std::size_t ProcessShardAggregator::num_shards() const {
    return impl_->workers.size();
}

std::size_t ProcessShardAggregator::population_size() const { return impl_->n; }

int ProcessShardAggregator::worker_pid(std::size_t shard) const {
    if (shard >= impl_->workers.size()) return -1;
    const Impl::Worker& w = impl_->workers[shard];
    return w.alive ? static_cast<int>(w.pid) : -1;
}

void ProcessShardAggregator::ban(auction::NodeId node) {
    if (node >= impl_->n)
        throw std::invalid_argument("ProcessShardAggregator: cannot ban node "
                                    + std::to_string(node) + ", outside the "
                                    + std::to_string(impl_->n) + "-node population");
    if (impl_->banned_set.contains(node)) return;
    impl_->banned_set.ban(node);
    impl_->pending_bans.push_back(node);
}

} // namespace fmore::mec
