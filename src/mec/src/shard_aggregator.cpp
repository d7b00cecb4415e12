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
    /// Close telemetry of the most recent streaming round.
    StreamCloseDecision last_close;

    std::unique_ptr<auction::Mechanism> mechanism;
    std::size_t mechanism_k = static_cast<std::size_t>(-1);
    const auction::ScoreAuctionMechanism* engine = nullptr;
    std::vector<std::uint8_t> request;  ///< this round's request payload
    std::vector<auction::ShardHead> heads;
    auction::StreamingHeadMerge merge;  ///< the heads' merge, reused every round
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

    void evict(std::size_t s) {
        Worker& w = workers[s];
        if (!w.alive) return;
        // A half-read pipe cannot be resynchronized mid-round: kill, close,
        // reap. The supervisor may re-fork the shard at the next round
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
    }

    /// Evicts worker `s` for this round: it contributes no head.
    void drop(std::size_t s) {
        heads[s].clear();
        evict(s);
        last_dropped.push_back(s);
    }

    /// Supervisor pass at a round boundary: re-fork every evicted worker
    /// with respawn budget left and re-sync it from the salt history + ban
    /// list.
    void respawn_pass() {
        if (sup.max_respawns == 0) return;
        for (std::size_t s = 0; s < workers.size(); ++s) {
            Worker& w = workers[s];
            if (w.alive || w.retired) continue;
            if (w.respawns >= sup.max_respawns) {
                w.retired = true;
                continue;
            }
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

    /// The round pipeline both entry points feed, after each has drawn its
    /// salts into `req` (and resolved the close cut into `extra` when
    /// streaming; null for a batch round).
    const auction::AuctionOutcome& run(const auction::ScoreAuctionMechanism& round_engine,
                                       RoundRequest req, const StreamExtra* extra,
                                       stats::Rng& rng);
    void collect_heads(FrameType request_type);

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
    std::vector<const double*> columns;
    auction::StreamingHeadMerge head_merge;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> clean;      ///< last good head bytes (resend)
    std::vector<std::uint8_t> corrupted;  ///< bit_flip scratch

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
            // The aggregator rejected the head; the cached clean copy
            // answers it (an injected wire fault fires on the first
            // transmission only).
            if (!payload.empty()) ::_exit(2);
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

        // One pass over the shard: from round 2 on, each block of rows
        // drifts under the round's salt just before it is quoted. Streaming
        // rounds keep only the bids inside the coordinator-resolved close
        // cut: a bid outside (close_time, boundary) never made the round.
        // Arrival times are pure in (salt, global id), so this is the same
        // arrived set every other party computes. Both request types are
        // answered with one `head` frame.
        auction::TieKeys keys;
        keys.salted = true;
        keys.salt = req.tie_salt;
        const StreamExtra* cut = streaming ? &extra : nullptr;
        if (req.round > 1)
            collect_head_rows(shard, req.evolve_salt, layout, strategy, scoring,
                              strategy_scores_broadcast_rule, payment_method, banned, cut,
                              keys, req.limit, columns, head_merge, head);
        else
            collect_head_rows(shard, 0, shard.size(), layout, strategy, scoring,
                              strategy_scores_broadcast_rule, payment_method, banned, cut,
                              keys, req.limit, columns, head_merge, head);
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

const auction::AuctionOutcome& ProcessShardAggregator::Impl::run(
    const auction::ScoreAuctionMechanism& round_engine, RoundRequest req,
    const StreamExtra* extra, stats::Rng& rng) {
    last_health = ShardHealth{};
    last_dropped.clear();
    // Supervisor pass: re-fork evicted workers with budget left and re-sync
    // them from the salt history + ban list, before this round's drift salt
    // joins the history (the request carries it).
    respawn_pass();
    if (req.round > 1) salt_history.push_back(req.evolve_salt);

    // The request payload: the fixed part, the stream cut when streaming,
    // then the ids banned since the last request.
    req.num_banned = pending_bans.size();
    const std::size_t fixed = sizeof(req) + (extra != nullptr ? sizeof(*extra) : 0);
    const std::size_t ban_bytes = pending_bans.size() * sizeof(auction::NodeId);
    request.resize(fixed + ban_bytes);
    std::memcpy(request.data(), &req, sizeof(req));
    if (extra != nullptr) std::memcpy(request.data() + sizeof(req), extra, sizeof(*extra));
    if (ban_bytes > 0) std::memcpy(request.data() + fixed, pending_bans.data(), ban_bytes);
    all_bans.insert(all_bans.end(), pending_bans.begin(), pending_bans.end());
    pending_bans.clear();
    const FrameType type = extra != nullptr ? FrameType::stream_request : FrameType::request;

    // Ship all requests first so workers overlap, then collect the heads.
    for (std::size_t s = 0; s < workers.size(); ++s) {
        heads[s].clear();
        if (!workers[s].alive) {
            last_dropped.push_back(s);  // evicted or retired: no head
            continue;
        }
        if (!wire::write_frame(workers[s].req_fd, type, request.data(), request.size()))
            drop(s);
    }
    collect_heads(type);
    std::sort(last_dropped.begin(), last_dropped.end());

    std::size_t live = 0;
    for (const Worker& w : workers) live += w.alive ? 1 : 0;
    last_health.live_shards = live;
    lifetime.live_shards = live;
    lifetime.corrupt_frames += last_health.corrupt_frames;
    lifetime.frame_retries += last_health.frame_retries;
    lifetime.evictions += last_health.evictions;
    lifetime.respawns += last_health.respawns;
    if (sup.min_live_shards > 0 && live < sup.min_live_shards)
        throw std::runtime_error(
            "ProcessShardAggregator: round " + std::to_string(req.round) + ": only "
            + std::to_string(live) + " of " + std::to_string(workers.size())
            + " shard workers are live, below the quorum of "
            + std::to_string(sup.min_live_shards)
            + " (ShardSupervisorConfig::min_live_shards) — raise "
              "ShardSupervisorConfig::max_respawns or the constructor's "
              "shard_timeout_s, lower min_live_shards, or investigate the "
              "evictions recorded in lifetime_health()");

    auction::merge_heads(heads, req.limit, merge, outcome.ranking);
    round_engine.select_into(outcome.ranking, rng, scratch.chosen);
    round_engine.price_into(scoring, outcome.ranking, scratch.chosen, outcome.winners);
    return outcome;
}

void ProcessShardAggregator::Impl::collect_heads(FrameType request_type) {
    // One deadline for the whole round, set as the requests ship, and one
    // poll loop over every worker that still owes its head: a worker that
    // misses the deadline is evicted whichever workers were read before it,
    // and one that stalls cannot hold back the heads already in the pipes.
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::microseconds(static_cast<long long>(timeout_s * 1e6));
    std::vector<char> owed(workers.size());
    std::vector<char> retried(workers.size(), 0);
    for (std::size_t s = 0; s < workers.size(); ++s) owed[s] = workers[s].alive ? 1 : 0;
    std::vector<std::uint8_t> payload;
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_shard;
    for (;;) {
        fds.clear();
        fd_shard.clear();
        for (std::size_t s = 0; s < workers.size(); ++s) {
            if (!owed[s]) continue;
            struct pollfd p;
            p.fd = workers[s].resp_fd;
            p.events = POLLIN;
            p.revents = 0;
            fds.push_back(p);
            fd_shard.push_back(s);
        }
        if (fds.empty()) return;

        const auto now = std::chrono::steady_clock::now();
        int ready = 0;
        if (now < deadline) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
            ready = ::poll(fds.data(), fds.size(), static_cast<int>(left.count()) + 1);
            if (ready < 0 && errno == EINTR) continue;
        }
        if (ready <= 0) {
            // Every head still owed at the deadline is a miss.
            for (const std::size_t s : fd_shard) drop(s);
            return;
        }

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0) continue;
            const std::size_t s = fd_shard[i];
            const Worker& w = workers[s];
            FrameHeader h;
            const ReadStatus rs = wire::read_frame_deadline(w.resp_fd, h, payload, deadline);
            if (rs == ReadStatus::ok && h.type == static_cast<std::uint32_t>(FrameType::head)) {
                try {
                    auction::ShardHead decoded =
                        auction::ShardHead::deserialize(payload.data(), payload.size());
                    if (!decoded.rows.empty() && decoded.dims != layout.size())
                        throw std::invalid_argument("head dims mismatch");
                    heads[s] = std::move(decoded);
                    owed[s] = 0;
                    continue;
                } catch (const std::exception&) {
                    // Checksummed yet malformed — a worker bug, not line
                    // noise; a retry would resend the same bytes.
                }
            } else if (rs == ReadStatus::bad_payload
                       || (rs == ReadStatus::ok
                           && h.type == static_cast<std::uint32_t>(FrameType::nack))) {
                // One bounded retry: a corrupt head is asked for again with
                // an empty `resend`, a nacked (corrupt) request is shipped
                // again. A second corruption evicts.
                ++last_health.corrupt_frames;
                if (!retried[s]) {
                    retried[s] = 1;
                    ++last_health.frame_retries;
                    const bool resent =
                        rs == ReadStatus::bad_payload
                            ? wire::write_frame(w.req_fd, FrameType::resend, nullptr, 0)
                            : wire::write_frame(w.req_fd, request_type, request.data(),
                                                request.size());
                    if (resent) continue;
                }
            }
            // Timeout, EOF, bad header, an unexpected frame, a second
            // corruption or a failed resend.
            owed[s] = 0;
            drop(s);
        }
    }
}

const auction::AuctionOutcome& ProcessShardAggregator::run_round(std::size_t round,
                                                                 std::size_t k,
                                                                 stats::Rng& rng) {
    Impl& impl = *impl_;
    const auction::ScoreAuctionMechanism* engine = impl.engine_for(k);
    // Exactly the monolithic salted round's generator discipline: one
    // drift salt (round > 1), one tie salt — nothing else crosses the wire.
    RoundRequest req;
    req.round = round;
    req.k = k;
    req.evolve_salt = round > 1 ? rng.engine()() : 0;
    req.tie_salt = auction::draw_tie_keys(/*salted=*/true, {}, impl.n, rng, impl.scratch).salt;
    req.limit = engine->ranking_cutoff(impl.n - impl.banned_set.size());
    return impl.run(*engine, req, nullptr, rng);
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

    // The streaming round's generator discipline: one drift salt
    // (round > 1), one tie salt, one arrival salt — the in-process twin
    // consumes exactly the same three draws.
    RoundRequest req;
    req.round = round;
    req.k = k;
    req.evolve_salt = round > 1 ? rng.engine()() : 0;
    req.tie_salt = auction::draw_tie_keys(/*salted=*/true, {}, impl.n, rng, impl.scratch).salt;
    const std::uint64_t arrival_salt = rng.engine()();

    // Arrival times are independent of bid values, so the close trigger is
    // resolved HERE, before any head byte moves — and the cut rides the
    // request down so every worker filters the same arrived set.
    impl.last_close =
        resolve_stream_close(impl.n, impl.banned_set, arrival_salt,
                             policy.arrival_horizon_s, policy.deadline_s,
                             policy.quorum);
    req.limit = engine->ranking_cutoff(impl.last_close.arrived);

    StreamExtra extra;
    extra.arrival_salt = arrival_salt;
    extra.horizon_s = policy.arrival_horizon_s;
    extra.close_time_s = impl.last_close.close_time_s;
    extra.boundary_node = impl.last_close.boundary_node;
    return impl.run(*engine, req, &extra, rng);
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
