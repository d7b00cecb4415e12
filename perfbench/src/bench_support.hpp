#pragma once

/// @file bench_support.hpp
/// Measurement plumbing shared by the benchmark's lanes: an in-memory span
/// recorder written once at exit as Chrome trace-event JSON, the per-round
/// outcome digest the reference-lane checks compare, the rule that turns
/// the FL decorator's select() timestamps into round wall times, and the
/// few /proc readings (peak RSS, per-process CPU time, filesystem type).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fmore/auction/types.hpp"
#include "fmore/fl/selection.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
}

/// One recorded span. `parent` indexes the recorder's span list (-1 for a
/// root); `round` is the round the span belongs to (-1 during set-up).
struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::int64_t round = -1;
};

/// Spans of one single-threaded lane, kept in memory. A disabled tracer
/// records nothing, so the untraced lanes pay one branch per boundary.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Open a span under the innermost open one; returns its id (-1 when
    /// disabled).
    std::int64_t open(std::string name, std::int64_t round);
    void close(std::int64_t id);
    /// Record a span timed elsewhere (e.g. a round split from timestamps).
    std::int64_t add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                     std::int64_t parent, std::int64_t round);
    /// Re-parent span `child` under `parent` (both already recorded).
    void set_parent(std::int64_t child, std::int64_t parent);

    [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

    /// Chrome trace-event JSON ("X" complete events, microsecond times
    /// relative to the first span); span id, parent id and round ride in
    /// each event's args. Perfetto and chrome://tracing open it.
    void write_chrome_json(const std::string& path) const;

private:
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<std::int64_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
public:
    Span(Tracer& tracer, const char* name, std::int64_t round)
        : tracer_(tracer), id_(tracer.open(name, round)) {}
    ~Span() { tracer_.close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer& tracer_;
    std::int64_t id_;
};

/// 64-bit FNV-1a over the exact bits of what a round decided. Two lanes
/// that agree bit for bit produce the same digest; any differing winner,
/// payment, score or metric changes it.
class Digest {
public:
    void add(std::uint64_t value);
    void add(double value);
    [[nodiscard]] std::uint64_t value() const { return hash_; }
    /// 16 lowercase hex digits.
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Winner ids, scores and payments of one auction outcome.
[[nodiscard]] Digest digest_winners(const std::vector<fmore::auction::Winner>& winners);
/// Selected clients with their payments, scores and contracted samples.
[[nodiscard]] Digest digest_selection(const fmore::fl::SelectionRecord& record);

/// Round wall times from the select() entry timestamps of a closed-loop
/// run: round r runs from entry r to entry r+1, and the last round ends at
/// `end_ns` (when the run returns).
/// @throws std::invalid_argument on no entries or non-increasing times
[[nodiscard]] std::vector<double> split_rounds_ms(const std::vector<std::int64_t>& entries_ns,
                                                  std::int64_t end_ns);

/// Peak resident set (VmHWM) of a process in KiB; `pid` 0 reads this one.
/// @throws std::runtime_error when /proc has no such entry
[[nodiscard]] long peak_rss_kib(int pid);
/// CPU time a process's main thread has run, in nanoseconds, from
/// /proc/<pid>/schedstat — nanosecond resolution where /proc/<pid>/stat
/// counts 10 ms ticks.
/// @throws std::runtime_error when the kernel does not provide schedstat
[[nodiscard]] std::int64_t cpu_time_ns(int pid);
/// Filesystem type of the directory holding `path` ("ext4", "tmpfs", ...).
[[nodiscard]] std::string filesystem_type(const std::string& path);
/// CPU model string from /proc/cpuinfo.
[[nodiscard]] std::string cpu_model();

} // namespace perfbench
