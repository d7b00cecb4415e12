#pragma once

/// @file lanes.hpp
/// The benchmark's workloads as lanes of one process. Each workload has
///  - a main lane: build the world `setup_repeats` times (the last one is
///    kept), run `warmup_rounds` untimed rounds, then `rounds` timed ones;
///  - a reference lane: an independent engine the repo already proves
///    bit-identical to the main lane, run for `check_rounds` rounds;
///  - a trace lane: `rounds` untraced rounds, then `trace_rounds` rounds
///    with a span around every call the benchmark makes into a module.
/// Every lane records the digest of its first `check_rounds` rounds;
/// `run.py` compares main against reference.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_support.hpp"

namespace perfbench {

struct LaneArgs {
    std::string workload;
    std::string lane = "main";  ///< main | reference | trace
    std::uint64_t seed = 1;
    std::size_t setup_repeats = 1;
    std::size_t warmup_rounds = 0;
    std::size_t rounds = 0;
    std::size_t trace_rounds = 0;
    std::size_t check_rounds = 0;
    std::string work_dir;        ///< scratch space inside the checkout
    std::string trace_out;       ///< Chrome trace path (trace lane)
};

/// A per-round series and how `run.py` folds it into one number.
struct Series {
    std::string fold = "median";  ///< median | sum | last
    std::vector<double> values;
};

/// Raw results of one lane run; `run.py` computes the metrics.
struct LaneReport {
    std::vector<double> setup_s;     ///< one entry per set-up repetition
    std::vector<double> round_ms;    ///< timed rounds (untraced)
    double run_s = 0.0;              ///< wall time of all timed rounds
    long peak_rss_kib = 0;           ///< for wire_1m: coordinator + workers
    std::size_t attempted = 0;       ///< rounds run, warm-up included
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few reasons
    std::vector<std::string> digests;   ///< first `check_rounds` rounds
    std::map<std::string, Series> values;  ///< trace lane counters/ratios
    std::map<std::string, std::string> notes;

    void fail(std::size_t round, const std::string& why) {
        ++failed;
        if (failures.size() < 8)
            failures.push_back("round " + std::to_string(round) + ": " + why);
    }
    void add_value(const std::string& name, const char* fold, double value) {
        Series& series = values[name];
        series.fold = fold;
        series.values.push_back(value);
    }
};

LaneReport run_fl_cifar(const LaneArgs& args, Tracer& tracer);
LaneReport run_market_1m(const LaneArgs& args, Tracer& tracer);
LaneReport run_stream_1m(const LaneArgs& args, Tracer& tracer);
LaneReport run_wire_1m(const LaneArgs& args, Tracer& tracer);

} // namespace perfbench
