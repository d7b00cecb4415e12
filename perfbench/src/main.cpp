// perfbench_lane: runs one lane of one benchmark workload and prints its raw
// measurements as a single JSON line. `perfbench/run.py` drives it: it
// builds this binary, runs the main and reference lanes in fresh
// processes, compares their digests and computes the metrics.
//
//   perfbench_lane --workload fl_cifar|market_1m|stream_1m|wire_1m
//                  --lane main|reference|trace --seed N
//                  [--setup-repeats S] [--warmup-rounds W] [--rounds R]
//                  [--trace-rounds T] [--check-rounds C]
//                  [--work-dir DIR] [--trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fmore/util/thread_pool.hpp"
#include "lanes.hpp"
#include "perfbench_build_info.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

template <class T, class Fn>
std::string json_array(const std::vector<T>& items, Fn render) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        out += render(items[i]);
    }
    return out + "]";
}

std::string to_json(const LaneArgs& args, const LaneReport& report) {
    std::ostringstream out;
    out << "{\"workload\": " << json_string(args.workload)
        << ", \"lane\": " << json_string(args.lane) << ", \"seed\": " << args.seed
        << ", \"setup_s\": " << json_array(report.setup_s, json_number)
        << ", \"round_ms\": " << json_array(report.round_ms, json_number)
        << ", \"run_s\": " << json_number(report.run_s)
        << ", \"peak_rss_kib\": " << report.peak_rss_kib
        << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
        << ", \"failures\": " << json_array(report.failures, json_string)
        << ", \"digests\": " << json_array(report.digests, json_string)
        << ", \"values\": {";
    bool first = true;
    for (const auto& [name, series] : report.values) {
        out << (first ? "" : ", ") << json_string(name) << ": {\"fold\": "
            << json_string(series.fold)
            << ", \"values\": " << json_array(series.values, json_number) << "}";
        first = false;
    }
    out << "}, \"env\": {\"build\": " << json_string(PERFBENCH_BUILD_INFO)
        << ", \"thread_budget\": " << fmore::util::thread_budget()
        << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": " << json_string(cpu_model());
    for (const auto& [key, value] : report.notes)
        out << ", " << json_string(key) << ": " << json_string(value);
    out << "}}";
    return out.str();
}

std::size_t parse_count(const char* flag, const char* text) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        throw std::invalid_argument(std::string(flag) + " expects a whole number, got '"
                                    + text + "'");
    return static_cast<std::size_t>(value);
}

LaneArgs parse(int argc, char** argv) {
    LaneArgs args;
    for (int i = 1; i < argc; ++i) {
        const char* flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + flag);
        const char* value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) args.workload = value;
        else if (std::strcmp(flag, "--lane") == 0) args.lane = value;
        else if (std::strcmp(flag, "--seed") == 0) args.seed = parse_count(flag, value);
        else if (std::strcmp(flag, "--setup-repeats") == 0) args.setup_repeats = parse_count(flag, value);
        else if (std::strcmp(flag, "--warmup-rounds") == 0) args.warmup_rounds = parse_count(flag, value);
        else if (std::strcmp(flag, "--rounds") == 0) args.rounds = parse_count(flag, value);
        else if (std::strcmp(flag, "--trace-rounds") == 0) args.trace_rounds = parse_count(flag, value);
        else if (std::strcmp(flag, "--check-rounds") == 0) args.check_rounds = parse_count(flag, value);
        else if (std::strcmp(flag, "--work-dir") == 0) args.work_dir = value;
        else if (std::strcmp(flag, "--trace-out") == 0) args.trace_out = value;
        else throw std::invalid_argument(std::string("unknown flag ") + flag);
    }
    if (args.lane != "main" && args.lane != "reference" && args.lane != "trace")
        throw std::invalid_argument("--lane must be main, reference or trace");
    if (args.setup_repeats == 0) throw std::invalid_argument("--setup-repeats must be >= 1");
    if (args.lane == "trace" && args.trace_out.empty())
        throw std::invalid_argument("the trace lane needs --trace-out");
    if (args.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
    return args;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const LaneArgs args = parse(argc, argv);
        Tracer tracer(args.lane == "trace");
        LaneReport report;
        if (args.workload == "fl_cifar") report = run_fl_cifar(args, tracer);
        else if (args.workload == "market_1m") report = run_market_1m(args, tracer);
        else if (args.workload == "stream_1m") report = run_stream_1m(args, tracer);
        else if (args.workload == "wire_1m") report = run_wire_1m(args, tracer);
        else throw std::invalid_argument("unknown workload '" + args.workload + "'");
        if (tracer.enabled()) tracer.write_chrome_json(args.trace_out);
        std::cout << to_json(args, report) << std::endl;
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "perfbench_lane: " << error.what() << '\n';
        return 1;
    }
}
