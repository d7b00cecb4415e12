// Tests of the benchmark's own C++ code: the outcome digest, splitting
// rounds from select() timestamps, and the trace writer.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench_support.hpp"

namespace {

using perfbench::Digest;

TEST(Digest, FnvOfNothingIsTheOffsetBasis) {
    EXPECT_EQ(Digest().value(), 0xcbf29ce484222325ULL);
    EXPECT_EQ(Digest().hex(), "cbf29ce484222325");
}

TEST(Digest, KnownValueOfOneWord) {
    // FNV-1a over the 8 little-endian bytes of 1: 0x01 then seven 0x00.
    std::uint64_t expect = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 8; ++i) {
        expect ^= i == 0 ? 1U : 0U;
        expect *= 0x100000001b3ULL;
    }
    Digest digest;
    digest.add(std::uint64_t{1});
    EXPECT_EQ(digest.value(), expect);
}

TEST(Digest, WinnersDigestSeesEveryFieldAndTheOrder) {
    std::vector<fmore::auction::Winner> winners{{3, 1.5, 0.25}, {7, 1.25, 0.5}};
    const std::uint64_t base = perfbench::digest_winners(winners).value();
    EXPECT_EQ(perfbench::digest_winners(winners).value(), base);

    auto changed = winners;
    changed[1].node = 8;
    EXPECT_NE(perfbench::digest_winners(changed).value(), base);
    changed = winners;
    changed[0].payment = std::nextafter(0.25, 1.0);  // one ulp
    EXPECT_NE(perfbench::digest_winners(changed).value(), base);
    changed = winners;
    changed[0].score = std::nextafter(1.5, 2.0);
    EXPECT_NE(perfbench::digest_winners(changed).value(), base);
    changed = {winners[1], winners[0]};
    EXPECT_NE(perfbench::digest_winners(changed).value(), base);
    changed = {winners[0]};
    EXPECT_NE(perfbench::digest_winners(changed).value(), base);
}

TEST(Digest, SelectionDigestSeesContractedSamples) {
    fmore::fl::SelectionRecord record;
    record.selected.push_back({4, 2.0, 3.0, std::nullopt});
    const std::uint64_t none = perfbench::digest_selection(record).value();
    record.selected[0].train_samples = 40;
    const std::uint64_t forty = perfbench::digest_selection(record).value();
    record.selected[0].train_samples = 41;
    EXPECT_NE(none, forty);
    EXPECT_NE(forty, perfbench::digest_selection(record).value());
}

TEST(SplitRounds, EachRoundRunsToTheNextEntryAndTheLastToTheEnd) {
    const std::vector<double> rounds =
        perfbench::split_rounds_ms({1'000'000, 3'000'000, 3'500'000}, 10'000'000);
    ASSERT_EQ(rounds.size(), 3U);
    EXPECT_DOUBLE_EQ(rounds[0], 2.0);
    EXPECT_DOUBLE_EQ(rounds[1], 0.5);
    EXPECT_DOUBLE_EQ(rounds[2], 6.5);
}

TEST(SplitRounds, RejectsEmptyAndNonIncreasingTimestamps) {
    EXPECT_THROW((void)perfbench::split_rounds_ms({}, 5), std::invalid_argument);
    EXPECT_THROW((void)perfbench::split_rounds_ms({5, 5}, 9), std::invalid_argument);
    EXPECT_THROW((void)perfbench::split_rounds_ms({5, 7}, 7), std::invalid_argument);
}

TEST(Tracer, DisabledRecordsNothing) {
    perfbench::Tracer tracer(false);
    { const perfbench::Span span(tracer, "x", 1); }
    EXPECT_EQ(tracer.add("y", 1, 2, -1, 1), -1);
    EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, NestsSpansAndWritesChromeJson) {
    perfbench::Tracer tracer(true);
    {
        const perfbench::Span outer(tracer, "outer", 2);
        const perfbench::Span inner(tracer, "inner", 2);
    }
    const std::int64_t added = tracer.add("late", 10, 20, -1, 3);
    tracer.set_parent(0, added);
    ASSERT_EQ(tracer.spans().size(), 3U);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
    EXPECT_EQ(tracer.spans()[0].parent, 2);
    EXPECT_LE(tracer.spans()[1].end_ns, tracer.spans()[0].end_ns);

    const std::filesystem::path path = "perfbench_selftest_trace.json";
    tracer.write_chrome_json(path.string());
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::filesystem::remove(path);
    EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.str().find("\"name\": \"inner\""), std::string::npos);
    EXPECT_NE(text.str().find("\"parent\": 0, \"round\": 2"), std::string::npos);
}

TEST(Proc, ReadsThisProcess) {
    EXPECT_GT(perfbench::peak_rss_kib(0), 0);
    EXPECT_GT(perfbench::cpu_time_ns(0), 0);
    EXPECT_NE(perfbench::filesystem_type("."), "");
}

} // namespace
