// A forked child inherits the shared util::ThreadPool object but none of its
// threads, and a lock a pool thread held at the fork stays held there. These
// tests hold the pool to running serially in the child: the parent starts
// the pool and keeps it busy from another thread while it forks, and each
// child drifts a store of more than one 4096-row chunk, with no
// FMORE_ROUND_THREADS set, and makes a pooled call of its own. The parent
// waits a bounded time (SIGKILL on timeout) and compares the child's columns
// with a serial twin's. A pool that let the child touch its locks hung most
// such children. A child also builds a world (`stats::draw_in_chunks`): it
// resolves one round thread, so it draws every item itself with no walk, and
// its store and image set equal the serial loops'.
//
// The suite forks without exec, so its name must stay out of the
// ThreadSanitizer leg's test regex.

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fmore/mec/population_store.hpp"
#include "fmore/mec/wire_format.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/reference/serial_world.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {
namespace {

constexpr std::size_t kRows = 20'000;  // five 4096-row drift chunks
constexpr int kDeadlineMs = 60'000;
constexpr std::uint64_t kDriftSeed = 0xf04cULL;

PopulationStore make_store() {
    PopulationSpec spec;
    spec.dynamics.resource_jitter = 0.08;
    spec.dynamics.theta_jitter = 0.02;
    SyntheticDataSpec data;
    data.data_hi = 150.0;
    const stats::UniformDistribution theta(0.5, 1.5);
    stats::Rng rng(0x5eedULL);
    return PopulationStore(kRows, data, theta, spec, rng);
}

/// Every column of `store`, in snapshot order, as raw bytes.
std::string column_bytes(const PopulationStore& store) {
    std::string out;
    for (const std::vector<double>& column : store.snapshot().columns)
        out.append(reinterpret_cast<const char*>(column.data()),
                   column.size() * sizeof(double));
    return out;
}

/// What a child sent before it exited.
struct ChildReport {
    bool finished = false;  ///< exited 0 before the deadline
    std::string bytes;
};

/// Forks a child that runs `work` with no FMORE_ROUND_THREADS set and sends
/// the parent what it returns.
ChildReport run_child(const std::function<std::string()>& work) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
        ::close(fds[0]);
        ::unsetenv("FMORE_ROUND_THREADS");
        const std::string bytes = work();
        ::_exit(wire::write_all(fds[1], bytes.data(), bytes.size()) ? 0 : 1);
    }
    ::close(fds[1]);

    ChildReport report;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(kDeadlineMs);
    const auto left_ms = [&] {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        return static_cast<int>(std::max<std::int64_t>(0, left.count()));
    };
    bool eof = false;
    char buf[1 << 16];
    while (!eof && left_ms() > 0) {
        pollfd p{fds[0], POLLIN, 0};
        const int ready = ::poll(&p, 1, left_ms());
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) break;
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            eof = true;
            break;
        }
        report.bytes.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    pid_t reaped = 0;
    while (eof && (reaped = ::waitpid(pid, &status, WNOHANG)) == 0 && left_ms() > 0)
        ::usleep(1000);
    if (reaped != pid) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        return report;
    }
    report.finished = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return report;
}

TEST(ForkedPool, ChildDriftsSeriallyWithoutTheRoundThreadsVariable) {
    // The parent's pool is running: a pooled call with helpers starts it.
    std::atomic<std::uint64_t> ran{0};
    util::ThreadPool::shared().parallel_for(64, 7,
                                            [&](std::size_t, std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 64u);
    ASSERT_GT(util::ThreadPool::shared().worker_count(), 0u);

    const PopulationStore store = make_store();
    PopulationStore twin = store;
    stats::Rng rng(kDriftSeed);
    for (int round = 0; round < 3; ++round) twin.evolve_serial(rng);
    const std::string expected = column_bytes(twin);

    // Forks land while another thread keeps the pool's workers waking,
    // taking jobs and sleeping, so some fork catches a lock mid-use.
    std::atomic<bool> stop{false};
    std::thread busy([&] {
        while (!stop.load())
            util::ThreadPool::shared().parallel_for(
                32, 7, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
    });
    // Each child's columns after three drifts, then the count of indices
    // its own pooled call ran.
    const auto drift_in_child = [&store] {
        PopulationStore drifted = store;
        stats::Rng rng(kDriftSeed);
        for (int round = 0; round < 3; ++round) drifted.evolve(rng);
        std::atomic<std::uint64_t> ran{0};
        util::ThreadPool::shared().parallel_for(
            64, 7, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
        const std::uint64_t count = ran.load();
        return column_bytes(drifted)
               + std::string(reinterpret_cast<const char*>(&count), sizeof count);
    };
    std::vector<ChildReport> children;
    for (int c = 0; c < 8; ++c) {
        children.push_back(run_child(drift_in_child));
        if (!children.back().finished) break;
    }
    stop = true;
    busy.join();

    for (std::size_t c = 0; c < children.size(); ++c) {
        SCOPED_TRACE("child " + std::to_string(c));
        const ChildReport& child = children[c];
        ASSERT_TRUE(child.finished) << "the child hung past " << kDeadlineMs
                                    << " ms or failed (" << child.bytes.size()
                                    << " bytes read)";
        ASSERT_EQ(child.bytes.size(), expected.size() + sizeof(std::uint64_t));
        EXPECT_TRUE(std::memcmp(child.bytes.data(), expected.data(), expected.size()) == 0)
            << "the child's drifted columns differ from the serial twin's";
        std::uint64_t count = 0;
        std::memcpy(&count, child.bytes.data() + expected.size(), sizeof count);
        EXPECT_EQ(count, 64u);
    }

    // The parent's pool still works after the forks.
    ran = 0;
    util::ThreadPool::shared().parallel_for(64, 7,
                                            [&](std::size_t, std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 64u);
}

TEST(ForkedPool, ChildBuildsAWorldOnOneThreadLikeTheSerialLoop) {
    // The parent's pool is running, so a child of this process is not its
    // owner: it resolves one round thread and draws every item itself.
    std::atomic<std::uint64_t> ran{0};
    util::ThreadPool::shared().parallel_for(64, 7,
                                            [&](std::size_t, std::size_t) { ran.fetch_add(1); });
    ASSERT_GT(util::ThreadPool::shared().worker_count(), 0u);

    constexpr std::size_t kNodes = 3 * 65'536 + 5;  // four store build chunks
    const ml::ImageDatasetSpec spec = ml::cifar10_spec(200);
    const stats::UniformDistribution theta(0.5, 1.5);
    PopulationSpec pop;
    pop.dynamics.resource_jitter = 0.08;
    SyntheticDataSpec data;
    data.data_hi = 150.0;

    const auto bytes_of = [](const auto& values) {
        return std::string(reinterpret_cast<const char*>(values.data()),
                           values.size() * sizeof(values[0]));
    };
    const auto world_bytes = [&](const std::vector<std::vector<double>>& columns,
                                 const ml::DatasetSplit& split, stats::Rng& rng) {
        std::string out;
        for (const std::vector<double>& column : columns) out += bytes_of(column);
        out += bytes_of(split.train.features) + bytes_of(split.train.labels)
               + bytes_of(split.test.features) + bytes_of(split.test.labels);
        const std::uint64_t next = rng.engine()();
        return out + std::string(reinterpret_cast<const char*>(&next), sizeof next);
    };
    stats::Rng serial_rng(31);
    const std::vector<std::vector<double>> columns =
        reference::serial_store_columns(kNodes, data, theta, pop, serial_rng);
    const ml::DatasetSplit split = reference::serial_synthetic_images(spec, 150, serial_rng);
    const std::string expected = char{1} + world_bytes(columns, split, serial_rng);

    const ChildReport child = run_child([&] {
        const std::size_t threads = util::resolve_round_threads(0, 64);
        stats::Rng rng(31);
        const PopulationStore store(kNodes, data, theta, pop, rng);
        const ml::DatasetSplit images = ml::make_synthetic_images(spec, 150, rng);
        return static_cast<char>(threads) + world_bytes(store.snapshot().columns, images, rng);
    });
    ASSERT_TRUE(child.finished) << "the child hung past " << kDeadlineMs << " ms or failed";
    ASSERT_EQ(child.bytes.size(), expected.size());
    EXPECT_EQ(child.bytes[0], 1) << "the child resolved more than one round thread";
    EXPECT_TRUE(child.bytes == expected) << "the child's world differs from the serial loops'";
}

} // namespace
} // namespace fmore::mec
