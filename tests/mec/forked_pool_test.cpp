// A forked child inherits the shared util::ThreadPool object but none of its
// threads, and a lock a pool thread held at the fork stays held there. These
// tests hold the pool to running serially in the child: the parent starts
// the pool and keeps it busy from another thread while it forks, and each
// child drifts a store of more than one 4096-row chunk, with no
// FMORE_ROUND_THREADS set, and makes a pooled call of its own. The parent
// waits a bounded time (SIGKILL on timeout) and compares the child's columns
// with a serial twin's. A pool that let the child touch its locks hung most
// such children.
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
#include <string>
#include <thread>
#include <vector>

#include "fmore/mec/population_store.hpp"
#include "fmore/mec/wire_format.hpp"
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

/// The child's report: its columns after three drifts, then the count of
/// indices its own pooled call ran.
struct ChildReport {
    bool finished = false;  ///< exited 0 before the deadline
    std::string bytes;
};

ChildReport run_child(const PopulationStore& store) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
        ::close(fds[0]);
        ::unsetenv("FMORE_ROUND_THREADS");
        PopulationStore drifted = store;
        stats::Rng rng(kDriftSeed);
        for (int round = 0; round < 3; ++round) drifted.evolve(rng);
        std::atomic<std::uint64_t> ran{0};
        util::ThreadPool::shared().parallel_for(
            64, 7, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
        const std::string bytes = column_bytes(drifted);
        const std::uint64_t count = ran.load();
        const bool sent = wire::write_all(fds[1], bytes.data(), bytes.size())
                          && wire::write_all(fds[1], &count, sizeof count);
        ::_exit(sent ? 0 : 1);
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
    std::vector<ChildReport> children;
    for (int c = 0; c < 8; ++c) {
        children.push_back(run_child(store));
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

} // namespace
} // namespace fmore::mec
