// The durable-run container (util/snapshot.hpp) and the RunCheckpoint
// serialization built on it. The contract under test: a checkpoint is
// either consumed whole or rejected whole — every truncated prefix and
// every single-byte corruption of a valid file raises SnapshotError with
// context, never a crash, never a half-loaded checkpoint — and a clean
// file round-trips bit-exactly.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "fmore/core/run_checkpoint.hpp"
#include "fmore/util/snapshot.hpp"

namespace fmore::core {
namespace {

namespace fs = std::filesystem;
using util::ByteReader;
using util::ByteWriter;
using util::SnapshotError;
using util::SnapshotReader;
using util::SnapshotWriter;

/// Scratch directory cleaned up per test.
class TempDir {
public:
    TempDir() {
        static int counter = 0;
        dir_ = fs::temp_directory_path()
               / ("fmore_snapshot_test_" + std::to_string(::getpid()) + "_"
                  + std::to_string(counter++));
        fs::create_directories(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    [[nodiscard]] std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }
    [[nodiscard]] std::string str() const { return dir_.string(); }

private:
    fs::path dir_;
};

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(Snapshot, ByteCodecRoundTripsEveryType) {
    std::mt19937_64 gen(42);
    for (int iter = 0; iter < 20; ++iter) {
        const std::uint32_t a = static_cast<std::uint32_t>(gen());
        const std::uint64_t b = gen();
        const float c = static_cast<float>(gen()) / 3.0f;
        const double d = static_cast<double>(gen()) / 7.0;
        std::string s;
        for (std::size_t i = gen() % 40; i-- > 0;)
            s.push_back(static_cast<char>(gen() % 256));
        std::vector<float> fv(gen() % 17);
        for (float& f : fv) f = static_cast<float>(gen()) * 1e-9f;
        std::vector<double> dv(gen() % 17);
        for (double& x : dv) x = static_cast<double>(gen()) * 1e-9;
        std::vector<std::uint64_t> uv(gen() % 17);
        for (std::uint64_t& u : uv) u = gen();

        ByteWriter w;
        w.put_u32(a);
        w.put_u64(b);
        w.put_f32(c);
        w.put_f64(d);
        w.put_str(s);
        w.put_f32_vec(fv);
        w.put_f64_vec(dv);
        w.put_u64_vec(uv);

        const std::vector<std::uint8_t> bytes = w.bytes();
        ByteReader r(bytes.data(), bytes.size(), "test");
        EXPECT_EQ(r.get_u32(), a);
        EXPECT_EQ(r.get_u64(), b);
        EXPECT_EQ(r.get_f32(), c);
        EXPECT_EQ(r.get_f64(), d);
        EXPECT_EQ(r.get_str(), s);
        EXPECT_EQ(r.get_f32_vec(), fv);
        EXPECT_EQ(r.get_f64_vec(), dv);
        EXPECT_EQ(r.get_u64_vec(), uv);
        EXPECT_EQ(r.remaining(), 0u);
        EXPECT_NO_THROW(r.expect_end());
    }
}

TEST(Snapshot, ReaderRejectsEveryTruncatedPrefix) {
    ByteWriter w;
    w.put_u32(7);
    w.put_u64(9);
    w.put_f64(3.5);
    w.put_str("hello");
    w.put_u64_vec({1, 2, 3});
    const std::vector<std::uint8_t> bytes = w.bytes();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        ByteReader r(bytes.data(), cut, "cut");
        EXPECT_THROW(
            {
                (void)r.get_u32();
                (void)r.get_u64();
                (void)r.get_f64();
                (void)r.get_str();
                (void)r.get_u64_vec();
            },
            SnapshotError)
            << "prefix of " << cut << " bytes was accepted";
    }
}

TEST(Snapshot, ExpectEndRejectsLeftoverBytes) {
    ByteWriter w;
    w.put_u32(1);
    w.put_u32(2);
    const std::vector<std::uint8_t> bytes = w.bytes();
    ByteReader r(bytes.data(), bytes.size(), "leftover");
    (void)r.get_u32();
    EXPECT_THROW(r.expect_end(), SnapshotError);
}

// ---------------------------------------------------------------------------
// SnapshotWriter / SnapshotReader container
// ---------------------------------------------------------------------------

SnapshotWriter sample_writer() {
    SnapshotWriter writer;
    ByteWriter a;
    a.put_str("alpha");
    a.put_u64(123456789ULL);
    writer.add_section(1, a.take());
    ByteWriter b;
    b.put_f64_vec({1.0, -2.5, 3.25});
    writer.add_section(7, b.take());
    return writer;
}

TEST(Snapshot, ContainerRoundTripsSections) {
    const std::vector<std::uint8_t> bytes = sample_writer().serialize();
    const SnapshotReader reader = SnapshotReader::from_bytes(bytes, "mem");
    EXPECT_EQ(reader.section_count(), 2u);
    EXPECT_TRUE(reader.has_section(1));
    EXPECT_TRUE(reader.has_section(7));
    EXPECT_FALSE(reader.has_section(2));
    ByteReader r = reader.open_section(1);
    EXPECT_EQ(r.get_str(), "alpha");
    EXPECT_EQ(r.get_u64(), 123456789ULL);
    r.expect_end();
    ByteReader r7 = reader.open_section(7);
    EXPECT_EQ(r7.get_f64_vec(), (std::vector<double>{1.0, -2.5, 3.25}));
    EXPECT_THROW((void)reader.section(2), SnapshotError);
}

TEST(Snapshot, DuplicateSectionTagIsRejectedAtAdd) {
    SnapshotWriter writer;
    writer.add_section(3, {1, 2, 3});
    EXPECT_THROW(writer.add_section(3, {4, 5}), SnapshotError);
}

TEST(Snapshot, EveryTruncatedFilePrefixIsRejected) {
    const std::vector<std::uint8_t> bytes = sample_writer().serialize();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
        EXPECT_THROW((void)SnapshotReader::from_bytes(std::move(prefix), "cut"),
                     SnapshotError)
            << "prefix of " << cut << " bytes parsed";
    }
}

TEST(Snapshot, EverySingleByteCorruptionIsRejected) {
    const std::vector<std::uint8_t> bytes = sample_writer().serialize();
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::vector<std::uint8_t> bad = bytes;
        bad[pos] ^= 0x40;
        EXPECT_THROW((void)SnapshotReader::from_bytes(std::move(bad), "flip"),
                     SnapshotError)
            << "flip at byte " << pos << " parsed";
    }
}

TEST(Snapshot, TrailingBytesAreRejected) {
    std::vector<std::uint8_t> bytes = sample_writer().serialize();
    bytes.push_back(0);
    EXPECT_THROW((void)SnapshotReader::from_bytes(std::move(bytes), "trail"),
                 SnapshotError);
}

TEST(Snapshot, FileRoundTripLeavesNoTemp) {
    TempDir tmp;
    const std::string path = tmp.path("a.fmsnap");
    sample_writer().write_file(path);
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    const SnapshotReader reader = SnapshotReader::from_file(path);
    ByteReader r = reader.open_section(1);
    EXPECT_EQ(r.get_str(), "alpha");
}

TEST(Snapshot, MissingFileIsADiagnosisNotACrash) {
    EXPECT_THROW((void)SnapshotReader::from_file("/nonexistent/nope.fmsnap"),
                 SnapshotError);
}

TEST(Snapshot, ThrowingMidWriteNeverShadowsThePreviousFile) {
    TempDir tmp;
    const std::string path = tmp.path("b.fmsnap");
    sample_writer().write_file(path); // good generation 1
    SnapshotWriter gen2;
    gen2.add_section(1, {9, 9, 9});
    struct Abort {};
    EXPECT_THROW(gen2.write_file(path, [] { throw Abort{}; }), Abort);
    // The interrupted write unlinked its temp and left generation 1 intact.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    const SnapshotReader reader = SnapshotReader::from_file(path);
    ByteReader r = reader.open_section(1);
    EXPECT_EQ(r.get_str(), "alpha");
}

/// The whole file at `path`.
std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// CRC-32 straight from its definition: one byte per step, one bit at a time.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(Snapshot, Crc32MatchesBytewiseReference) {
    // Every length crosses the 8-byte step at every alignment, tails included.
    std::mt19937_64 gen(20261017);
    std::vector<std::uint8_t> buf(1031 + 8);
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(gen());
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 1031; ++len)
            ASSERT_EQ(util::snapshot_crc32(buf.data() + offset, len),
                      reference_crc32(buf.data() + offset, len))
                << "offset " << offset << ", length " << len;
    const std::string check = "123456789";
    EXPECT_EQ(util::snapshot_crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                                   check.size()),
              0xCBF43926u);
}

TEST(Snapshot, WriteFileMatchesSerialize) {
    TempDir tmp;
    const std::string path = tmp.path("c.fmsnap");
    std::vector<std::uint8_t> borrowed(1001);
    for (std::size_t i = 0; i < borrowed.size(); ++i)
        borrowed[i] = static_cast<std::uint8_t>(i * 7 + 3);
    SnapshotWriter writer;
    writer.add_section(4, {});
    writer.add_section(9, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13});
    writer.add_borrowed_section(2, borrowed);
    const std::vector<std::uint8_t> expected = writer.serialize();

    int calls = 0;
    writer.write_file(path, [&] {
        ++calls;
        EXPECT_EQ(fs::file_size(path + ".tmp"), expected.size() / 2);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(read_file(path), expected);
    const SnapshotReader reader = SnapshotReader::from_file(path);
    EXPECT_TRUE(reader.section(4).empty());
    EXPECT_EQ(reader.section(2), borrowed);
}

// ---------------------------------------------------------------------------
// RunCheckpoint save/load
// ---------------------------------------------------------------------------

RunCheckpoint sample_checkpoint() {
    RunCheckpoint ckpt;
    ckpt.spec_text = "mode = simulation\nseed = 7\n";
    ckpt.policy = "fmore";
    ckpt.trial_index = 2;
    ckpt.rng_state = "123 456 789";
    ckpt.model_params = {0.25f, -1.5f, 3.0f};
    ckpt.population.node_offset = 5;
    ckpt.population.salt_history = {11, 22, 33};
    ckpt.population.columns = {{1.0, 2.0}, {3.0, 4.0}};
    ckpt.banned_nodes = {3, 8};
    for (std::size_t round = 1; round <= 2; ++round) {
        fl::RoundMetrics m;
        m.round = round;
        m.test_accuracy = 0.5 + 0.1 * static_cast<double>(round);
        m.test_loss = 1.25;
        m.train_loss = 0.75;
        m.mean_winner_payment = 2.5;
        m.mean_winner_score = 0.125;
        m.round_seconds = 9.5;
        m.aggregated_updates = 4;
        m.mean_staleness = 0.5;
        m.dropped_shards = 1;
        fl::SelectedClient c;
        c.client = 42 + round;
        c.payment = 1.75;
        c.score = 0.5;
        if (round == 2) c.train_samples = 321;
        m.selection.selected.push_back(c);
        m.selection.all_scores = {0.5, 0.25};
        m.selection.scores_by_node = {0.0, 0.5, 0.25};
        m.selection.dropped_shards = {1};
        m.selection.shard_health = {3, 1, 2, 1, 1};
        m.selection.close_reason = round == 2 ? "quorum" : "";
        m.selection.close_time_s = 0.75;
        m.selection.arrived_bids = 6;
        m.selection.bid_quorum = 4;
        ckpt.rounds.push_back(m);
    }
    ckpt.completed_rounds = ckpt.rounds.size();
    fl::InFlightUpdate u;
    u.seq = 9;
    u.base_round = 1;
    u.weight = 0.5;
    u.arrival = 12.25;
    u.dropped = true;
    u.params = {1.0f, 2.0f};
    u.stats.mean_loss = 0.625;
    u.stats.samples = 17;
    ckpt.flight.push_back(u);
    ckpt.next_seq = 10;
    return ckpt;
}

void expect_checkpoints_equal(const RunCheckpoint& a, const RunCheckpoint& b) {
    EXPECT_EQ(a.spec_text, b.spec_text);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.trial_index, b.trial_index);
    EXPECT_EQ(a.completed_rounds, b.completed_rounds);
    EXPECT_EQ(a.rng_state, b.rng_state);
    EXPECT_EQ(a.model_params, b.model_params);
    EXPECT_EQ(a.population.node_offset, b.population.node_offset);
    EXPECT_EQ(a.population.salt_history, b.population.salt_history);
    EXPECT_EQ(a.population.columns, b.population.columns);
    EXPECT_EQ(a.banned_nodes, b.banned_nodes);
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t i = 0; i < a.rounds.size(); ++i) {
        const fl::RoundMetrics& x = a.rounds[i];
        const fl::RoundMetrics& y = b.rounds[i];
        EXPECT_EQ(x.round, y.round);
        EXPECT_EQ(x.test_accuracy, y.test_accuracy);
        EXPECT_EQ(x.test_loss, y.test_loss);
        EXPECT_EQ(x.train_loss, y.train_loss);
        EXPECT_EQ(x.mean_winner_payment, y.mean_winner_payment);
        EXPECT_EQ(x.mean_winner_score, y.mean_winner_score);
        EXPECT_EQ(x.round_seconds, y.round_seconds);
        EXPECT_EQ(x.aggregated_updates, y.aggregated_updates);
        EXPECT_EQ(x.mean_staleness, y.mean_staleness);
        EXPECT_EQ(x.dropped_shards, y.dropped_shards);
        ASSERT_EQ(x.selection.selected.size(), y.selection.selected.size());
        for (std::size_t j = 0; j < x.selection.selected.size(); ++j) {
            EXPECT_EQ(x.selection.selected[j].client,
                      y.selection.selected[j].client);
            EXPECT_EQ(x.selection.selected[j].payment,
                      y.selection.selected[j].payment);
            EXPECT_EQ(x.selection.selected[j].score,
                      y.selection.selected[j].score);
            EXPECT_EQ(x.selection.selected[j].train_samples,
                      y.selection.selected[j].train_samples);
        }
        EXPECT_EQ(x.selection.all_scores, y.selection.all_scores);
        EXPECT_EQ(x.selection.scores_by_node, y.selection.scores_by_node);
        EXPECT_EQ(x.selection.dropped_shards, y.selection.dropped_shards);
        EXPECT_EQ(x.selection.shard_health.live_shards,
                  y.selection.shard_health.live_shards);
        EXPECT_EQ(x.selection.shard_health.corrupt_frames,
                  y.selection.shard_health.corrupt_frames);
        EXPECT_EQ(x.selection.shard_health.frame_retries,
                  y.selection.shard_health.frame_retries);
        EXPECT_EQ(x.selection.shard_health.evictions,
                  y.selection.shard_health.evictions);
        EXPECT_EQ(x.selection.shard_health.respawns,
                  y.selection.shard_health.respawns);
        EXPECT_EQ(x.selection.close_reason, y.selection.close_reason);
        EXPECT_EQ(x.selection.close_time_s, y.selection.close_time_s);
        EXPECT_EQ(x.selection.arrived_bids, y.selection.arrived_bids);
        EXPECT_EQ(x.selection.bid_quorum, y.selection.bid_quorum);
    }
    ASSERT_EQ(a.flight.size(), b.flight.size());
    for (std::size_t i = 0; i < a.flight.size(); ++i) {
        EXPECT_EQ(a.flight[i].seq, b.flight[i].seq);
        EXPECT_EQ(a.flight[i].base_round, b.flight[i].base_round);
        EXPECT_EQ(a.flight[i].weight, b.flight[i].weight);
        EXPECT_EQ(a.flight[i].arrival, b.flight[i].arrival);
        EXPECT_EQ(a.flight[i].dropped, b.flight[i].dropped);
        EXPECT_EQ(a.flight[i].params, b.flight[i].params);
        EXPECT_EQ(a.flight[i].stats.mean_loss, b.flight[i].stats.mean_loss);
        EXPECT_EQ(a.flight[i].stats.samples, b.flight[i].stats.samples);
    }
    EXPECT_EQ(a.next_seq, b.next_seq);
}

TEST(RunCheckpointIO, SaveLoadRoundTripsBitExactly) {
    TempDir tmp;
    const RunCheckpoint ckpt = sample_checkpoint();
    const std::string path = tmp.path(checkpoint_filename(2));
    save_checkpoint(ckpt, path);
    const RunCheckpoint loaded = load_checkpoint(path);
    expect_checkpoints_equal(ckpt, loaded);
}

/// FNV-1a, 64-bit.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(RunCheckpointIO, FileBytesArePinned) {
    // Any change to the checkpoint format, intended or not, fails here; an
    // intended one also bumps SnapshotWriter::kVersion.
    TempDir tmp;
    const std::string path = tmp.path(checkpoint_filename(2));
    save_checkpoint(sample_checkpoint(), path);
    const std::vector<std::uint8_t> bytes = read_file(path);
    EXPECT_EQ(bytes.size(), 1013u);
    EXPECT_EQ(fnv1a64(bytes), 0x84c7ff2fd87a7e07ULL);
}

TEST(RunCheckpointIO, MetricsTapeRefusesToShrink) {
    const RunCheckpoint ckpt = sample_checkpoint();
    MetricsTape tape;
    tape.append(ckpt.rounds);
    const std::vector<fl::RoundMetrics> shorter(ckpt.rounds.begin(),
                                                ckpt.rounds.begin() + 1);
    EXPECT_THROW(tape.append(shorter), SnapshotError);
}

TEST(RunCheckpointIO, TapeLengthMismatchIsRejected) {
    TempDir tmp;
    RunCheckpoint ckpt = sample_checkpoint();
    ckpt.completed_rounds = 5; // tape holds 2
    const std::string path = tmp.path(checkpoint_filename(5));
    save_checkpoint(ckpt, path);
    EXPECT_THROW((void)load_checkpoint(path), SnapshotError);
}

TEST(RunCheckpointIO, FindLatestValidSkipsCorruptedNewest) {
    TempDir tmp;
    RunCheckpoint ckpt = sample_checkpoint();
    save_checkpoint(ckpt, tmp.path(checkpoint_filename(2)));

    fl::RoundMetrics extra = ckpt.rounds.back();
    extra.round = 3;
    ckpt.rounds.push_back(extra);
    ckpt.completed_rounds = 3;
    const std::string newest = tmp.path(checkpoint_filename(3));
    save_checkpoint(ckpt, newest);

    // Flip one byte in the newest file: resume must fall back to round 2.
    {
        std::fstream f(newest,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(30);
        char c = 0;
        f.seekg(30);
        f.get(c);
        c = static_cast<char>(c ^ 0x10);
        f.seekp(30);
        f.put(c);
    }
    const auto latest = find_latest_valid(tmp.str());
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->completed_rounds, 2u);
}

TEST(RunCheckpointIO, FindLatestValidOnEmptyOrMissingDirIsEmpty) {
    TempDir tmp;
    EXPECT_FALSE(find_latest_valid(tmp.str()).has_value());
    EXPECT_FALSE(find_latest_valid(tmp.path("missing")).has_value());
}

TEST(RunCheckpointIO, PruneKeepsNewestKAndSweepsTemps) {
    TempDir tmp;
    RunCheckpoint ckpt = sample_checkpoint();
    ckpt.rounds.resize(1);
    for (std::size_t round = 1; round <= 5; ++round) {
        ckpt.rounds[0].round = round;
        ckpt.completed_rounds = 1;
        save_checkpoint(ckpt, tmp.path(checkpoint_filename(round)));
    }
    { std::ofstream leftover(tmp.path("stale.fmsnap.tmp")); }
    prune_checkpoints(tmp.str(), 2);
    EXPECT_FALSE(fs::exists(tmp.path(checkpoint_filename(1))));
    EXPECT_FALSE(fs::exists(tmp.path(checkpoint_filename(2))));
    EXPECT_FALSE(fs::exists(tmp.path(checkpoint_filename(3))));
    EXPECT_TRUE(fs::exists(tmp.path(checkpoint_filename(4))));
    EXPECT_TRUE(fs::exists(tmp.path(checkpoint_filename(5))));
    EXPECT_FALSE(fs::exists(tmp.path("stale.fmsnap.tmp")));
}

TEST(RunCheckpointIO, FilenameAndRunDirAreStable) {
    EXPECT_EQ(checkpoint_filename(7), "ckpt_round_000007.fmsnap");
    EXPECT_EQ(checkpoint_run_dir("/tmp/ck", "fmore", 3), "/tmp/ck/fmore-t3");
}

} // namespace
} // namespace fmore::core
