#include "fmore/core/run_checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "fmore/util/snapshot.hpp"

namespace fmore::core {

namespace fs = std::filesystem;
using util::ByteReader;
using util::ByteWriter;
using util::SnapshotError;
using util::SnapshotReader;
using util::SnapshotWriter;

namespace {

// Section tags. New sections get new tags; existing payload layouts are
// frozen — change them only with a SnapshotWriter::kVersion bump.
constexpr std::uint32_t kSecMeta = 1;        // spec/policy/trial/rounds done
constexpr std::uint32_t kSecRng = 2;         // run RNG stream state
constexpr std::uint32_t kSecModel = 3;       // global parameters
constexpr std::uint32_t kSecPopulation = 4;  // columns + salt history
constexpr std::uint32_t kSecBlacklist = 5;   // banned node ids
constexpr std::uint32_t kSecMetrics = 6;     // full per-round tape
constexpr std::uint32_t kSecFlight = 7;      // async in-flight carry

void put_selection(ByteWriter& w, const fl::SelectionRecord& sel) {
    w.put_u64(sel.selected.size());
    for (const fl::SelectedClient& c : sel.selected) {
        w.put_u64(c.client);
        w.put_f64(c.payment);
        w.put_f64(c.score);
        w.put_u32(c.train_samples.has_value() ? 1 : 0);
        w.put_u64(c.train_samples.value_or(0));
    }
    w.put_f64_vec(sel.all_scores);
    w.put_f64_vec(sel.scores_by_node);
    std::vector<std::uint64_t> dropped(sel.dropped_shards.begin(),
                                       sel.dropped_shards.end());
    w.put_u64_vec(dropped);
    w.put_u64(sel.shard_health.live_shards);
    w.put_u64(sel.shard_health.corrupt_frames);
    w.put_u64(sel.shard_health.frame_retries);
    w.put_u64(sel.shard_health.evictions);
    w.put_u64(sel.shard_health.respawns);
    w.put_str(sel.close_reason);
    w.put_f64(sel.close_time_s);
    w.put_u64(sel.arrived_bids);
    w.put_u64(sel.bid_quorum);
}

fl::SelectionRecord get_selection(ByteReader& r) {
    fl::SelectionRecord sel;
    const std::uint64_t n = r.get_u64();
    sel.selected.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        fl::SelectedClient c;
        c.client = r.get_u64();
        c.payment = r.get_f64();
        c.score = r.get_f64();
        const bool has_samples = r.get_u32() != 0;
        const std::uint64_t samples = r.get_u64();
        if (has_samples) c.train_samples = samples;
        sel.selected.push_back(c);
    }
    sel.all_scores = r.get_f64_vec();
    sel.scores_by_node = r.get_f64_vec();
    for (std::uint64_t shard : r.get_u64_vec())
        sel.dropped_shards.push_back(static_cast<std::size_t>(shard));
    sel.shard_health.live_shards = r.get_u64();
    sel.shard_health.corrupt_frames = r.get_u64();
    sel.shard_health.frame_retries = r.get_u64();
    sel.shard_health.evictions = r.get_u64();
    sel.shard_health.respawns = r.get_u64();
    sel.close_reason = r.get_str();
    sel.close_time_s = r.get_f64();
    sel.arrived_bids = r.get_u64();
    sel.bid_quorum = r.get_u64();
    return sel;
}

void put_round(ByteWriter& w, const fl::RoundMetrics& m) {
    w.put_u64(m.round);
    w.put_f64(m.test_accuracy);
    w.put_f64(m.test_loss);
    w.put_f64(m.train_loss);
    w.put_f64(m.mean_winner_payment);
    w.put_f64(m.mean_winner_score);
    w.put_f64(m.round_seconds);
    w.put_u64(m.aggregated_updates);
    w.put_f64(m.mean_staleness);
    w.put_u64(m.dropped_shards);
    put_selection(w, m.selection);
}

fl::RoundMetrics get_round(ByteReader& r) {
    fl::RoundMetrics m;
    m.round = r.get_u64();
    m.test_accuracy = r.get_f64();
    m.test_loss = r.get_f64();
    m.train_loss = r.get_f64();
    m.mean_winner_payment = r.get_f64();
    m.mean_winner_score = r.get_f64();
    m.round_seconds = r.get_f64();
    m.aggregated_updates = r.get_u64();
    m.mean_staleness = r.get_f64();
    m.dropped_shards = r.get_u64();
    m.selection = get_selection(r);
    return m;
}

/// Round index encoded in a checkpoint filename, or nullopt for files the
/// retention/resume scans should ignore.
std::optional<std::size_t> round_of(const std::string& filename) {
    constexpr const char* prefix = "ckpt_round_";
    constexpr const char* suffix = ".fmsnap";
    if (filename.size() <= std::strlen(prefix) + std::strlen(suffix)) return {};
    if (filename.rfind(prefix, 0) != 0) return {};
    if (filename.size() < std::strlen(suffix)
        || filename.compare(filename.size() - std::strlen(suffix),
                            std::strlen(suffix), suffix)
               != 0)
        return {};
    const std::string digits = filename.substr(
        std::strlen(prefix),
        filename.size() - std::strlen(prefix) - std::strlen(suffix));
    if (digits.empty()
        || digits.find_first_not_of("0123456789") != std::string::npos)
        return {};
    return static_cast<std::size_t>(std::stoull(digits));
}

/// (round, path) for every well-named checkpoint file in `dir`,
/// round-descending. Missing directory reads as empty.
std::vector<std::pair<std::size_t, std::string>>
list_checkpoints(const std::string& dir) {
    std::vector<std::pair<std::size_t, std::string>> found;
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        const std::optional<std::size_t> round =
            round_of(entry.path().filename().string());
        if (round) found.emplace_back(*round, entry.path().string());
    }
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    return found;
}

} // namespace

std::string checkpoint_filename(std::size_t round) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "ckpt_round_%06zu.fmsnap", round);
    return buf;
}

std::string checkpoint_run_dir(const std::string& base, const std::string& policy,
                               std::size_t trial_index) {
    return base + "/" + policy + "-t" + std::to_string(trial_index);
}

void ensure_checkpoint_dir(const std::string& dir) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        throw SnapshotError("checkpoint: cannot create directory '" + dir
                            + "': " + ec.message());
}

void MetricsTape::append(const std::vector<fl::RoundMetrics>& rounds) {
    if (rounds.size() < rounds_)
        throw SnapshotError("checkpoint: the metrics tape shrank from "
                            + std::to_string(rounds_) + " to "
                            + std::to_string(rounds.size()) + " rounds");
    for (std::size_t i = rounds_; i < rounds.size(); ++i) put_round(bytes_, rounds[i]);
    bytes_.patch_u64(0, rounds.size());
    rounds_ = rounds.size();
}

SnapshotWriter checkpoint_sections(const RunCheckpoint& ckpt, const MetricsTape& tape) {
    SnapshotWriter writer;
    {
        ByteWriter w;
        w.put_str(ckpt.spec_text);
        w.put_str(ckpt.policy);
        w.put_u64(ckpt.trial_index);
        w.put_u64(ckpt.completed_rounds);
        writer.add_section(kSecMeta, w.take());
    }
    {
        ByteWriter w;
        w.put_str(ckpt.rng_state);
        writer.add_section(kSecRng, w.take());
    }
    {
        ByteWriter w;
        w.put_f32_vec(ckpt.model_params);
        writer.add_section(kSecModel, w.take());
    }
    {
        ByteWriter w;
        w.put_u64(ckpt.population.node_offset);
        w.put_u64_vec(ckpt.population.salt_history);
        w.put_u64(ckpt.population.columns.size());
        for (const std::vector<double>& col : ckpt.population.columns)
            w.put_f64_vec(col);
        writer.add_section(kSecPopulation, w.take());
    }
    {
        ByteWriter w;
        w.put_u64_vec(ckpt.banned_nodes);
        writer.add_section(kSecBlacklist, w.take());
    }
    writer.add_borrowed_section(kSecMetrics, tape.payload());
    {
        ByteWriter w;
        w.put_u64(ckpt.next_seq);
        w.put_u64(ckpt.flight.size());
        for (const fl::InFlightUpdate& u : ckpt.flight) {
            w.put_u64(u.seq);
            w.put_u64(u.base_round);
            w.put_f64(u.weight);
            w.put_f64(u.arrival);
            w.put_u32(u.dropped ? 1 : 0);
            w.put_f32_vec(u.params);
            w.put_f64(u.stats.mean_loss);
            w.put_u64(u.stats.samples);
        }
        writer.add_section(kSecFlight, w.take());
    }
    return writer;
}

void save_checkpoint(const RunCheckpoint& ckpt, const std::string& path,
                     const std::function<void()>& mid_write) {
    MetricsTape tape;
    tape.append(ckpt.rounds);
    checkpoint_sections(ckpt, tape).write_file(path, mid_write);
}

RunCheckpoint load_checkpoint(const std::string& path) {
    const SnapshotReader reader = SnapshotReader::from_file(path);
    RunCheckpoint ckpt;
    {
        ByteReader r = reader.open_section(kSecMeta);
        ckpt.spec_text = r.get_str();
        ckpt.policy = r.get_str();
        ckpt.trial_index = r.get_u64();
        ckpt.completed_rounds = r.get_u64();
        r.expect_end();
    }
    {
        ByteReader r = reader.open_section(kSecRng);
        ckpt.rng_state = r.get_str();
        r.expect_end();
    }
    {
        ByteReader r = reader.open_section(kSecModel);
        ckpt.model_params = r.get_f32_vec();
        r.expect_end();
    }
    {
        ByteReader r = reader.open_section(kSecPopulation);
        ckpt.population.node_offset = r.get_u64();
        ckpt.population.salt_history = r.get_u64_vec();
        const std::uint64_t cols = r.get_u64();
        ckpt.population.columns.reserve(cols);
        for (std::uint64_t i = 0; i < cols; ++i)
            ckpt.population.columns.push_back(r.get_f64_vec());
        r.expect_end();
    }
    {
        ByteReader r = reader.open_section(kSecBlacklist);
        ckpt.banned_nodes = r.get_u64_vec();
        r.expect_end();
    }
    {
        ByteReader r = reader.open_section(kSecMetrics);
        const std::uint64_t rounds = r.get_u64();
        ckpt.rounds.reserve(rounds);
        for (std::uint64_t i = 0; i < rounds; ++i)
            ckpt.rounds.push_back(get_round(r));
        r.expect_end();
    }
    {
        ByteReader r = reader.open_section(kSecFlight);
        ckpt.next_seq = r.get_u64();
        const std::uint64_t entries = r.get_u64();
        ckpt.flight.reserve(entries);
        for (std::uint64_t i = 0; i < entries; ++i) {
            fl::InFlightUpdate u;
            u.seq = r.get_u64();
            u.base_round = r.get_u64();
            u.weight = r.get_f64();
            u.arrival = r.get_f64();
            u.dropped = r.get_u32() != 0;
            u.params = r.get_f32_vec();
            u.stats.mean_loss = r.get_f64();
            u.stats.samples = r.get_u64();
            ckpt.flight.push_back(std::move(u));
        }
        r.expect_end();
    }
    if (ckpt.completed_rounds != ckpt.rounds.size())
        throw SnapshotError("checkpoint: '" + path + "': completed_rounds = "
                            + std::to_string(ckpt.completed_rounds)
                            + " but the metrics tape holds "
                            + std::to_string(ckpt.rounds.size()) + " rounds");
    return ckpt;
}

std::optional<RunCheckpoint> find_latest_valid(const std::string& dir) {
    for (const auto& entry : list_checkpoints(dir)) {
        try {
            return load_checkpoint(entry.second);
        } catch (const SnapshotError&) {
            // Torn or corrupted — skip to the previous one, never consume.
        }
    }
    return std::nullopt;
}

void prune_checkpoints(const std::string& dir, std::size_t keep) {
    if (keep == 0) return;
    const auto found = list_checkpoints(dir);
    std::error_code ec;
    for (std::size_t i = keep; i < found.size(); ++i)
        fs::remove(found[i].second, ec);
    // Interrupted writes leave `.tmp` files the reader never looks at;
    // retention sweeps them so checkpoint dirs stay bounded.
    for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
    }
}

} // namespace fmore::core
