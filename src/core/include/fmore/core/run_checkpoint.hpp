#pragma once

/// @file run_checkpoint.hpp
/// `core::RunCheckpoint` — the durable-run state of one (policy, trial)
/// run, saved on the `timing.checkpoint_every` cadence and restored by
/// `run_scenario --resume`. See docs/ARCHITECTURE.md, "Durability model".
///
/// A checkpoint captures everything round r+1 needs that round r produced:
/// the normalized spec text (provenance guard), the run RNG state, the
/// model's global parameters, the population columns + salt history, the
/// blacklist, the full metrics tape (which doubles as the adaptive-quorum
/// replay and the RoundHealth source), and — for async lanes — the
/// in-flight dispatch carry. Everything else a run touches (the selector,
/// the time model, the equilibrium strategy) is reconstructed from the
/// spec exactly as a fresh run builds it, BEFORE the run RNG exists, so
/// restored state plus identical construction means identical draws — the
/// resume-bit-identity argument.
///
/// On disk a checkpoint is one `util::SnapshotWriter` file
/// (`ckpt_round_NNNNNN.fmsnap`) under `<checkpoint_dir>/<policy>-t<trial>/`;
/// every byte is CRC-covered, writes are atomic, and `find_latest_valid`
/// walks newest-first past torn or corrupted files without consuming them.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fmore/fl/metrics.hpp"
#include "fmore/fl/run_state.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/util/snapshot.hpp"

namespace fmore::core {

/// Full resumable state of one run, after `completed_rounds` rounds.
struct RunCheckpoint {
    /// Normalized spec text of the experiment the run belongs to; a resume
    /// against a different spec is refused (wrong population, wrong rules).
    std::string spec_text;
    std::string policy;
    std::size_t trial_index = 0;
    std::size_t completed_rounds = 0;
    /// `std::mt19937_64` state of the run RNG, in its stream text form.
    std::string rng_state;
    std::vector<float> model_params;
    mec::PopulationSnapshot population;
    std::vector<std::uint64_t> banned_nodes;
    /// Metrics of every completed round — the resumed run's prior tape.
    std::vector<fl::RoundMetrics> rounds;
    /// Async lanes: dispatches still in flight, rebased to the next round.
    std::vector<fl::InFlightUpdate> flight;
    std::uint64_t next_seq = 0;
};

/// `ckpt_round_000042.fmsnap` — zero-padded so lexical order == round order.
[[nodiscard]] std::string checkpoint_filename(std::size_t round);

/// `<base>/<policy>-t<trial>` — one directory per (policy, trial) run.
[[nodiscard]] std::string checkpoint_run_dir(const std::string& base,
                                             const std::string& policy,
                                             std::size_t trial_index);

/// The metrics section of a checkpoint file, encoded incrementally: a u64
/// round count followed by each round's bytes. `append` encodes only the
/// rounds it has not seen and patches the count in place, so a run that
/// checkpoints every round encodes each round once, not once per save.
class MetricsTape {
public:
    /// An empty tape: a zero round count.
    MetricsTape() { bytes_.put_u64(0); }

    /// Encode the rounds of `rounds` not encoded yet and set the count to
    /// `rounds.size()`. `rounds` must start with the rounds already encoded.
    /// @throws util::SnapshotError when `rounds` is shorter than what is
    ///         already encoded — a run's tape only grows
    void append(const std::vector<fl::RoundMetrics>& rounds);

    /// The section payload; valid until the next `append`.
    [[nodiscard]] const std::vector<std::uint8_t>& payload() const { return bytes_.bytes(); }

private:
    util::ByteWriter bytes_;
    std::size_t rounds_ = 0;
};

/// Every section of `ckpt`'s file, in file order. The metrics section is
/// borrowed from `tape` (`ckpt.rounds` is not read), so `tape` must outlive
/// the writer's writes and not change during them.
[[nodiscard]] util::SnapshotWriter checkpoint_sections(const RunCheckpoint& ckpt,
                                                       const MetricsTape& tape);

/// Serialize + atomically write `ckpt` to `path`. `mid_write` is threaded
/// to `SnapshotWriter::write_file` (the crash harness kills the process
/// there to produce a torn `.tmp`).
/// @throws util::SnapshotError on I/O failure
void save_checkpoint(const RunCheckpoint& ckpt, const std::string& path,
                     const std::function<void()>& mid_write = nullptr);

/// Parse + validate one checkpoint file.
/// @throws util::SnapshotError on any corruption, truncation or mismatch
[[nodiscard]] RunCheckpoint load_checkpoint(const std::string& path);

/// Newest checkpoint in `dir` that loads cleanly, walking round order
/// descending and skipping — never consuming — torn or corrupted files.
/// nullopt when the directory holds no valid checkpoint.
[[nodiscard]] std::optional<RunCheckpoint> find_latest_valid(const std::string& dir);

/// Keep the newest `keep` checkpoints in `dir`, delete the rest (and any
/// stale `.tmp` leftovers from interrupted writes). No-op when keep == 0.
void prune_checkpoints(const std::string& dir, std::size_t keep);

/// Create `dir` (and parents). @throws util::SnapshotError on failure
void ensure_checkpoint_dir(const std::string& dir);

} // namespace fmore::core
