#pragma once

/// @file experiment.hpp
/// The experiment surface: one `ExperimentSpec` composed of sub-specs
/// (population, auction, training, timing) describes a whole run of either
/// of the paper's two worlds, and both trial engines (simulation.hpp,
/// realworld.hpp) read it directly. Specs serialize to and parse from
/// key=value text, validate with actionable messages, and drive trials
/// through `ExperimentTrial` — the facade benches, examples and the
/// `run_scenario` CLI all share. Named presets live in scenarios.hpp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fmore/auction/types.hpp"
#include "fmore/auction/win_probability.hpp"
#include "fmore/fl/metrics.hpp"
#include "fmore/fl/round_mode.hpp"
#include "fmore/mec/arrival_model.hpp"
#include "fmore/ml/partition.hpp"

namespace fmore::core {

struct RunCheckpoint;  // run_checkpoint.hpp
class SimulationTrial; // simulation.hpp
class RealWorldTrial;  // realworld.hpp

/// The paper's four workloads (Section V.A). The image datasets are the
/// synthetic stand-ins documented in DESIGN.md.
enum class DatasetKind : std::uint8_t {
    mnist_o, ///< MNIST, CNN
    mnist_f, ///< Fashion-MNIST, CNN
    cifar10, ///< CIFAR-10, deeper CNN
    hpnews,  ///< HuffPost news categories, LSTM
};

[[nodiscard]] std::string to_string(DatasetKind kind);

/// Which of the paper's two worlds the spec assembles. The kind picks the
/// scoring family and data split the paper ties to each setup: `simulation`
/// is the N=100 simulator (two-dimensional scaled-product scoring
/// alpha*q1*q2, non-IID label shards, Section V.A), `testbed` the 31-node
/// deployment (three-dimensional additive scoring over cpu/bandwidth/data,
/// IID shards of heterogeneous size, wall-clock model, Sections V.A/V.C).
enum class ExperimentKind : std::uint8_t {
    simulation,
    testbed,
};

/// The edge-node population: how many nodes, what data/resources they hold
/// and how both drift between rounds (MEC dynamics).
struct PopulationSpec {
    std::size_t num_nodes = 100;  ///< N
    std::size_t shards_lo = 1;    ///< per-node label-shard count range; the
    std::size_t shards_hi = 5;    ///< spread drives category diversity (simulation)
    std::size_t data_lo = 20;     ///< per-node sample range after resizing
    std::size_t data_hi = 150;
    double cpu_lo = 1.0;          ///< cores usable for training (testbed)
    double cpu_hi = 8.0;
    double bandwidth_lo = 200.0;  ///< Mbps (testbed)
    double bandwidth_hi = 1000.0;
    double theta_lo = 0.5;        ///< private cost-type support
    double theta_hi = 1.5;
    double resource_jitter = 0.08;
    double theta_jitter = 0.02;

    [[nodiscard]] bool operator==(const PopulationSpec&) const;
};

/// The incentive layer: mechanism name, winner-set size, scoring and cost
/// coefficients, and the extension knobs (psi, budget).
struct AuctionSpec {
    /// MechanismRegistry key; "" lets the legacy knobs decide (psi < 1 ->
    /// psi_fmore, budget > 0 -> budget_feasible, ...). Anything registered
    /// — including mechanisms registered outside this repo — is valid.
    std::string mechanism;
    std::size_t winners = 20;       ///< K
    double alpha = 25.0;            ///< scaled-product coefficient (simulation)
    double alpha_cpu = 0.4;         ///< additive weights (testbed scoring)
    double alpha_bandwidth = 0.3;
    double alpha_data = 0.3;
    double beta_data = 6.0;         ///< cost weight of the (normalized) data dim
    double beta_category = 2.0;     ///< cost weight of the category dim
    double psi = 1.0;               ///< psi-FMore acceptance probability
    std::vector<double> psi_per_node;  ///< distinct-psi variant, indexed by NodeId
    double budget = 0.0;            ///< per-round payment budget; 0 = off
    auction::PaymentRule payment_rule = auction::PaymentRule::first_price;
    auction::WinModel win_model = auction::WinModel::paper;
    /// When true every round records the complete descending score board
    /// (`SelectionRecord::all_scores` — the Fig. 8 input). When false the
    /// mechanism only orders what winner selection needs (top K, plus the
    /// best loser under second-score payments): an O(N log K) partial sort
    /// instead of O(N log N), worthwhile at large N. Winners, payments and
    /// every round metric are bit-identical either way; only the recorded
    /// score board is truncated.
    bool full_scoreboard = true;
    /// Market shards: 1 (default) runs the monolithic AuctionSelector;
    /// S > 1 partitions the population into S contiguous node ranges, runs
    /// the fused collect+score+top-K pass per shard, and merges the S
    /// bounded heads under the market's strict total order. Winners,
    /// payments and every metric are bit-identical to S = 1 by
    /// construction (asserted by tests/auction/shard_equivalence_test);
    /// sharding is an execution strategy, not a different mechanism.
    std::size_t shards = 1;
    /// Bid deadline per shard, in seconds; shards that miss it contribute
    /// no bids that round (the round degrades to the responsive shards and
    /// the drop is surfaced in RoundMetrics::dropped_shards). 0 disables
    /// the deadline. In-process engines drive this off a deterministic
    /// virtual clock; the multi-process aggregator off real time.
    double shard_timeout_s = 0.0;
    /// Async-aware pricing: rank bids by S(q, p) minus this coefficient
    /// times the node's expected bid latency (the "latency_discounted"
    /// mechanism; > 0 auto-selects it). The testbed engine feeds the
    /// per-node latencies from its wall-clock model; elsewhere the latency
    /// table is empty and the discount is a no-op.
    double latency_discount = 0.0;
    /// Deterministic fault plan for the sharded market
    /// (`util::FaultInjector::from_spec` grammar, e.g.
    /// "seed=7,crash=0.02,stall=0.01,stall_s=2"). The in-process engines
    /// install it as the virtual-latency clock (crashes and long stalls
    /// drop the shard for the round); the cross-process aggregator bakes
    /// the same plan into its workers, so a scenario replays bit-exactly
    /// in either world. Empty disables. Requires shards > 1.
    std::string fault_plan;
    /// Fail-fast quorum: a round that ends with fewer live shards throws
    /// instead of silently shrinking the market; 0 disables.
    std::size_t shard_quorum = 0;

    [[nodiscard]] bool operator==(const AuctionSpec&) const;
};

/// The learning workload: dataset, split sizes and SGD hyperparameters.
/// Sample counts are scaled down from the paper's datasets so a full
/// 20-round x 3-policy x multi-trial sweep runs in seconds; the selection
/// dynamics (what FMore buys versus what random selection gets) are
/// unaffected by the global scale.
struct TrainingSpec {
    DatasetKind dataset = DatasetKind::mnist_o;
    std::size_t train_samples = 9000;
    std::size_t test_samples = 1500;
    std::size_t rounds = 20;        ///< T
    std::size_t local_epochs = 1;
    std::size_t batch_size = 16;
    double learning_rate = 0.08;
    std::size_t eval_cap = 1000;

    [[nodiscard]] bool operator==(const TrainingSpec&) const;
};

/// The wall-clock model (testbed experiments; see mec::ClusterTimeConfig)
/// plus the round-coordination discipline built on it.
/// `enabled` is kind-implied — the testbed always models wall-clock time
/// and the simulator never does — and validation rejects a mismatch so the
/// knob cannot silently disagree with what the engine actually runs.
/// Likewise `round_mode != sync` needs the clock, so async/semi-sync specs
/// must be `kind = testbed`.
struct TimingSpec {
    bool enabled = false;
    double model_bytes = 1.7e7;
    double seconds_per_sample_core = 0.05;
    double round_overhead_s = 1.0;
    /// How rounds close: the paper's synchronous barrier, or the
    /// semi_sync/async early-aggregation modes (fl::AsyncCoordinator).
    fl::RoundMode round_mode = fl::RoundMode::sync;
    /// semi_sync/async: aggregate once this many of the round's dispatches
    /// arrived (carried late updates merge at the trigger but do not count
    /// toward it); 0 = every dispatched winner. With `streaming` it doubles
    /// as the BID quorum: the auction closes after this many arrivals (and
    /// may therefore exceed K). Sync non-streaming rounds wait for everyone
    /// and ignore this knob ALONE — kept sweepable so
    /// `--sweep timing.round_mode=sync,semi_sync,async` works unchanged —
    /// but combining it with a deadline under sync is rejected (neither
    /// knob could ever fire; validate() names the fix).
    std::size_t min_updates = 0;
    /// semi_sync: aggregate at this offset from round start even when short
    /// of min_updates; 0 = no deadline. With `streaming` it doubles as the
    /// auction's bid deadline on the virtual clock. The other non-streaming
    /// modes ignore it (sync closes on its slowest winner, async purely on
    /// update count) so round_mode stays sweepable with a deadline set —
    /// except the sync + deadline + min_updates combination (see above).
    double round_deadline_s = 0.0;
    /// Staleness decay exponent: a late update merges with FedAvg weight
    /// D_i / (1+s)^alpha, s = global versions since its dispatch.
    double staleness_alpha = 0.5;
    /// Discard updates staler than this many versions; 0 = never.
    std::size_t max_staleness = 4;
    /// Straggler model: sigma of each node's lognormal latency factor
    /// (drawn once per trial); 0 = homogeneous latency. Applies to sync
    /// rounds too — stragglers are what make the barrier expensive.
    double latency_spread = 0.0;
    /// Probability a semi_sync/async dispatch never reports; sync rounds
    /// have no failure handling and ignore it (see ClusterTimeConfig).
    double dropout_prob = 0.0;
    /// Run each auction round as a STREAMING market (testbed only): bids
    /// arrive one at a time on the virtual clock per `arrival_process`, the
    /// top-K folds incrementally, and the round closes on
    /// `round_deadline_s` expiry or `min_updates` arrivals — whichever
    /// fires first (both 0 = wait for every bid). Winners over the arrived
    /// set are bit-identical to the batch selector over that set.
    bool streaming = false;
    /// Virtual-clock arrival process of the streaming market: "latency"
    /// replays each node's expected bid latency (straggler factor x
    /// auction overhead), "poisson" is an open-loop stream at
    /// `arrival_rate_hz`.
    mec::ArrivalProcess arrival_process = mec::ArrivalProcess::latency;
    /// Poisson bid arrival rate (bids per second of virtual time); required
    /// > 0 when `arrival_process` is "poisson".
    double arrival_rate_hz = 0.0;
    /// Tune the streaming bid quorum per round from the run's own close
    /// telemetry (`fl::AdaptiveQuorumController`): deadline-dominated
    /// windows step `min_updates` down (the quorum was stalling), quorum-
    /// dominated windows with p99 close-time slack step it up, under a
    /// bounded step. Requires `streaming`, a starting `min_updates` > 0
    /// and a `round_deadline_s` > 0. The schedule is a pure function of
    /// the telemetry history, so replays are byte-identical.
    bool adaptive_quorum = false;
    /// Durable runs: write a `core::RunCheckpoint` every this many
    /// completed rounds (0 = checkpointing off). A checkpointed run
    /// SIGKILLed at any point resumes — via `run_scenario --resume` —
    /// bit-identical to a never-interrupted twin (see docs/ARCHITECTURE.md,
    /// "Durability model"). Requires `checkpoint_dir`.
    std::size_t checkpoint_every = 0;
    /// Where checkpoint files land: one `<policy>-t<trial>/` subdirectory
    /// per run, created on demand.
    std::string checkpoint_dir;
    /// Keep-last-K retention per run directory (old checkpoints and stale
    /// `.tmp` files are deleted after each successful write). Must be >= 1
    /// when checkpointing is on.
    std::size_t checkpoint_keep = 3;

    [[nodiscard]] bool operator==(const TimingSpec&) const;
};

/// Everything needed to reproduce one experiment, simulator or testbed.
struct ExperimentSpec {
    ExperimentKind kind = ExperimentKind::simulation;
    std::uint64_t seed = 7;
    PopulationSpec population;
    AuctionSpec auction;
    TrainingSpec training;
    TimingSpec timing;

    /// Field by field, the sub-specs' too (each defaulted in experiment.cpp):
    /// a resumed run must find the spec it was checkpointed under.
    [[nodiscard]] bool operator==(const ExperimentSpec&) const;
};

[[nodiscard]] std::string to_string(ExperimentKind kind);

/// The paper's simulator (Section V.A): `ExperimentSpec{}` — N = 100 nodes,
/// K = 20 winners, scoring alpha * q1 * q2 - p with alpha = 25, non-IID
/// label shards — training `dataset`, with the per-dataset hyperparameters
/// applied.
[[nodiscard]] ExperimentSpec default_experiment(DatasetKind dataset);
/// The paper's 32-machine testbed (Sections V.A/V.C): 31 edge nodes + one
/// aggregator, three-dimensional resources (computing power, bandwidth,
/// data size), scoring 0.4 q1 + 0.3 q2 + 0.3 q3 - p, and the wall-clock
/// model of a switched 1 Gbps LAN.
[[nodiscard]] ExperimentSpec default_testbed_experiment();

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Every problem found, one actionable message per entry ("auction.psi =
/// -0.5: must be ..."); empty means the spec is runnable.
[[nodiscard]] std::vector<std::string> validate(const ExperimentSpec& spec);
/// @throws std::invalid_argument joining all validation messages
void validate_or_throw(const ExperimentSpec& spec);

// ---------------------------------------------------------------------------
// key=value text (de)serialization
// ---------------------------------------------------------------------------

/// Render the spec as "section.key = value" lines (doubles at full
/// round-trip precision). `parse_experiment_spec(to_text(spec)) == spec`.
[[nodiscard]] std::string to_text(const ExperimentSpec& spec);

/// Apply one "section.key" assignment to `spec` in place (the CLI's
/// `--set key=value`).
/// @throws std::invalid_argument for unknown keys (listing the section's
///         keys) or unparseable values
void apply_key_value(ExperimentSpec& spec, const std::string& key,
                     const std::string& value);

/// Parse key=value text (one assignment per line; '#' starts a comment;
/// blank lines ignored). Starts from simulation defaults — put a
/// `kind = testbed` line first (or start from a named scenario) when
/// writing testbed scenario files, since later keys override earlier ones
/// but `kind` never re-materializes defaults.
/// @throws std::invalid_argument with the offending line number and text
[[nodiscard]] ExperimentSpec parse_experiment_spec(const std::string& text);

// ---------------------------------------------------------------------------
// Running a spec
// ---------------------------------------------------------------------------

/// One fully-assembled trial of `spec` — the facade over the simulator and
/// testbed engines, dispatching on `spec.kind`. Construction validates the
/// spec (throwing with every problem listed), builds the world for
/// `trial_index` and reuses any cached equilibrium tabulation
/// (equilibrium_cache.hpp).
class ExperimentTrial {
public:
    ExperimentTrial(const ExperimentSpec& spec, std::size_t trial_index);
    ~ExperimentTrial();

    /// Run the federated experiment under a named selection policy
    /// ("fmore", "psi_fmore", "randfl", "fixfl", or any PolicyRegistry
    /// registration). Each call re-initializes the model and population
    /// from the trial seed, so policies compared within a trial start from
    /// identical state.
    [[nodiscard]] fl::RunResult run(const std::string& policy);

    /// `run(policy)` with durable-run support: when `resume_from` is
    /// non-null the trial restores the checkpointed state and continues
    /// from the next round (bit-identical to an uninterrupted run); either
    /// way, `timing.checkpoint_every > 0` writes checkpoints as rounds
    /// complete. @throws std::invalid_argument when the checkpoint belongs
    /// to a different spec or policy.
    [[nodiscard]] fl::RunResult run_resumable(const std::string& policy,
                                              const RunCheckpoint* resume_from);

    /// Sealed-bid score board of the last auction-backed round (Fig. 8).
    [[nodiscard]] const std::vector<double>& last_all_scores() const;
    /// Per-client shards of this trial's world.
    [[nodiscard]] const std::vector<ml::ClientShard>& shards() const;

    [[nodiscard]] const ExperimentSpec& spec() const { return spec_; }

private:
    ExperimentSpec spec_;
    std::unique_ptr<SimulationTrial> simulation_;
    std::unique_ptr<RealWorldTrial> testbed_;
};

} // namespace fmore::core
