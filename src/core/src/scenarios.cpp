#include "fmore/core/scenarios.hpp"

#include <stdexcept>
#include <utility>

#include "fmore/util/registry.hpp"

namespace fmore::core {

namespace {

/// Figs. 9/10 sweep N/K from a longer-horizon MNIST-F base.
ExperimentSpec impact_base() {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_f);
    spec.training.rounds = 24;
    return spec;
}

/// Fig. 11's small-data regime: shards are thin so repeated top-score
/// selection overfits to few nodes and psi-diversity has real value.
ExperimentSpec small_data_psi() {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_f);
    spec.population.data_lo = 10;
    spec.population.data_hi = 45;
    spec.training.rounds = 30;
    return spec;
}

} // namespace

namespace {

struct Registration {
    std::string description;
    ScenarioRegistry::ScenarioFactory factory;
};

} // namespace

struct ScenarioRegistry::Impl {
    util::NamedRegistry<Registration> registry{"ScenarioRegistry", "scenario"};
};

ScenarioRegistry::ScenarioRegistry() : impl_(std::make_shared<Impl>()) {
    auto add_builtin = [this](const char* name, const char* description,
                              ScenarioFactory factory) {
        impl_->registry.replace(name, Registration{description, std::move(factory)});
    };
    add_builtin("sim/default",
        "The paper's simulator defaults (N=100, K=20, MNIST-O)",
        [] { return default_experiment(DatasetKind::mnist_o); });
    add_builtin("testbed/default",
        "The paper's 31-node testbed defaults (CIFAR-10, wall-clock model)",
        [] { return default_testbed_experiment(); });
    add_builtin("paper/fig04",
        "Fig. 4: accuracy/loss, CNN on MNIST-O, FMore vs RandFL vs FixFL",
        [] { return default_experiment(DatasetKind::mnist_o); });
    add_builtin("paper/fig05",
        "Fig. 5: accuracy/loss, CNN on MNIST-F",
        [] { return default_experiment(DatasetKind::mnist_f); });
    add_builtin("paper/fig06",
        "Fig. 6: accuracy/loss, deeper CNN on CIFAR-10",
        [] { return default_experiment(DatasetKind::cifar10); });
    add_builtin("paper/fig07",
        "Fig. 7: accuracy/loss, LSTM on HPNews",
        [] { return default_experiment(DatasetKind::hpnews); });
    add_builtin("paper/fig08",
        "Fig. 8 base: winner-score distribution board (CIFAR-10; the bench "
        "also overrides training.dataset = hpnews for panel b)",
        [] {
            ExperimentSpec spec = default_experiment(DatasetKind::cifar10);
            spec.training.rounds = 10; // selection statistics stabilize quickly
            return spec;
        });
    add_builtin("paper/fig09",
        "Fig. 9 base: impact of N (the bench sweeps population.num_nodes and "
        "grows training.train_samples with the market)",
        [] { return impact_base(); });
    add_builtin("paper/fig10",
        "Fig. 10 base: impact of K (the bench sweeps auction.winners)",
        [] { return impact_base(); });
    add_builtin("paper/fig11",
        "Fig. 11 base: impact of psi in the small-data regime (run with the "
        "psi_fmore policy; the bench sweeps auction.psi)",
        [] { return small_data_psi(); });
    add_builtin("paper/fig12",
        "Fig. 12: testbed accuracy/loss, FMore vs RandFL",
        [] { return default_testbed_experiment(); });
    add_builtin("paper/fig13",
        "Fig. 13: testbed wall-clock time per round and time-to-accuracy",
        [] { return default_testbed_experiment(); });
    add_builtin("ablation/budget",
        "Budget-constrained FMore: the prefix rule under a shrinking per-round "
        "payment budget (the bench sweeps auction.budget)",
        [] {
            ExperimentSpec spec = default_experiment(DatasetKind::mnist_f);
            spec.training.rounds = 14;
            return spec;
        });
    add_builtin("straggler/mild",
        "Testbed with mildly heterogeneous client latency (lognormal sigma "
        "0.4): semi-sync rounds aggregate at 6 of K=8 updates, late updates "
        "merge with staleness weight 1/(1+s)^0.5",
        [] {
            ExperimentSpec spec = default_testbed_experiment();
            spec.timing.round_mode = fl::RoundMode::semi_sync;
            spec.timing.min_updates = 6;
            spec.timing.latency_spread = 0.4;
            return spec;
        });
    add_builtin("straggler/heavy",
        "Testbed with heavy stragglers (lognormal sigma 1.2, 5% dropouts): "
        "async rounds aggregate at 4 of K=8 updates — the regime where the "
        "synchronous barrier pays the full straggler tail every round",
        [] {
            ExperimentSpec spec = default_testbed_experiment();
            spec.timing.round_mode = fl::RoundMode::async;
            spec.timing.min_updates = 4;
            spec.timing.latency_spread = 1.2;
            spec.timing.dropout_prob = 0.05;
            return spec;
        });
    add_builtin("straggler/async_vs_sync",
        "The bench/fig_straggler comparison base: the heavy-straggler world "
        "with round_mode left sync — sweep timing.round_mode=sync,semi_sync,"
        "async (min_updates=4 applies to the non-sync modes)",
        [] {
            ExperimentSpec spec = default_testbed_experiment();
            spec.timing.min_updates = 4;
            spec.timing.latency_spread = 1.2;
            return spec;
        });
    add_builtin("ablation/second_score",
        "Second-score payments on the simulator defaults (mechanism = "
        "second_score; winners are paid the best losing score)",
        [] {
            ExperimentSpec spec = default_experiment(DatasetKind::mnist_f);
            spec.auction.mechanism = "second_score";
            spec.auction.payment_rule = auction::PaymentRule::second_price;
            return spec;
        });
    // Market-scale presets: auction-heavy, training-light. The selection
    // layer is what grows with N (the SoA store + fused BidFrame path keep
    // it O(N) with zero steady-state allocations); training stays a token
    // 2-sample-per-node workload so the preset exercises scale, not SGD.
    // full_scoreboard=false wires in the fused O(N log K) top-K ranking —
    // at these N a full Fig. 8 board would dominate the round.
    auto scale_preset = [](std::size_t nodes) {
        ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
        spec.population.num_nodes = nodes;
        spec.population.shards_lo = 1;
        spec.population.shards_hi = 2;
        spec.population.data_lo = 1;
        spec.population.data_hi = 3;
        spec.auction.winners = 32;
        spec.auction.full_scoreboard = false;
        spec.training.train_samples = 2 * nodes;
        spec.training.test_samples = 200;
        spec.training.rounds = 3;
        spec.training.local_epochs = 1;
        spec.training.batch_size = 8;
        spec.training.eval_cap = 100;
        return spec;
    };
    add_builtin("scale/10k",
        "10,000-node market, K=32, fused O(N log K) selection, token training",
        [scale_preset] { return scale_preset(10'000); });
    add_builtin("scale/100k",
        "100,000-node market, K=32, fused O(N log K) selection, token training",
        [scale_preset] { return scale_preset(100'000); });
    add_builtin("scale/1m",
        "1,000,000-node market, K=32: the north-star population. Dataset "
        "synthesis at this N is heavy — bench/scale_round runs the same "
        "market shard-free on the synthetic PopulationStore instead",
        [scale_preset] { return scale_preset(1'000'000); });
    add_builtin("scale/10m",
        "10,000,000-node market, K=32, partitioned over 8 shards: the sharded "
        "marketplace at full stretch. Per-shard fused collect+score+top-K "
        "with bounded-head merge — winners bit-identical to the monolithic "
        "market (shard_equivalence_test). Dataset synthesis at this N is "
        "heavy — bench/scale_round runs the same market shard-free on the "
        "synthetic PopulationStore instead",
        [scale_preset] {
            ExperimentSpec spec = scale_preset(10'000'000);
            spec.auction.shards = 8;
            return spec;
        });
    // Fault-injection presets: the sharded market under a deterministic
    // fault plan (auction.fault_plan, util::FaultInjector grammar). The
    // plan drives the in-process virtual-latency clock here and the forked
    // workers in bench/fault_matrix — the same seed replays the same
    // failure schedule in both. Winners stay bit-identical to the
    // no-fault run on every round where no shard is dropped.
    auto faults_preset = [scale_preset] {
        ExperimentSpec spec = scale_preset(10'000);
        spec.auction.shards = 4;
        spec.auction.shard_timeout_s = 0.5;
        return spec;
    };
    add_builtin("faults/churn",
        "Sharded market under worker churn: 8% crash rate per shard-round "
        "(seeded, replayable), quorum 2. A crashed shard drops out of that "
        "round and rejoins the next; below quorum the round fails fast",
        [faults_preset] {
            ExperimentSpec spec = faults_preset();
            spec.auction.fault_plan = "seed=11,crash=0.08";
            spec.auction.shard_quorum = 2;
            return spec;
        });
    add_builtin("faults/corrupt",
        "Sharded market under wire corruption: 10% bit-flipped and 5% "
        "self-described-short head frames. These have no in-process "
        "analogue, so an in-process run is the clean market; the forked "
        "workers' checksums and resends under this plan are "
        "bench/fault_matrix's corrupt row",
        [faults_preset] {
            ExperimentSpec spec = faults_preset();
            spec.auction.fault_plan = "seed=13,corrupt=0.1,truncate=0.05";
            return spec;
        });
    add_builtin("faults/flaky",
        "Sharded market under flaky latency: 10% stalls (2 s, past the "
        "0.5 s deadline — the shard drops out of that round and rejoins the "
        "next) and 20% delays (0.1 s, within it — absorbed without "
        "degradation)",
        [faults_preset] {
            ExperimentSpec spec = faults_preset();
            spec.auction.fault_plan =
                "seed=12,stall=0.1,stall_s=2,delay=0.2,delay_s=0.1";
            return spec;
        });
    // Streaming-market presets: the testbed auction as a long-lived
    // ingestion service. Bids arrive one at a time on the virtual clock and
    // the round closes on deadline or quorum — whichever fires first — with
    // the closed set ranked exactly as the batch market would rank it
    // (streaming_equivalence_test). Sweep-friendly: e.g.
    // --sweep timing.arrival_rate_hz=100,500,2000.
    auto stream_preset = [] {
        ExperimentSpec spec = default_testbed_experiment();
        spec.population.num_nodes = 96;
        spec.population.data_lo = 30;
        spec.population.data_hi = 80;
        spec.auction.winners = 16;
        spec.training.train_samples = 4000;
        spec.training.test_samples = 400;
        spec.training.rounds = 3;
        spec.training.eval_cap = 200;
        spec.timing.streaming = true;
        return spec;
    };
    add_builtin("stream/light",
        "Streaming market under light traffic: Poisson arrivals at 200 "
        "bids/s, 1 s bid deadline, no quorum — most rounds collect every bid "
        "and close exhausted; the occasional tail bid is cut off",
        [stream_preset] {
            ExperimentSpec spec = stream_preset();
            spec.timing.arrival_process = mec::ArrivalProcess::poisson;
            spec.timing.arrival_rate_hz = 200.0;
            spec.timing.round_deadline_s = 1.0;
            return spec;
        });
    add_builtin("stream/heavy",
        "Streaming market under heavy traffic: Poisson arrivals at 2000 "
        "bids/s racing a 30 ms deadline against a 64-bid quorum (quorum may "
        "exceed K=16 — it counts arrivals, not winners)",
        [stream_preset] {
            ExperimentSpec spec = stream_preset();
            spec.timing.arrival_process = mec::ArrivalProcess::poisson;
            spec.timing.arrival_rate_hz = 2000.0;
            spec.timing.round_deadline_s = 0.03;
            spec.timing.min_updates = 64;
            return spec;
        });
    add_builtin("stream/sharded",
        "Sharded streaming market with the adaptive quorum controller: "
        "4 market shards close each round through the virtual carve + head "
        "merge (bit-identical to the monolithic close), while "
        "timing.adaptive_quorum walks the 72-bid quorum down from deadline "
        "telemetry under a bounded step",
        [stream_preset] {
            ExperimentSpec spec = stream_preset();
            spec.timing.arrival_process = mec::ArrivalProcess::poisson;
            spec.timing.arrival_rate_hz = 400.0;
            spec.timing.round_deadline_s = 0.12;
            spec.timing.min_updates = 72;
            spec.timing.adaptive_quorum = true;
            spec.auction.shards = 4;
            return spec;
        });
    add_builtin("stream/quorum",
        "Streaming market closing on quorum: closed-loop arrivals on each "
        "node's straggler latency, round closes at the 48th bid — the "
        "deadline (30 s) is a safety net that never fires",
        [stream_preset] {
            ExperimentSpec spec = stream_preset();
            spec.timing.min_updates = 48;
            spec.timing.round_deadline_s = 30.0;
            return spec;
        });
}

ScenarioRegistry& ScenarioRegistry::instance() {
    static ScenarioRegistry registry;
    return registry;
}

void ScenarioRegistry::add(const std::string& name, const std::string& description,
                           ScenarioFactory factory) {
    util::require_factory(factory, "ScenarioRegistry", "add", name);
    impl_->registry.add(name, Registration{description, std::move(factory)});
}

void ScenarioRegistry::replace(const std::string& name, const std::string& description,
                               ScenarioFactory factory) {
    util::require_factory(factory, "ScenarioRegistry", "replace", name);
    impl_->registry.replace(name, Registration{description, std::move(factory)});
}

void ScenarioRegistry::remove(const std::string& name) { impl_->registry.remove(name); }

bool ScenarioRegistry::contains(const std::string& name) const {
    return impl_->registry.contains(name);
}

std::vector<ScenarioRegistry::Entry> ScenarioRegistry::list() const {
    std::vector<Entry> out;
    for (auto& [name, registration] : impl_->registry.entries())
        out.push_back(Entry{name, registration.description});
    return out;
}

ExperimentSpec ScenarioRegistry::get(const std::string& name) const {
    return impl_->registry.get(name).factory();
}

ExperimentSpec named_scenario(const std::string& name) {
    return ScenarioRegistry::instance().get(name);
}

} // namespace fmore::core
