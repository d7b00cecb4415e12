// The unified ExperimentSpec surface: serialize -> parse round trips,
// validation messages, the engines' kind check, named scenarios, the
// ExperimentTrial facade (bit-identical to the engine it wraps) and the
// equilibrium-solve cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "fmore/auction/mechanism.hpp"
#include "fmore/core/equilibrium_cache.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/realworld.hpp"
#include "fmore/core/scenarios.hpp"
#include "fmore/core/simulation.hpp"
#include "fmore/core/trials.hpp"
#include "fmore/util/fault_injector.hpp"

namespace fmore::core {
namespace {

ExperimentSpec tiny_spec() {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.training.train_samples = 400;
    spec.training.test_samples = 120;
    spec.population.num_nodes = 12;
    spec.auction.winners = 4;
    spec.training.rounds = 2;
    spec.population.data_lo = 10;
    spec.population.data_hi = 40;
    spec.training.eval_cap = 100;
    return spec;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(ExperimentSpecText, SimulationRoundTripIsExact) {
    ExperimentSpec spec = default_experiment(DatasetKind::hpnews);
    spec.seed = 1234567890123ULL;
    spec.auction.mechanism = "psi_fmore";
    spec.auction.psi = 0.37;
    spec.auction.psi_per_node = {0.25, 1.0, 0.625, 1.0 / 3.0};
    spec.auction.budget = 17.25;
    spec.auction.payment_rule = auction::PaymentRule::second_price;
    spec.auction.win_model = auction::WinModel::exact;
    spec.training.learning_rate = 0.123456789012345; // full-precision survivor
    const ExperimentSpec parsed = parse_experiment_spec(to_text(spec));
    EXPECT_TRUE(parsed == spec);
}

TEST(ExperimentSpecText, TestbedRoundTripIsExact) {
    ExperimentSpec spec = default_testbed_experiment();
    spec.timing.model_bytes = 3.14159e7;
    spec.population.bandwidth_lo = 123.5;
    spec.timing.round_mode = fl::RoundMode::semi_sync;
    spec.timing.min_updates = 5;
    spec.timing.round_deadline_s = 17.5;
    spec.timing.staleness_alpha = 0.625;
    spec.timing.max_staleness = 3;
    spec.timing.latency_spread = 0.875;
    spec.timing.dropout_prob = 0.0625;
    const ExperimentSpec parsed = parse_experiment_spec(to_text(spec));
    EXPECT_TRUE(parsed == spec);
}

TEST(ExperimentSpecText, RoundModeParsesAndRejectsTypos) {
    ExperimentSpec spec = default_testbed_experiment();
    apply_key_value(spec, "timing.round_mode", "async");
    EXPECT_EQ(spec.timing.round_mode, fl::RoundMode::async);
    apply_key_value(spec, "timing.round_mode", "sync");
    EXPECT_EQ(spec.timing.round_mode, fl::RoundMode::sync);
    try {
        apply_key_value(spec, "timing.round_mode", "assync");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("assync"), std::string::npos);
        EXPECT_NE(what.find("semi_sync"), std::string::npos);
    }
}

TEST(ExperimentSpecText, ParserHandlesCommentsAndBlankLines) {
    const ExperimentSpec parsed = parse_experiment_spec(
        "# a scenario file\n"
        "\n"
        "kind = testbed   # switches scoring family\n"
        "  population.num_nodes = 31  \n"
        "auction.winners=8\n");
    EXPECT_EQ(parsed.kind, ExperimentKind::testbed);
    EXPECT_EQ(parsed.population.num_nodes, 31u);
    EXPECT_EQ(parsed.auction.winners, 8u);
}

TEST(ExperimentSpecText, ParserReportsLineAndUnknownKeys) {
    try {
        (void)parse_experiment_spec("population.num_nodes = 10\nnot_a_key = 3\n");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("line 2"), std::string::npos);
        EXPECT_NE(what.find("not_a_key"), std::string::npos);
        EXPECT_NE(what.find("auction.winners"), std::string::npos); // suggests keys
    }
    EXPECT_THROW((void)parse_experiment_spec("just some words\n"), std::invalid_argument);
    EXPECT_THROW((void)parse_experiment_spec("auction.psi = high\n"),
                 std::invalid_argument);
}

TEST(ExperimentSpecText, ApplyKeyValueOverridesOneField) {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    apply_key_value(spec, "auction.mechanism", "second_score");
    apply_key_value(spec, "auction.psi_per_node", "0.5,0.75,1");
    apply_key_value(spec, "training.dataset", "cifar10");
    EXPECT_EQ(spec.auction.mechanism, "second_score");
    EXPECT_EQ(spec.auction.psi_per_node, (std::vector<double>{0.5, 0.75, 1.0}));
    EXPECT_EQ(spec.training.dataset, DatasetKind::cifar10);
}

TEST(ExperimentSpecText, EveryKeyTakesPartInEquality) {
    // The resume check compares specs with operator==: a key whose field
    // the comparison skipped would let a run resume under a changed spec.
    // Every key to_text writes, changed through apply_key_value, must make
    // the specs differ.
    const std::map<std::string, std::string> switched = {
        {"true", "false"},
        {"false", "true"},
        {"simulation", "testbed"},
        {"testbed", "simulation"},
        {"first_price", "second_price"},
        {"second_price", "first_price"},
        {"paper", "exact"},
        {"exact", "paper"},
        {"mnist_o", "mnist_f"},
        {"mnist_f", "mnist_o"},
        {"cifar10", "mnist_o"},
        {"hpnews", "mnist_o"},
        {"sync", "semi_sync"},
        {"semi_sync", "sync"},
        {"async", "sync"},
        {"latency", "poisson"},
        {"poisson", "latency"},
        {"", "1"}};
    for (const ExperimentSpec& base :
         {default_experiment(DatasetKind::mnist_o), default_testbed_experiment()}) {
        std::istringstream lines(to_text(base));
        std::string line;
        std::size_t keys = 0;
        while (std::getline(lines, line)) {
            const std::size_t eq = line.find(" = ");
            ASSERT_NE(eq, std::string::npos) << line;
            const std::string key = line.substr(0, eq);
            const std::string value = line.substr(eq + 3);
            std::string changed;
            if (const auto it = switched.find(value); it != switched.end()) {
                changed = it->second;
            } else {
                std::size_t used = 0;
                const double number = std::stod(value, &used);
                ASSERT_EQ(used, value.size()) << key << " = " << value;
                char buffer[64];
                std::snprintf(buffer, sizeof buffer, "%.17g", number + 1.0);
                changed = buffer;
            }
            ExperimentSpec spec = base;
            apply_key_value(spec, key, value);
            EXPECT_TRUE(spec == base) << key << " re-applied unchanged";
            apply_key_value(spec, key, changed);
            EXPECT_FALSE(spec == base) << key << ": " << value << " -> " << changed;
            ++keys;
        }
        EXPECT_GT(keys, 50u);
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(ExperimentSpecValidate, DefaultsAreValid) {
    EXPECT_TRUE(validate(default_experiment(DatasetKind::mnist_o)).empty());
    EXPECT_TRUE(validate(default_testbed_experiment()).empty());
}

TEST(ExperimentSpecValidate, NonFiniteTestbedResourceRangesAreRejected) {
    // The testbed draws each node's cpu and bandwidth caps uniformly from
    // these ranges; an infinite bound is undefined behaviour there.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto rejected = [](const ExperimentSpec& spec, const std::string& token) {
        for (const std::string& problem : validate(spec))
            if (problem.find(token) != std::string::npos) return true;
        return false;
    };
    for (const double bad : {inf, -inf, nan}) {
        ExperimentSpec spec = default_testbed_experiment();
        spec.population.cpu_hi = bad;
        EXPECT_TRUE(rejected(spec, "population.cpu")) << "cpu_hi " << bad;
        spec = default_testbed_experiment();
        spec.population.cpu_lo = bad;
        spec.population.cpu_hi = bad;
        EXPECT_TRUE(rejected(spec, "population.cpu")) << "cpu_lo = cpu_hi " << bad;
        spec = default_testbed_experiment();
        spec.population.bandwidth_hi = bad;
        EXPECT_TRUE(rejected(spec, "population.bandwidth")) << "bandwidth_hi " << bad;
        spec = default_testbed_experiment();
        spec.population.bandwidth_lo = bad;
        spec.population.bandwidth_hi = bad;
        EXPECT_TRUE(rejected(spec, "population.bandwidth"))
            << "bandwidth_lo = bandwidth_hi " << bad;
    }
    // What `run_scenario testbed/default --set population.cpu_hi=inf` sets.
    ExperimentSpec spec = default_testbed_experiment();
    apply_key_value(spec, "population.cpu_hi", "inf");
    EXPECT_TRUE(rejected(spec, "population.cpu"));
    EXPECT_THROW(validate_or_throw(spec), std::invalid_argument);
}

TEST(ExperimentSpecValidate, MessagesNameTheOffendingKey) {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.auction.psi = std::numeric_limits<double>::quiet_NaN();
    spec.auction.winners = 200; // >= num_nodes
    spec.auction.mechanism = "wireless_cellular"; // not registered
    spec.auction.psi_per_node = {0.5, -2.0};
    const std::vector<std::string> problems = validate(spec);
    ASSERT_EQ(problems.size(), 5u); // psi, winners, mechanism, entry, length
    auto mentions = [&problems](const std::string& token) {
        for (const std::string& p : problems)
            if (p.find(token) != std::string::npos) return true;
        return false;
    };
    EXPECT_TRUE(mentions("auction.psi "));
    EXPECT_TRUE(mentions("auction.winners"));
    EXPECT_TRUE(mentions("wireless_cellular"));
    EXPECT_TRUE(mentions("psi_per_node[1]"));
    EXPECT_TRUE(mentions("must cover every node"));
    EXPECT_THROW(validate_or_throw(spec), std::invalid_argument);
}

TEST(ExperimentSpecValidate, AsyncRoundRulesAreEnforced) {
    // async/semi-sync needs the wall-clock model (testbed kind).
    ExperimentSpec sim = default_experiment(DatasetKind::mnist_o);
    sim.timing.round_mode = fl::RoundMode::async;
    auto mentions = [](const std::vector<std::string>& problems,
                       const std::string& token) {
        for (const std::string& p : problems)
            if (p.find(token) != std::string::npos) return true;
        return false;
    };
    EXPECT_TRUE(mentions(validate(sim), "kind = testbed"));

    ExperimentSpec spec = default_testbed_experiment();
    spec.timing.round_mode = fl::RoundMode::semi_sync;
    spec.timing.min_updates = 4;
    spec.timing.round_deadline_s = 30.0;
    spec.timing.latency_spread = 0.8;
    spec.timing.dropout_prob = 0.1;
    EXPECT_TRUE(validate(spec).empty());

    spec.timing.min_updates = 9; // > K = 8
    EXPECT_TRUE(mentions(validate(spec), "timing.min_updates"));
    spec.timing.min_updates = 4;

    // Like min_updates, the deadline stays valid (and ignored) under the
    // other modes so `--sweep timing.round_mode=...` works from a
    // deadline-carrying base spec.
    spec.timing.round_mode = fl::RoundMode::async;
    EXPECT_TRUE(validate(spec).empty());
    spec.timing.round_deadline_s = -1.0;
    EXPECT_TRUE(mentions(validate(spec), "timing.round_deadline_s"));
    spec.timing.round_deadline_s = 0.0;
    EXPECT_TRUE(validate(spec).empty());

    spec.timing.dropout_prob = 1.0;
    EXPECT_TRUE(mentions(validate(spec), "timing.dropout_prob"));
    spec.timing.dropout_prob = 0.0;
    spec.timing.latency_spread = -0.5;
    EXPECT_TRUE(mentions(validate(spec), "timing.latency_spread"));
    spec.timing.latency_spread = 0.0;
    spec.timing.staleness_alpha = -1.0;
    EXPECT_TRUE(mentions(validate(spec), "timing.staleness_alpha"));
}

TEST(ExperimentSpecValidate, SyncDeadlineWithQuorumIsRejectedWithGuidance) {
    // A sync round waits for every winner: a deadline plus a quorum can
    // never fire, and silently ignoring them hides a misconfigured sweep.
    ExperimentSpec spec = default_testbed_experiment();
    spec.timing.round_mode = fl::RoundMode::sync;
    spec.timing.round_deadline_s = 30.0;
    spec.timing.min_updates = 4;
    const std::vector<std::string> problems = validate(spec);
    ASSERT_EQ(problems.size(), 1u);
    // Actionable: names BOTH offending keys and every way out.
    EXPECT_NE(problems[0].find("timing.round_deadline_s"), std::string::npos);
    EXPECT_NE(problems[0].find("timing.min_updates"), std::string::npos);
    EXPECT_NE(problems[0].find("semi_sync"), std::string::npos);
    EXPECT_NE(problems[0].find("timing.streaming"), std::string::npos);

    // ... and each suggested fix actually validates.
    ExperimentSpec semi = spec;
    semi.timing.round_mode = fl::RoundMode::semi_sync;
    EXPECT_TRUE(validate(semi).empty());
    ExperimentSpec streaming = spec;
    streaming.timing.streaming = true;
    EXPECT_TRUE(validate(streaming).empty());
    // A deadline alone (deadline-closed streaming sweep base) stays valid.
    spec.timing.min_updates = 0;
    EXPECT_TRUE(validate(spec).empty());
}

TEST(ExperimentSpecValidate, StreamingRulesAreEnforced) {
    auto mentions = [](const std::vector<std::string>& problems,
                       const std::string& token) {
        for (const std::string& p : problems)
            if (p.find(token) != std::string::npos) return true;
        return false;
    };
    // The streaming market runs on the testbed's virtual clock.
    ExperimentSpec sim = default_experiment(DatasetKind::mnist_o);
    sim.timing.streaming = true;
    EXPECT_TRUE(mentions(validate(sim), "kind = testbed"));

    ExperimentSpec spec = default_testbed_experiment();
    spec.timing.streaming = true;
    EXPECT_TRUE(validate(spec).empty());

    // Streaming re-reads min_updates as a BID quorum: more than K = 8 is
    // legitimate (it counts arrivals, not winners)...
    spec.timing.min_updates = 20;
    EXPECT_TRUE(validate(spec).empty());
    // ...but a quorum beyond the population can never fill.
    spec.timing.min_updates = 40; // > num_nodes = 31
    EXPECT_TRUE(mentions(validate(spec), "population.num_nodes"));
    spec.timing.min_updates = 0;

    // Poisson arrivals need a rate; the latency process does not.
    spec.timing.arrival_process = mec::ArrivalProcess::poisson;
    EXPECT_TRUE(mentions(validate(spec), "timing.arrival_rate_hz"));
    spec.timing.arrival_rate_hz = 500.0;
    EXPECT_TRUE(validate(spec).empty());
    spec.timing.arrival_rate_hz = -1.0;
    EXPECT_TRUE(mentions(validate(spec), "timing.arrival_rate_hz"));
    spec.timing.arrival_rate_hz = 0.0;
    spec.timing.arrival_process = mec::ArrivalProcess::latency;

    // The streaming market ranks its arrived bids in one frame: a sharded
    // streaming spec is refused with the fix named, and one shard passes.
    spec.auction.shards = 8;
    const std::vector<std::string> sharded = validate(spec);
    ASSERT_EQ(sharded.size(), 1u);
    EXPECT_TRUE(mentions(sharded, "timing.streaming = true with auction.shards = 8"));
    EXPECT_TRUE(mentions(sharded, "set auction.shards = 1"));
    spec.auction.shards = 1;
    EXPECT_TRUE(validate(spec).empty());

    // Adaptive quorum needs the full streaming close policy to tune.
    spec.timing.adaptive_quorum = true;
    EXPECT_TRUE(mentions(validate(spec), "timing.min_updates"));
    spec.timing.min_updates = 12;
    EXPECT_TRUE(mentions(validate(spec), "timing.round_deadline_s"));
    spec.timing.round_deadline_s = 2.0;
    EXPECT_TRUE(validate(spec).empty());
    spec.timing.streaming = false;
    EXPECT_TRUE(mentions(validate(spec), "timing.streaming"));
    spec.timing.streaming = true;
    spec.timing.adaptive_quorum = false;
    spec.timing.min_updates = 0;
    spec.timing.round_deadline_s = 0.0;

    // The pricing knob is validated whether or not streaming is on.
    spec.auction.latency_discount = -0.5;
    EXPECT_TRUE(mentions(validate(spec), "auction.latency_discount"));
    spec.auction.latency_discount = 0.8;
    EXPECT_TRUE(validate(spec).empty());
}

TEST(ExperimentSpecText, StreamingKnobsRoundTripAndRejectTypos) {
    ExperimentSpec spec = default_testbed_experiment();
    spec.timing.streaming = true;
    spec.timing.arrival_process = mec::ArrivalProcess::poisson;
    spec.timing.arrival_rate_hz = 123.25;
    spec.auction.latency_discount = 0.375;
    spec.timing.adaptive_quorum = true;
    spec.timing.min_updates = 9;
    spec.timing.round_deadline_s = 1.5;
    const ExperimentSpec parsed = parse_experiment_spec(to_text(spec));
    EXPECT_TRUE(parsed == spec);

    try {
        apply_key_value(spec, "timing.arrival_process", "uniform");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("uniform"), std::string::npos);
        EXPECT_NE(what.find("poisson"), std::string::npos);
    }
}

TEST(ExperimentSpecText, FaultKnobsRoundTripExactly) {
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.auction.shards = 4;
    spec.auction.shard_timeout_s = 0.5;
    spec.auction.fault_plan = "seed=9,crash=0.05,delay=0.1,delay_s=0.02";
    spec.auction.shard_quorum = 2;
    ASSERT_TRUE(validate(spec).empty());
    const ExperimentSpec parsed = parse_experiment_spec(to_text(spec));
    EXPECT_TRUE(parsed == spec);

    // Single-key overrides reach the supervision knobs too.
    apply_key_value(spec, "auction.fault_plan", "seed=3,corrupt=0.2");
    apply_key_value(spec, "auction.shard_quorum", "3");
    EXPECT_EQ(spec.auction.fault_plan, "seed=3,corrupt=0.2");
    EXPECT_EQ(spec.auction.shard_quorum, 3u);
}

TEST(ExperimentSpecValidate, FaultKnobRulesAreEnforced) {
    auto mentions = [](const std::vector<std::string>& problems,
                       const std::string& token) {
        for (const std::string& p : problems)
            if (p.find(token) != std::string::npos) return true;
        return false;
    };
    // Every supervision knob requires a sharded market.
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.auction.fault_plan = "seed=1,crash=0.1";
    EXPECT_TRUE(mentions(validate(spec), "auction.shards"));
    spec.auction.fault_plan.clear();
    spec.auction.shard_quorum = 2;
    EXPECT_TRUE(mentions(validate(spec), "auction.shards"));

    // An unparsable plan is rejected with the parser's message.
    spec = default_experiment(DatasetKind::mnist_o);
    spec.auction.shards = 4;
    spec.auction.shard_timeout_s = 0.5;
    spec.auction.fault_plan = "crash=2.0";
    EXPECT_TRUE(mentions(validate(spec), "auction.fault_plan"));
    spec.auction.fault_plan = "seed=1,warp=0.5";
    EXPECT_TRUE(mentions(validate(spec), "auction.fault_plan"));
    spec.auction.fault_plan.clear();

    // Quorum cannot exceed the shard count.
    spec.auction.shard_quorum = 5;
    EXPECT_TRUE(mentions(validate(spec), "auction.shard_quorum"));
    spec.auction.shard_quorum = 0;
    EXPECT_TRUE(validate(spec).empty());
}

TEST(Scenarios, FaultPresetsAreRegisteredAndValid) {
    auto& registry = ScenarioRegistry::instance();
    for (const char* name : {"faults/churn", "faults/corrupt", "faults/flaky"}) {
        ASSERT_TRUE(registry.contains(name)) << name;
        const ExperimentSpec spec = registry.get(name);
        EXPECT_TRUE(validate(spec).empty()) << name;
        EXPECT_GT(spec.auction.shards, 1u) << name;
        EXPECT_GT(spec.auction.shard_timeout_s, 0.0) << name;
        // The plan must parse and actually schedule faults.
        EXPECT_FALSE(
            util::FaultInjector::from_spec(spec.auction.fault_plan).empty())
            << name;
    }
    const ExperimentSpec churn = named_scenario("faults/churn");
    EXPECT_GT(churn.auction.shard_quorum, 0u);
}

TEST(ExperimentSpecValidate, RegisteredCustomMechanismPassesValidation) {
    auto& registry = auction::MechanismRegistry::instance();
    registry.replace("test/spec_mechanism", [](const auction::MechanismSpec& ms) {
        return std::make_unique<auction::ScoreAuctionMechanism>(ms,
                                                                "test/spec_mechanism");
    });
    ExperimentSpec spec = default_experiment(DatasetKind::mnist_o);
    spec.auction.mechanism = "test/spec_mechanism";
    EXPECT_TRUE(validate(spec).empty());
    registry.remove("test/spec_mechanism");
    EXPECT_FALSE(validate(spec).empty());
}

// ---------------------------------------------------------------------------
// Engine kind check
// ---------------------------------------------------------------------------

TEST(ExperimentSpecCompat, KindMismatchThrowsWithGuidance) {
    // Each engine runs one of the two worlds and names the other one when
    // handed a spec of the wrong kind.
    auto message = [](auto&& build) -> std::string {
        try {
            build();
        } catch (const std::invalid_argument& error) {
            return error.what();
        }
        return {};
    };
    const std::string sim_to_testbed = message(
        [] { RealWorldTrial trial(default_experiment(DatasetKind::mnist_o), 0); });
    EXPECT_NE(sim_to_testbed.find("SimulationTrial"), std::string::npos) << sim_to_testbed;
    const std::string testbed_to_sim =
        message([] { SimulationTrial trial(default_testbed_experiment(), 0); });
    EXPECT_NE(testbed_to_sim.find("RealWorldTrial"), std::string::npos) << testbed_to_sim;
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

TEST(Scenarios, PaperPresetsAreRegisteredAndValid) {
    auto& registry = ScenarioRegistry::instance();
    for (const char* name :
         {"paper/fig04", "paper/fig05", "paper/fig06", "paper/fig07", "paper/fig08",
          "paper/fig09", "paper/fig10", "paper/fig11", "paper/fig12", "paper/fig13",
          "sim/default", "testbed/default", "straggler/mild", "straggler/heavy",
          "straggler/async_vs_sync"}) {
        ASSERT_TRUE(registry.contains(name)) << name;
        const ExperimentSpec spec = registry.get(name);
        EXPECT_TRUE(validate(spec).empty()) << name;
    }
    EXPECT_EQ(named_scenario("paper/fig04").training.dataset, DatasetKind::mnist_o);
    EXPECT_EQ(named_scenario("paper/fig12").kind, ExperimentKind::testbed);
    EXPECT_EQ(named_scenario("straggler/heavy").timing.round_mode,
              fl::RoundMode::async);
    EXPECT_GT(named_scenario("straggler/heavy").timing.latency_spread, 0.0);
    // The comparison base stays sync so `--sweep timing.round_mode=...`
    // covers all three modes from one preset.
    EXPECT_EQ(named_scenario("straggler/async_vs_sync").timing.round_mode,
              fl::RoundMode::sync);
}

TEST(Scenarios, StreamPresetsAreRegisteredAndValid) {
    auto& registry = ScenarioRegistry::instance();
    for (const char* name : {"stream/light", "stream/heavy", "stream/quorum"}) {
        ASSERT_TRUE(registry.contains(name)) << name;
        const ExperimentSpec spec = registry.get(name);
        EXPECT_TRUE(validate(spec).empty()) << name;
        EXPECT_TRUE(spec.timing.streaming) << name;
        EXPECT_EQ(spec.kind, ExperimentKind::testbed) << name;
    }
    const ExperimentSpec heavy = named_scenario("stream/heavy");
    EXPECT_EQ(heavy.timing.arrival_process, mec::ArrivalProcess::poisson);
    EXPECT_GT(heavy.timing.arrival_rate_hz, 0.0);
    // The bid quorum legitimately exceeds K: it counts arrivals.
    EXPECT_GT(heavy.timing.min_updates, heavy.auction.winners);
    EXPECT_EQ(named_scenario("stream/quorum").timing.arrival_process,
              mec::ArrivalProcess::latency);
}

TEST(Scenarios, UnknownScenarioErrorListsWhatExists) {
    try {
        (void)named_scenario("paper/fig99");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("paper/fig99"), std::string::npos);
        EXPECT_NE(what.find("paper/fig04"), std::string::npos);
    }
}

TEST(Scenarios, DownstreamRegistrationWorks) {
    auto& registry = ScenarioRegistry::instance();
    registry.replace("test/custom", "a test scenario", [] {
        ExperimentSpec spec = default_experiment(DatasetKind::mnist_f);
        spec.auction.winners = 7;
        return spec;
    });
    EXPECT_EQ(named_scenario("test/custom").auction.winners, 7u);
    registry.remove("test/custom");
    EXPECT_FALSE(registry.contains("test/custom"));
}

// ---------------------------------------------------------------------------
// ExperimentTrial facade + the runner
// ---------------------------------------------------------------------------

TEST(ExperimentTrialTest, MatchesTheUnderlyingSimulationEngineBitForBit) {
    const ExperimentSpec spec = tiny_spec();
    ExperimentTrial facade(spec, /*trial_index=*/0);
    SimulationTrial engine(spec, /*trial_index=*/0);
    const fl::RunResult a = facade.run("fmore");
    const fl::RunResult b = engine.run("fmore");
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        EXPECT_EQ(a.rounds[r].test_accuracy, b.rounds[r].test_accuracy);
        EXPECT_EQ(a.rounds[r].test_loss, b.rounds[r].test_loss);
        EXPECT_EQ(a.rounds[r].mean_winner_payment, b.rounds[r].mean_winner_payment);
    }
    EXPECT_EQ(facade.last_all_scores(), engine.last_all_scores());
    EXPECT_EQ(facade.shards().size(), engine.shards().size());
}

TEST(ExperimentTrialTest, ConstructionRejectsInvalidSpecs) {
    ExperimentSpec spec = tiny_spec();
    spec.auction.psi = -1.0;
    EXPECT_THROW(ExperimentTrial(spec, 0), std::invalid_argument);
}

TEST(ExperimentTrialTest, RunnerDrivesSpecsAcrossTrials) {
    const ExperimentSpec spec = tiny_spec();
    const auto runs = run_experiment_trials(spec, "randfl", 2);
    ASSERT_EQ(runs.size(), 2u);
    for (const auto& run : runs) EXPECT_EQ(run.rounds.size(), spec.training.rounds);
    const AveragedSeries series = averaged_experiment(spec, "randfl", 2);
    EXPECT_EQ(series.rounds(), spec.training.rounds);
}

// ---------------------------------------------------------------------------
// Equilibrium cache
// ---------------------------------------------------------------------------

TEST(EquilibriumCacheTest, SecondTrialOfASweepHitsTheCache) {
    EquilibriumCache::instance().clear();
    const ExperimentSpec spec = tiny_spec();
    ExperimentTrial first(spec, 0);
    const auto after_first = EquilibriumCache::instance().stats();
    EXPECT_EQ(after_first.misses, 1u);
    EXPECT_EQ(after_first.entries, 1u);
    ExperimentTrial second(spec, 1);
    const auto after_second = EquilibriumCache::instance().stats();
    EXPECT_EQ(after_second.misses, 1u); // same game -> no re-solve
    EXPECT_GE(after_second.hits, 1u);
    // Different K -> different game -> a genuine miss.
    ExperimentSpec other = spec;
    other.auction.winners = 3;
    ExperimentTrial third(other, 0);
    EXPECT_EQ(EquilibriumCache::instance().stats().misses, 2u);
}

TEST(EquilibriumCacheTest, CachedTrialsStayDeterministic) {
    EquilibriumCache::instance().clear();
    const ExperimentSpec spec = tiny_spec();
    ExperimentTrial cold(spec, 0); // pays the solve
    ExperimentTrial warm(spec, 0); // shares the tabulation
    const fl::RunResult a = cold.run("fmore");
    const fl::RunResult b = warm.run("fmore");
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
        EXPECT_EQ(a.rounds[r].test_accuracy, b.rounds[r].test_accuracy);
        EXPECT_EQ(a.rounds[r].mean_winner_payment, b.rounds[r].mean_winner_payment);
    }
}

} // namespace
} // namespace fmore::core
