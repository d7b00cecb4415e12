#include "fmore/core/experiment.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "fmore/auction/mechanism.hpp"
#include "fmore/core/realworld.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/core/simulation.hpp"
#include "fmore/util/fault_injector.hpp"

namespace fmore::core {

// ---------------------------------------------------------------------------
// Equality
// ---------------------------------------------------------------------------

// Defaulted here, not in the header: the header stays valid C++17 for
// consumers built without the project's standard (perfbench).
bool PopulationSpec::operator==(const PopulationSpec&) const = default;
bool AuctionSpec::operator==(const AuctionSpec&) const = default;
bool TrainingSpec::operator==(const TrainingSpec&) const = default;
bool TimingSpec::operator==(const TimingSpec&) const = default;
bool ExperimentSpec::operator==(const ExperimentSpec&) const = default;

// ---------------------------------------------------------------------------
// Defaults
// ---------------------------------------------------------------------------

std::string to_string(ExperimentKind kind) {
    switch (kind) {
        case ExperimentKind::simulation: return "simulation";
        case ExperimentKind::testbed: return "testbed";
    }
    return "?";
}

std::string to_string(DatasetKind kind) {
    switch (kind) {
        case DatasetKind::mnist_o: return "MNIST-O";
        case DatasetKind::mnist_f: return "MNIST-F";
        case DatasetKind::cifar10: return "CIFAR-10";
        case DatasetKind::hpnews: return "HPNews";
    }
    return "?";
}

ExperimentSpec default_experiment(DatasetKind dataset) {
    ExperimentSpec spec;
    spec.training.dataset = dataset;
    if (dataset == DatasetKind::hpnews) {
        // Plain SGD on the LSTM needs a bigger step and more local work per
        // round to land in the paper's Fig. 7 accuracy band.
        spec.training.learning_rate = 0.40;
        spec.training.local_epochs = 3;
    }
    return spec;
}

ExperimentSpec default_testbed_experiment() {
    ExperimentSpec spec;
    spec.kind = ExperimentKind::testbed;
    spec.seed = 11;
    spec.population.num_nodes = 31;
    // Scaled stand-in for the paper's data-size range [2000, 10000] (same
    // 1:5 ratio). The testbed split is IID with heterogeneous sizes; see
    // RealWorldTrial for why (Section V.A describes label sharding only for
    // the simulator).
    spec.population.data_lo = 30;
    spec.population.data_hi = 240;
    // Tighter than the simulator's [0.5, 1.5]: on the testbed the machines'
    // resource spread (1-8 cores, 200-1000 Mbps) is what the auction should
    // price; a wide private-cost spread would drown it. The cpu/bandwidth
    // envelopes are PopulationSpec's defaults: the testbed machines are
    // homogeneous i7s behind one switch (Section V.A), computing power is
    // "tuned by the number of CPU cores" (1-8), while effective bandwidth on
    // the shared 1 Gbps LAN varies much less. Slow-core stragglers are what
    // makes RandFL's synchronous rounds long (Fig. 13).
    spec.population.theta_lo = 0.8;
    spec.population.theta_hi = 1.2;
    spec.population.resource_jitter = 0.10;
    // The paper does not state the testbed's K; K = 8 is ~25% of the nodes,
    // close to the simulator's 20%.
    spec.auction.winners = 8;
    spec.training.dataset = DatasetKind::cifar10;
    spec.training.train_samples = 7000;
    spec.training.test_samples = 1200;
    return spec;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

bool bad(double value) { return std::isnan(value) || std::isinf(value); }

std::string num(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%g", value);
    return buffer;
}

} // namespace

std::vector<std::string> validate(const ExperimentSpec& spec) {
    std::vector<std::string> errors;
    auto fail = [&errors](const std::string& message) { errors.push_back(message); };

    const PopulationSpec& pop = spec.population;
    if (pop.num_nodes == 0) fail("population.num_nodes = 0: need at least one edge node");
    if (pop.shards_lo == 0 || pop.shards_lo > pop.shards_hi)
        fail("population.shards_lo.." + std::to_string(pop.shards_lo) + ".."
             + std::to_string(pop.shards_hi)
             + ": need 1 <= shards_lo <= shards_hi (per-node label-shard range)");
    if (pop.data_lo == 0 || pop.data_lo > pop.data_hi)
        fail("population.data_lo = " + std::to_string(pop.data_lo) + ", data_hi = "
             + std::to_string(pop.data_hi) + ": need 1 <= data_lo <= data_hi");
    if (bad(pop.theta_lo) || bad(pop.theta_hi) || !(pop.theta_lo > 0.0)
        || !(pop.theta_hi > pop.theta_lo))
        fail("population.theta = [" + num(pop.theta_lo) + ", " + num(pop.theta_hi)
             + "]: need 0 < theta_lo < theta_hi (private cost-type support)");
    if (bad(pop.resource_jitter) || pop.resource_jitter < 0.0)
        fail("population.resource_jitter = " + num(pop.resource_jitter)
             + ": must be finite and >= 0");
    if (bad(pop.theta_jitter) || pop.theta_jitter < 0.0)
        fail("population.theta_jitter = " + num(pop.theta_jitter)
             + ": must be finite and >= 0");
    if (spec.kind == ExperimentKind::testbed) {
        if (bad(pop.cpu_lo) || bad(pop.cpu_hi) || !(pop.cpu_lo > 0.0)
            || !(pop.cpu_hi >= pop.cpu_lo))
            fail("population.cpu = [" + num(pop.cpu_lo) + ", " + num(pop.cpu_hi)
                 + "]: need finite 0 < cpu_lo <= cpu_hi");
        if (bad(pop.bandwidth_lo) || bad(pop.bandwidth_hi) || !(pop.bandwidth_lo > 0.0)
            || !(pop.bandwidth_hi >= pop.bandwidth_lo))
            fail("population.bandwidth = [" + num(pop.bandwidth_lo) + ", "
                 + num(pop.bandwidth_hi)
                 + "]: need finite 0 < bandwidth_lo <= bandwidth_hi");
    }

    const AuctionSpec& auc = spec.auction;
    if (auc.winners == 0) fail("auction.winners = 0: K must be >= 1");
    if (pop.num_nodes > 0 && auc.winners >= pop.num_nodes)
        fail("auction.winners = " + std::to_string(auc.winners)
             + " but population.num_nodes = " + std::to_string(pop.num_nodes)
             + ": the equilibrium needs K < N (losing must be possible)");
    if (bad(auc.psi) || !(auc.psi > 0.0 && auc.psi <= 1.0))
        fail("auction.psi = " + num(auc.psi)
             + ": must be a finite probability in (0, 1] (1.0 disables "
               "probabilistic acceptance)");
    for (std::size_t i = 0; i < auc.psi_per_node.size(); ++i) {
        const double p = auc.psi_per_node[i];
        if (bad(p) || !(p > 0.0 && p <= 1.0)) {
            fail("auction.psi_per_node[" + std::to_string(i) + "] = " + num(p)
                 + ": must be a finite probability in (0, 1]");
            break; // one message per problem class keeps the list readable
        }
    }
    if (!auc.psi_per_node.empty() && auc.psi_per_node.size() < pop.num_nodes)
        fail("auction.psi_per_node has " + std::to_string(auc.psi_per_node.size())
             + " entries but population.num_nodes = " + std::to_string(pop.num_nodes)
             + ": per-node psi is indexed by NodeId and must cover every node");
    if (bad(auc.budget) || auc.budget < 0.0)
        fail("auction.budget = " + num(auc.budget)
             + ": must be finite and >= 0 (0 = unconstrained)");
    if (auc.shards == 0)
        fail("auction.shards = 0: the market needs at least one shard "
             "(1 = the monolithic selector)");
    if (pop.num_nodes > 0 && auc.shards > pop.num_nodes)
        fail("auction.shards = " + std::to_string(auc.shards)
             + " but population.num_nodes = " + std::to_string(pop.num_nodes)
             + ": every shard needs at least one node");
    if (bad(auc.shard_timeout_s) || auc.shard_timeout_s < 0.0)
        fail("auction.shard_timeout_s = " + num(auc.shard_timeout_s)
             + ": must be finite and >= 0 (0 disables the deadline)");
    if (auc.shard_timeout_s > 0.0 && auc.shards <= 1)
        fail("auction.shard_timeout_s = " + num(auc.shard_timeout_s)
             + " with auction.shards = " + std::to_string(auc.shards)
             + ": a bid deadline only applies to a sharded market (shards > 1)");
    if (bad(auc.latency_discount) || auc.latency_discount < 0.0)
        fail("auction.latency_discount = " + num(auc.latency_discount)
             + ": must be finite and >= 0 (0 disables latency-discounted "
               "pricing)");
    if (!auc.fault_plan.empty()) {
        bool plan_has_shard_faults = false;
        try {
            plan_has_shard_faults =
                util::FaultInjector::from_spec(auc.fault_plan).has_shard_faults();
        } catch (const std::invalid_argument& error) {
            fail("auction.fault_plan = '" + auc.fault_plan + "': " + error.what());
        }
        // Coordinator-kill faults (ckill/ckill_mid) target the run itself, not
        // the shard workers, so they are legal on a monolithic market too.
        if (plan_has_shard_faults && auc.shards <= 1)
            fail("auction.fault_plan = '" + auc.fault_plan + "' with auction.shards = "
                 + std::to_string(auc.shards)
                 + ": shard-fault injection targets shard workers, so it needs a "
                   "sharded market (shards > 1); coordinator-only plans "
                   "(ckill/ckill_mid) are exempt");
    }
    if (auc.shard_quorum > 0 && auc.shards <= 1)
        fail("auction.shard_quorum set with auction.shards = "
             + std::to_string(auc.shards)
             + ": shard supervision needs a sharded market (shards > 1)");
    if (auc.shard_quorum > auc.shards)
        fail("auction.shard_quorum = " + std::to_string(auc.shard_quorum)
             + " exceeds auction.shards = " + std::to_string(auc.shards)
             + ": a quorum above the shard count can never be met");
    if (auc.mechanism == "first_score"
        && auc.payment_rule == auction::PaymentRule::second_price)
        fail("auction.mechanism = 'first_score' but auction.payment_rule = "
             "'second_price': the first_score mechanism pins first-score payments, "
             "so the rule would be silently ignored — set mechanism = second_score "
             "(or drop the payment_rule override)");
    if (!auc.mechanism.empty()
        && !auction::MechanismRegistry::instance().contains(auc.mechanism)) {
        std::string known;
        for (const std::string& name : auction::MechanismRegistry::instance().names()) {
            if (!known.empty()) known += ", ";
            known += name;
        }
        fail("auction.mechanism = '" + auc.mechanism
             + "': not in the MechanismRegistry (registered: " + known + ")");
    }
    if (spec.kind == ExperimentKind::simulation) {
        if (bad(auc.alpha) || !(auc.alpha > 0.0))
            fail("auction.alpha = " + num(auc.alpha)
                 + ": the scaled-product scoring coefficient must be > 0");
        if (bad(auc.beta_data) || auc.beta_data <= 0.0 || bad(auc.beta_category)
            || auc.beta_category <= 0.0)
            fail("auction.beta_data/beta_category = " + num(auc.beta_data) + "/"
                 + num(auc.beta_category) + ": cost weights must be > 0");
    } else {
        if (bad(auc.alpha_cpu) || auc.alpha_cpu < 0.0 || bad(auc.alpha_bandwidth)
            || auc.alpha_bandwidth < 0.0 || bad(auc.alpha_data) || auc.alpha_data < 0.0)
            fail("auction.alpha_cpu/alpha_bandwidth/alpha_data = " + num(auc.alpha_cpu)
                 + "/" + num(auc.alpha_bandwidth) + "/" + num(auc.alpha_data)
                 + ": additive scoring weights must be finite and >= 0");
    }

    const TrainingSpec& train = spec.training;
    if (train.train_samples == 0 || train.test_samples == 0)
        fail("training.train_samples/test_samples = "
             + std::to_string(train.train_samples) + "/"
             + std::to_string(train.test_samples) + ": both must be >= 1");
    if (train.rounds == 0) fail("training.rounds = 0: need at least one round");
    if (train.local_epochs == 0) fail("training.local_epochs = 0: need at least one");
    if (train.batch_size == 0) fail("training.batch_size = 0: need at least one");
    if (bad(train.learning_rate) || !(train.learning_rate > 0.0))
        fail("training.learning_rate = " + num(train.learning_rate) + ": must be > 0");

    const TimingSpec& timing = spec.timing;
    if (spec.kind == ExperimentKind::testbed) {
        if (bad(timing.model_bytes) || !(timing.model_bytes > 0.0))
            fail("timing.model_bytes = " + num(timing.model_bytes) + ": must be > 0");
        if (bad(timing.seconds_per_sample_core)
            || !(timing.seconds_per_sample_core > 0.0))
            fail("timing.seconds_per_sample_core = " + num(timing.seconds_per_sample_core)
                 + ": must be > 0");
        if (bad(timing.round_overhead_s) || timing.round_overhead_s < 0.0)
            fail("timing.round_overhead_s = " + num(timing.round_overhead_s)
                 + ": must be finite and >= 0");
    }
    if (timing.round_mode != fl::RoundMode::sync
        && spec.kind != ExperimentKind::testbed)
        fail("timing.round_mode = " + fl::to_string(timing.round_mode)
             + " on a simulation spec: async/semi-sync rounds need the wall-clock "
               "model; use kind = testbed");
    if (!timing.streaming && timing.min_updates > auc.winners)
        fail("timing.min_updates = " + std::to_string(timing.min_updates)
             + " but auction.winners = " + std::to_string(auc.winners)
             + ": a round cannot wait for more updates than it dispatches");
    if (timing.streaming && timing.min_updates > pop.num_nodes)
        fail("timing.min_updates = " + std::to_string(timing.min_updates)
             + " but population.num_nodes = " + std::to_string(pop.num_nodes)
             + ": the streaming bid quorum counts arrivals and can never "
               "exceed the population");
    if (bad(timing.round_deadline_s) || timing.round_deadline_s < 0.0)
        fail("timing.round_deadline_s = " + num(timing.round_deadline_s)
             + ": must be finite and >= 0");
    if (!timing.streaming && timing.round_mode == fl::RoundMode::sync
        && timing.round_deadline_s > 0.0 && timing.min_updates > 0)
        fail("timing.round_deadline_s = " + num(timing.round_deadline_s)
             + " with timing.min_updates = " + std::to_string(timing.min_updates)
             + " under timing.round_mode = 'sync': neither knob can ever fire — "
               "the synchronous barrier waits for every winner; set round_mode = "
               "semi_sync (deadline + quorum) or async (quorum), or set "
               "timing.streaming = true to close the AUCTION on deadline/quorum "
               "instead");
    if (timing.streaming && spec.kind != ExperimentKind::testbed)
        fail("timing.streaming = true on a simulation spec: the streaming market "
             "runs on the testbed's virtual clock; use kind = testbed");
    if (timing.streaming && auc.shards > 1)
        fail("timing.streaming = true with auction.shards = " + std::to_string(auc.shards)
             + ": the streaming market ranks its arrived bids in one frame; set "
               "auction.shards = 1, or unset timing.streaming for the sharded "
               "batch market");
    if (timing.adaptive_quorum) {
        if (!timing.streaming)
            fail("timing.adaptive_quorum = true without timing.streaming: the "
                 "controller tunes the streaming bid quorum; set "
                 "timing.streaming = true (and kind = testbed)");
        if (timing.min_updates == 0)
            fail("timing.adaptive_quorum = true with timing.min_updates = 0: "
                 "the controller needs a starting quorum to tune; set "
                 "timing.min_updates >= 1");
        if (!(timing.round_deadline_s > 0.0))
            fail("timing.adaptive_quorum = true with timing.round_deadline_s = "
                 + num(timing.round_deadline_s)
                 + ": the control law measures close times against the bid "
                   "deadline; set timing.round_deadline_s > 0");
    }
    if (bad(timing.arrival_rate_hz) || timing.arrival_rate_hz < 0.0)
        fail("timing.arrival_rate_hz = " + num(timing.arrival_rate_hz)
             + ": must be finite and >= 0");
    if (timing.streaming && timing.arrival_process == mec::ArrivalProcess::poisson
        && !(timing.arrival_rate_hz > 0.0))
        fail("timing.arrival_process = 'poisson' needs timing.arrival_rate_hz > 0 "
             "(bids per second of virtual time)");
    if (bad(timing.staleness_alpha) || timing.staleness_alpha < 0.0)
        fail("timing.staleness_alpha = " + num(timing.staleness_alpha)
             + ": the polynomial decay exponent must be finite and >= 0");
    if (bad(timing.latency_spread) || timing.latency_spread < 0.0)
        fail("timing.latency_spread = " + num(timing.latency_spread)
             + ": the lognormal straggler sigma must be finite and >= 0");
    if (bad(timing.dropout_prob) || timing.dropout_prob < 0.0
        || timing.dropout_prob >= 1.0)
        fail("timing.dropout_prob = " + num(timing.dropout_prob)
             + ": must be a probability in [0, 1) (1 would drop every client "
               "forever)");
    if (timing.checkpoint_every > 0 && timing.checkpoint_dir.empty())
        fail("timing.checkpoint_every = " + std::to_string(timing.checkpoint_every)
             + " with an empty timing.checkpoint_dir: checkpoints need a "
               "directory to land in");
    if (timing.checkpoint_every > 0 && timing.checkpoint_keep == 0)
        fail("timing.checkpoint_keep = 0 with timing.checkpoint_every = "
             + std::to_string(timing.checkpoint_every)
             + ": retention must keep at least the newest checkpoint");
    if (timing.checkpoint_every == 0 && !timing.checkpoint_dir.empty())
        fail("timing.checkpoint_dir = '" + timing.checkpoint_dir
             + "' with timing.checkpoint_every = 0: set a cadence (rounds per "
               "checkpoint) or drop the directory");
    return errors;
}

void validate_or_throw(const ExperimentSpec& spec) {
    const std::vector<std::string> errors = validate(spec);
    if (errors.empty()) return;
    std::ostringstream message;
    message << "ExperimentSpec: " << errors.size() << " problem(s):";
    for (const std::string& error : errors) message << "\n  - " << error;
    throw std::invalid_argument(message.str());
}

// ---------------------------------------------------------------------------
// key=value (de)serialization
// ---------------------------------------------------------------------------

namespace {

std::string format_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

double parse_double(const std::string& key, const std::string& value) {
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        throw std::invalid_argument("ExperimentSpec: " + key + " = '" + value
                                    + "': not a number");
    return parsed;
}

std::size_t parse_size(const std::string& key, const std::string& value) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || value.find('-') != std::string::npos
        || errno == ERANGE)
        throw std::invalid_argument("ExperimentSpec: " + key + " = '" + value
                                    + "': not a non-negative integer (or out of range)");
    return static_cast<std::size_t>(parsed);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
    return static_cast<std::uint64_t>(parse_size(key, value));
}

bool parse_bool(const std::string& key, const std::string& value) {
    if (value == "true" || value == "1") return true;
    if (value == "false" || value == "0") return false;
    throw std::invalid_argument("ExperimentSpec: " + key + " = '" + value
                                + "': expected true/false");
}

std::string format_list(const std::vector<double>& values) {
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) out += ',';
        out += format_double(values[i]);
    }
    return out;
}

std::vector<double> parse_list(const std::string& key, const std::string& value) {
    std::vector<double> out;
    if (value.empty()) return out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string token = value.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        out.push_back(parse_double(key, token));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

std::string format_dataset(DatasetKind kind) {
    switch (kind) {
        case DatasetKind::mnist_o: return "mnist_o";
        case DatasetKind::mnist_f: return "mnist_f";
        case DatasetKind::cifar10: return "cifar10";
        case DatasetKind::hpnews: return "hpnews";
    }
    return "?";
}

DatasetKind parse_dataset(const std::string& key, const std::string& value) {
    if (value == "mnist_o") return DatasetKind::mnist_o;
    if (value == "mnist_f") return DatasetKind::mnist_f;
    if (value == "cifar10") return DatasetKind::cifar10;
    if (value == "hpnews") return DatasetKind::hpnews;
    throw std::invalid_argument("ExperimentSpec: " + key + " = '" + value
                                + "': expected mnist_o, mnist_f, cifar10 or hpnews");
}

/// One serializable spec field; getter renders, setter parses.
struct Field {
    const char* key;
    std::string (*get)(const ExperimentSpec&);
    void (*set)(ExperimentSpec&, const std::string&);
};

#define FMORE_FIELD_DOUBLE(key, expr)                                                    \
    Field{key, [](const ExperimentSpec& s) { return format_double(s.expr); },            \
          [](ExperimentSpec& s, const std::string& v) { s.expr = parse_double(key, v); }}
#define FMORE_FIELD_SIZE(key, expr)                                                      \
    Field{key, [](const ExperimentSpec& s) { return std::to_string(s.expr); },           \
          [](ExperimentSpec& s, const std::string& v) { s.expr = parse_size(key, v); }}

const std::vector<Field>& fields() {
    static const std::vector<Field> all = {
        Field{"kind",
              [](const ExperimentSpec& s) { return to_string(s.kind); },
              [](ExperimentSpec& s, const std::string& v) {
                  if (v == "simulation") s.kind = ExperimentKind::simulation;
                  else if (v == "testbed") s.kind = ExperimentKind::testbed;
                  else
                      throw std::invalid_argument("ExperimentSpec: kind = '" + v
                                                  + "': expected simulation or testbed");
              }},
        Field{"seed", [](const ExperimentSpec& s) { return std::to_string(s.seed); },
              [](ExperimentSpec& s, const std::string& v) {
                  s.seed = parse_u64("seed", v);
              }},
        FMORE_FIELD_SIZE("population.num_nodes", population.num_nodes),
        FMORE_FIELD_SIZE("population.shards_lo", population.shards_lo),
        FMORE_FIELD_SIZE("population.shards_hi", population.shards_hi),
        FMORE_FIELD_SIZE("population.data_lo", population.data_lo),
        FMORE_FIELD_SIZE("population.data_hi", population.data_hi),
        FMORE_FIELD_DOUBLE("population.cpu_lo", population.cpu_lo),
        FMORE_FIELD_DOUBLE("population.cpu_hi", population.cpu_hi),
        FMORE_FIELD_DOUBLE("population.bandwidth_lo", population.bandwidth_lo),
        FMORE_FIELD_DOUBLE("population.bandwidth_hi", population.bandwidth_hi),
        FMORE_FIELD_DOUBLE("population.theta_lo", population.theta_lo),
        FMORE_FIELD_DOUBLE("population.theta_hi", population.theta_hi),
        FMORE_FIELD_DOUBLE("population.resource_jitter", population.resource_jitter),
        FMORE_FIELD_DOUBLE("population.theta_jitter", population.theta_jitter),
        Field{"auction.mechanism",
              [](const ExperimentSpec& s) { return s.auction.mechanism; },
              [](ExperimentSpec& s, const std::string& v) { s.auction.mechanism = v; }},
        FMORE_FIELD_SIZE("auction.winners", auction.winners),
        FMORE_FIELD_DOUBLE("auction.alpha", auction.alpha),
        FMORE_FIELD_DOUBLE("auction.alpha_cpu", auction.alpha_cpu),
        FMORE_FIELD_DOUBLE("auction.alpha_bandwidth", auction.alpha_bandwidth),
        FMORE_FIELD_DOUBLE("auction.alpha_data", auction.alpha_data),
        FMORE_FIELD_DOUBLE("auction.beta_data", auction.beta_data),
        FMORE_FIELD_DOUBLE("auction.beta_category", auction.beta_category),
        FMORE_FIELD_DOUBLE("auction.psi", auction.psi),
        Field{"auction.psi_per_node",
              [](const ExperimentSpec& s) { return format_list(s.auction.psi_per_node); },
              [](ExperimentSpec& s, const std::string& v) {
                  s.auction.psi_per_node = parse_list("auction.psi_per_node", v);
              }},
        FMORE_FIELD_DOUBLE("auction.budget", auction.budget),
        FMORE_FIELD_SIZE("auction.shards", auction.shards),
        FMORE_FIELD_DOUBLE("auction.shard_timeout_s", auction.shard_timeout_s),
        FMORE_FIELD_DOUBLE("auction.latency_discount", auction.latency_discount),
        Field{"auction.fault_plan",
              [](const ExperimentSpec& s) { return s.auction.fault_plan; },
              [](ExperimentSpec& s, const std::string& v) { s.auction.fault_plan = v; }},
        FMORE_FIELD_SIZE("auction.shard_quorum", auction.shard_quorum),
        Field{"auction.full_scoreboard",
              [](const ExperimentSpec& s) {
                  return std::string(s.auction.full_scoreboard ? "true" : "false");
              },
              [](ExperimentSpec& s, const std::string& v) {
                  s.auction.full_scoreboard = parse_bool("auction.full_scoreboard", v);
              }},
        Field{"auction.payment_rule",
              [](const ExperimentSpec& s) {
                  return std::string(s.auction.payment_rule
                                             == auction::PaymentRule::first_price
                                         ? "first_price"
                                         : "second_price");
              },
              [](ExperimentSpec& s, const std::string& v) {
                  if (v == "first_price")
                      s.auction.payment_rule = auction::PaymentRule::first_price;
                  else if (v == "second_price")
                      s.auction.payment_rule = auction::PaymentRule::second_price;
                  else
                      throw std::invalid_argument(
                          "ExperimentSpec: auction.payment_rule = '" + v
                          + "': expected first_price or second_price");
              }},
        Field{"auction.win_model",
              [](const ExperimentSpec& s) {
                  return std::string(s.auction.win_model == auction::WinModel::paper
                                         ? "paper"
                                         : "exact");
              },
              [](ExperimentSpec& s, const std::string& v) {
                  if (v == "paper") s.auction.win_model = auction::WinModel::paper;
                  else if (v == "exact") s.auction.win_model = auction::WinModel::exact;
                  else
                      throw std::invalid_argument("ExperimentSpec: auction.win_model = '"
                                                  + v + "': expected paper or exact");
              }},
        Field{"training.dataset",
              [](const ExperimentSpec& s) { return format_dataset(s.training.dataset); },
              [](ExperimentSpec& s, const std::string& v) {
                  s.training.dataset = parse_dataset("training.dataset", v);
              }},
        FMORE_FIELD_SIZE("training.train_samples", training.train_samples),
        FMORE_FIELD_SIZE("training.test_samples", training.test_samples),
        FMORE_FIELD_SIZE("training.rounds", training.rounds),
        FMORE_FIELD_SIZE("training.local_epochs", training.local_epochs),
        FMORE_FIELD_SIZE("training.batch_size", training.batch_size),
        FMORE_FIELD_DOUBLE("training.learning_rate", training.learning_rate),
        FMORE_FIELD_SIZE("training.eval_cap", training.eval_cap),
        FMORE_FIELD_DOUBLE("timing.model_bytes", timing.model_bytes),
        FMORE_FIELD_DOUBLE("timing.seconds_per_sample_core",
                           timing.seconds_per_sample_core),
        FMORE_FIELD_DOUBLE("timing.round_overhead_s", timing.round_overhead_s),
        Field{"timing.round_mode",
              [](const ExperimentSpec& s) {
                  return fl::to_string(s.timing.round_mode);
              },
              [](ExperimentSpec& s, const std::string& v) {
                  try {
                      s.timing.round_mode = fl::parse_round_mode(v);
                  } catch (const std::invalid_argument&) {
                      throw std::invalid_argument(
                          "ExperimentSpec: timing.round_mode = '" + v
                          + "': expected sync, semi_sync or async");
                  }
              }},
        FMORE_FIELD_SIZE("timing.min_updates", timing.min_updates),
        FMORE_FIELD_DOUBLE("timing.round_deadline_s", timing.round_deadline_s),
        FMORE_FIELD_DOUBLE("timing.staleness_alpha", timing.staleness_alpha),
        FMORE_FIELD_SIZE("timing.max_staleness", timing.max_staleness),
        FMORE_FIELD_DOUBLE("timing.latency_spread", timing.latency_spread),
        FMORE_FIELD_DOUBLE("timing.dropout_prob", timing.dropout_prob),
        Field{"timing.streaming",
              [](const ExperimentSpec& s) {
                  return std::string(s.timing.streaming ? "true" : "false");
              },
              [](ExperimentSpec& s, const std::string& v) {
                  s.timing.streaming = parse_bool("timing.streaming", v);
              }},
        Field{"timing.arrival_process",
              [](const ExperimentSpec& s) {
                  return mec::to_string(s.timing.arrival_process);
              },
              [](ExperimentSpec& s, const std::string& v) {
                  try {
                      s.timing.arrival_process = mec::parse_arrival_process(v);
                  } catch (const std::invalid_argument&) {
                      throw std::invalid_argument(
                          "ExperimentSpec: timing.arrival_process = '" + v
                          + "': expected latency or poisson");
                  }
              }},
        FMORE_FIELD_DOUBLE("timing.arrival_rate_hz", timing.arrival_rate_hz),
        Field{"timing.adaptive_quorum",
              [](const ExperimentSpec& s) {
                  return std::string(s.timing.adaptive_quorum ? "true" : "false");
              },
              [](ExperimentSpec& s, const std::string& v) {
                  s.timing.adaptive_quorum =
                      parse_bool("timing.adaptive_quorum", v);
              }},
        FMORE_FIELD_SIZE("timing.checkpoint_every", timing.checkpoint_every),
        Field{"timing.checkpoint_dir",
              [](const ExperimentSpec& s) { return s.timing.checkpoint_dir; },
              [](ExperimentSpec& s, const std::string& v) {
                  s.timing.checkpoint_dir = v;
              }},
        FMORE_FIELD_SIZE("timing.checkpoint_keep", timing.checkpoint_keep),
    };
    return all;
}

#undef FMORE_FIELD_DOUBLE
#undef FMORE_FIELD_SIZE

std::string trim(const std::string& text) {
    std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos) return {};
    std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

} // namespace

std::string to_text(const ExperimentSpec& spec) {
    std::string out;
    for (const Field& field : fields()) {
        out += field.key;
        out += " = ";
        out += field.get(spec);
        out += '\n';
    }
    return out;
}

void apply_key_value(ExperimentSpec& spec, const std::string& key,
                     const std::string& value) {
    for (const Field& field : fields()) {
        if (key == field.key) {
            field.set(spec, value);
            return;
        }
    }
    std::ostringstream message;
    message << "ExperimentSpec: unknown key '" << key << "'; known keys: ";
    for (std::size_t i = 0; i < fields().size(); ++i) {
        if (i != 0) message << ", ";
        message << fields()[i].key;
    }
    throw std::invalid_argument(message.str());
}

ExperimentSpec parse_experiment_spec(const std::string& text) {
    ExperimentSpec spec;
    std::istringstream stream(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        const std::string stripped = trim(line);
        if (stripped.empty()) continue;
        const std::size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("ExperimentSpec: line " + std::to_string(line_no)
                                        + " ('" + stripped
                                        + "') is not a 'key = value' assignment");
        const std::string key = trim(stripped.substr(0, eq));
        const std::string value = trim(stripped.substr(eq + 1));
        try {
            apply_key_value(spec, key, value);
        } catch (const std::invalid_argument& error) {
            throw std::invalid_argument("line " + std::to_string(line_no) + ": "
                                        + error.what());
        }
    }
    return spec;
}

// ---------------------------------------------------------------------------
// ExperimentTrial
// ---------------------------------------------------------------------------

ExperimentTrial::ExperimentTrial(const ExperimentSpec& spec, std::size_t trial_index)
    : spec_(spec) {
    // Each engine validates the spec it is handed.
    if (spec_.kind == ExperimentKind::simulation)
        simulation_ = std::make_unique<SimulationTrial>(spec_, trial_index);
    else
        testbed_ = std::make_unique<RealWorldTrial>(spec_, trial_index);
}

ExperimentTrial::~ExperimentTrial() = default;

fl::RunResult ExperimentTrial::run(const std::string& policy) {
    return simulation_ ? simulation_->run(policy) : testbed_->run(policy);
}

fl::RunResult ExperimentTrial::run_resumable(const std::string& policy,
                                             const RunCheckpoint* resume_from) {
    if (resume_from) {
        if (resume_from->policy != policy)
            throw std::invalid_argument(
                "ExperimentTrial::run_resumable: checkpoint belongs to policy '"
                + resume_from->policy + "', not '" + policy + "'");
        if (!resume_from->spec_text.empty()
            && !(parse_experiment_spec(resume_from->spec_text) == spec_))
            throw std::invalid_argument(
                "ExperimentTrial::run_resumable: checkpoint spec does not match "
                "this experiment (refusing to resume a different run)");
    }
    return simulation_ ? simulation_->run_resumable(policy, resume_from)
                       : testbed_->run_resumable(policy, resume_from);
}

const std::vector<double>& ExperimentTrial::last_all_scores() const {
    return simulation_ ? simulation_->last_all_scores() : testbed_->last_all_scores();
}

const std::vector<ml::ClientShard>& ExperimentTrial::shards() const {
    return simulation_ ? simulation_->shards() : testbed_->shards();
}

} // namespace fmore::core
