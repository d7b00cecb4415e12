// Allocation-count suite: once its buffers have grown, a round of
// fl::Coordinator makes a small, fixed number of heap allocations, and none
// of them scales with the minibatches a round trains or evaluates. A worker
// clone's scratch freed and made again every round lands in whichever
// thread's malloc arena ran that slot, and those arenas never shrink; this
// suite pins that it stays gone. It counts through the replaced global
// operator new (counting_new.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "counting_new.hpp"
#include "fmore/fl/coordinator.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::fl {
namespace {

/// What a steady round may still allocate:
///  - 1: the selector's copy of its record (the `selected` vector);
///  - per parallel section (client training, evaluation) at more than one
///    worker: the pool's shared loop state, plus one queued job per helper
///    (a std::function holding a shared_ptr and a slot id, too large to be
///    stored in place). At 4 workers that is 2 x (1 + 3) = 8.
/// A section with one worker runs inline and allocates nothing.
constexpr std::size_t kRoundAllocationBudget = 9;

constexpr std::size_t kClients = 4;
constexpr std::size_t kShardSamples = 80;
constexpr std::size_t kSamplesPerWinner = 16;  // one minibatch
constexpr std::size_t kWarmupRounds = 2;

struct Workload {
    ml::Dataset train;
    ml::Dataset test;
    std::vector<ml::ClientShard> shards;
    std::function<ml::Model()> make_model;
};

/// Train and test sets large enough for the 4x variants: the test set holds
/// 4 * `eval_batches` evaluation batches.
template <class Spec, class Generate>
Workload make_workload(Spec spec, Generate generate, std::function<ml::Model()> make_model,
                       std::size_t eval_batches) {
    const std::size_t train_n = kClients * kShardSamples;
    spec.samples = train_n + 4 * eval_batches * ml::kEvalBatch;
    stats::Rng rng(31);
    ml::DatasetSplit data = generate(spec, train_n, rng);
    Workload w;
    w.train = std::move(data.train);
    w.test = std::move(data.test);
    stats::Rng prng(32);
    w.shards = ml::partition_iid(w.train, kClients, prng);
    w.make_model = std::move(make_model);
    return w;
}

Workload cnn_deep_workload(std::size_t eval_batches) {
    return make_workload(
        ml::cifar10_spec(0),
        [](const ml::ImageDatasetSpec& s, std::size_t n, stats::Rng& rng) {
            return ml::make_synthetic_images(s, n, rng);
        },
        [] { return ml::make_cnn_deep(ml::ImageSpec{3, 14, 14, 10}, 33); }, eval_batches);
}

Workload lstm_workload(std::size_t eval_batches) {
    const ml::TextDatasetSpec spec = ml::hpnews_spec(0);
    const ml::TextSpec text{spec.vocab, spec.seq_len, spec.classes};
    return make_workload(
        spec,
        [](const ml::TextDatasetSpec& s, std::size_t n, stats::Rng& rng) {
            return ml::make_synthetic_text(s, n, rng);
        },
        [text] { return ml::make_lstm_classifier(text, 34); }, eval_batches);
}

/// Every round the same winners (clients 0..K-1), each contracted to the
/// same sample count. Reads the allocation counter as each round starts.
class FixedSelector final : public ClientSelector {
public:
    FixedSelector(std::size_t samples, std::size_t rounds) {
        for (std::size_t i = 0; i < kClients; ++i)
            record_.selected.push_back(SelectedClient{i, 1.0, 2.0, samples});
        round_starts_.reserve(rounds);
    }

    SelectionRecord select(std::size_t /*round*/, std::size_t /*k*/,
                           stats::Rng& /*rng*/) override {
        round_starts_.push_back(allocation_count());
        return record_;
    }
    [[nodiscard]] std::string name() const override { return "fixed"; }
    [[nodiscard]] bool contracts_data_volume() const override { return true; }

    [[nodiscard]] const std::vector<std::size_t>& round_starts() const {
        return round_starts_;
    }

private:
    SelectionRecord record_;
    std::vector<std::size_t> round_starts_;
};

/// Allocations of a steady round: the fewest over the complete rounds after
/// the warm-up. A serial round is deterministic, so two rounds suffice. With
/// helpers, two kinds of one-off event land in single rounds: the pool's
/// job queue takes a new node once per 16 queued jobs (about every third
/// round at 6 jobs a round), and a clone grows its scratch the first time
/// its slot trains and again the first time it evaluates (at most twice per
/// slot), which depends on how the pool hands out work; under load a helper
/// can sit out several rounds. Evaluation runs in training-sized slices, so
/// that second growth is only the [kEvalBatch, classes] logits and the
/// loss's buffers (EvalFootprint bounds it). Nine measured rounds leave
/// clean ones.
std::size_t steady_round_allocations(const Workload& w, std::size_t threads,
                                     std::size_t samples, std::size_t eval_batches) {
    const std::size_t rounds = kWarmupRounds + (threads == 1 ? 2 : 9) + 1;
    ml::Model model = w.make_model();
    CoordinatorConfig cc;
    cc.rounds = rounds;
    cc.winners_per_round = kClients;
    cc.batch_size = 16;
    cc.learning_rate = 0.05;
    cc.eval_cap = eval_batches * ml::kEvalBatch;
    cc.round_threads = threads;
    Coordinator coordinator(model, w.train, w.test, w.shards, cc);
    FixedSelector selector(samples, rounds);
    stats::Rng rng(35);
    const RunResult result = coordinator.run(selector, rng);
    EXPECT_EQ(result.rounds.size(), rounds);

    const std::vector<std::size_t>& starts = selector.round_starts();
    EXPECT_EQ(starts.size(), rounds);
    std::size_t fewest = static_cast<std::size_t>(-1);
    for (std::size_t r = kWarmupRounds; r + 1 < starts.size(); ++r)
        fewest = std::min(fewest, starts[r + 1] - starts[r]);
    return fewest;
}

/// The base round evaluates one batch per worker, so the 4x variant runs
/// the same number of evaluation chunks.
template <class MakeWorkload>
void expect_fixed_round_allocations(MakeWorkload make_workload, std::size_t threads) {
    const std::size_t eval_batches = threads;
    const Workload w = make_workload(eval_batches);
    const std::size_t base =
        steady_round_allocations(w, threads, kSamplesPerWinner, eval_batches);
    EXPECT_LE(base, kRoundAllocationBudget);
    EXPECT_EQ(steady_round_allocations(w, threads, 4 * kSamplesPerWinner, eval_batches),
              base)
        << "a winner's allocations grow with the minibatches it trains";
    EXPECT_EQ(steady_round_allocations(w, threads, kSamplesPerWinner, 4 * eval_batches),
              base)
        << "evaluation's allocations grow with its batches";
}

TEST(RoundAllocations, CnnDeepSerial) { expect_fixed_round_allocations(cnn_deep_workload, 1); }

TEST(RoundAllocations, CnnDeepFourThreads) {
    expect_fixed_round_allocations(cnn_deep_workload, 4);
}

TEST(RoundAllocations, LstmSerial) { expect_fixed_round_allocations(lstm_workload, 1); }

TEST(RoundAllocations, LstmFourThreads) { expect_fixed_round_allocations(lstm_workload, 4); }

} // namespace
} // namespace fmore::fl
