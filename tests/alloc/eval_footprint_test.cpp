// Evaluation-footprint suite: a model clone that trained on 16-row
// minibatches evaluates in `ml::kEvalSlice`-row slices, so its first
// evaluation grows only what evaluation alone holds: the [kEvalBatch,
// classes] logits buffer the slices fill, the loss's probabilities and
// labels, and the batch's labels. A clone that ran whole `ml::kEvalBatch`
// batches through its layers grew every activation slot, layer cache and
// gathered batch to 128 rows, about 4 MB for `make_cnn_deep`, in whichever
// pool thread's malloc arena ran it. Counts the bytes operator new is asked
// for (counting_new.hpp).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "counting_new.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::ml {
namespace {

/// What a warm clone's first evaluation may allocate. The logits buffer
/// and the loss's probabilities are 5 KiB each at 128 x 10; the rest is
/// labels and small bookkeeping.
constexpr std::size_t kEvalFootprintBound = 64 * 1024;

constexpr std::size_t kTrainSamples = 80;
/// Two full evaluation batches and a ragged third.
constexpr std::size_t kEvalSamples = 2 * kEvalBatch + 40;

/// Bytes a clone's first `evaluate` allocates after one B16 epoch.
std::size_t first_evaluation_bytes(const DatasetSplit& data, const Model& model) {
    Model clone = model.clone();
    std::vector<std::size_t> train(kTrainSamples);
    std::iota(train.begin(), train.end(), std::size_t{0});
    clone.train_epoch(data.train, train, 16, 0.05);

    std::vector<std::size_t> eval(kEvalSamples);
    std::iota(eval.begin(), eval.end(), std::size_t{0});
    const std::size_t before = allocated_bytes();
    const EvalStats stats = clone.evaluate(data.test, eval);
    const std::size_t grown = allocated_bytes() - before;
    EXPECT_EQ(stats.samples, kEvalSamples);
    return grown;
}

TEST(EvalFootprint, CnnDeepCloneEvaluatesInTrainingSizedSlices) {
    stats::Rng rng(81);
    const DatasetSplit data = make_synthetic_images(
        cifar10_spec(kTrainSamples + kEvalSamples), kTrainSamples, rng);
    const Model model = make_cnn_deep(ImageSpec{3, 14, 14, 10}, 82);
    const std::size_t bytes = first_evaluation_bytes(data, model);
    EXPECT_LT(bytes, kEvalFootprintBound) << "first evaluation allocated " << bytes << " bytes";
}

TEST(EvalFootprint, LstmCloneEvaluatesInTrainingSizedSlices) {
    const TextDatasetSpec spec = hpnews_spec(kTrainSamples + kEvalSamples);
    stats::Rng rng(83);
    const DatasetSplit data = make_synthetic_text(spec, kTrainSamples, rng);
    const Model model =
        make_lstm_classifier(TextSpec{spec.vocab, spec.seq_len, spec.classes}, 84);
    const std::size_t bytes = first_evaluation_bytes(data, model);
    EXPECT_LT(bytes, kEvalFootprintBound) << "first evaluation allocated " << bytes << " bytes";
}

} // namespace
} // namespace fmore::ml
