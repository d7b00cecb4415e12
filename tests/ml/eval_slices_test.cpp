// Sliced-evaluation suite: `Model::evaluate_batches` runs each `kEvalBatch`
// batch forward in `kEvalSlice`-row slices and hands the loss one buffer
// of the slices' logits. Every layer of the zoo computes a sample's row on
// its own, so each batch record must equal a whole-batch forward plus
// `SoftmaxCrossEntropy` bit for bit, whatever the index count: a single
// row, a ragged last slice, exactly one slice, a ragged last batch and
// several full batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "fmore/ml/loss.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::ml {
namespace {

constexpr std::size_t kSamples = 1100;

std::uint64_t bits(double v) {
    std::uint64_t out = 0;
    std::memcpy(&out, &v, sizeof out);
    return out;
}

struct ZooCase {
    std::string name;
    Dataset data;
    std::function<Model()> make;
};

std::vector<ZooCase> zoo_cases() {
    std::vector<ZooCase> cases;
    {
        stats::Rng rng(71);
        ImageDatasetSpec spec = mnist_o_spec(kSamples);
        cases.push_back({"cnn", make_synthetic_images(spec, rng),
                         [] { return make_cnn(ImageSpec{1, 12, 12, 10}, 72); }});
    }
    {
        stats::Rng rng(73);
        ImageDatasetSpec spec = cifar10_spec(kSamples);
        cases.push_back({"cnn_deep", make_synthetic_images(spec, rng),
                         [] { return make_cnn_deep(ImageSpec{3, 14, 14, 10}, 74); }});
    }
    {
        stats::Rng rng(75);
        TextDatasetSpec spec = hpnews_spec(kSamples);
        const TextSpec text{spec.vocab, spec.seq_len, spec.classes};
        cases.push_back({"lstm", make_synthetic_text(spec, rng),
                         [text] { return make_lstm_classifier(text, 76); }});
    }
    return cases;
}

/// A trained model: one B16 epoch over 64 samples, so the weights are not
/// the initial draws and every layer cache holds a 16-row minibatch.
Model trained(const ZooCase& c) {
    Model model = c.make();
    std::vector<std::size_t> warmup(64);
    for (std::size_t i = 0; i < warmup.size(); ++i) warmup[i] = kSamples - 1 - i;
    model.train_epoch(c.data, warmup, 16, 0.05);
    return model;
}

/// The first `n` entries of a fixed shuffle of the dataset's indices.
std::vector<std::size_t> some_indices(std::size_t n) {
    std::vector<std::size_t> order(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) order[i] = i;
    stats::Rng rng(77);
    rng.shuffle(order);
    order.resize(n);
    return order;
}

/// Each batch forward at once, as evaluation ran before it was sliced.
std::vector<EvalBatch> whole_batch_records(Model& model, const Dataset& data,
                                           const std::vector<std::size_t>& idx) {
    std::vector<EvalBatch> records;
    SoftmaxCrossEntropy loss;
    for (std::size_t start = 0; start < idx.size(); start += kEvalBatch) {
        const std::size_t count = std::min(idx.size() - start, kEvalBatch);
        Tensor batch;
        std::vector<int> labels;
        data.gather_into(idx.data() + start, count, batch);
        data.gather_labels_into(idx.data() + start, count, labels);
        const Tensor& logits = model.forward(batch, /*training=*/false);
        EvalBatch record;
        record.mean_loss = loss.forward(logits, labels);
        record.hits = loss.hits();
        record.samples = count;
        records.push_back(record);
    }
    return records;
}

void expect_same_records(const std::vector<EvalBatch>& got,
                         const std::vector<EvalBatch>& want, const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t b = 0; b < got.size(); ++b) {
        EXPECT_EQ(bits(got[b].mean_loss), bits(want[b].mean_loss)) << what << " batch " << b;
        EXPECT_EQ(got[b].hits, want[b].hits) << what << " batch " << b;
        EXPECT_EQ(got[b].samples, want[b].samples) << what << " batch " << b;
    }
}

void expect_same_stats(const EvalStats& got, const EvalStats& want, const std::string& what) {
    EXPECT_EQ(bits(got.mean_loss), bits(want.mean_loss)) << what;
    EXPECT_EQ(bits(got.accuracy), bits(want.accuracy)) << what;
    EXPECT_EQ(got.samples, want.samples) << what;
}

TEST(EvalSlices, SlicedBatchesEqualWholeBatchForward) {
    for (const ZooCase& c : zoo_cases()) {
        const Model base = trained(c);
        for (const std::size_t n : {1, 15, 16, 17, 104, 128, 1000}) {
            const std::string what = c.name + " n=" + std::to_string(n);
            const std::vector<std::size_t> idx = some_indices(n);
            const std::size_t batches = (n + kEvalBatch - 1) / kEvalBatch;

            Model reference = base.clone();
            const std::vector<EvalBatch> want = whole_batch_records(reference, c.data, idx);

            Model sliced = base.clone();
            std::vector<EvalBatch> got(batches);
            sliced.evaluate_batches(c.data, idx, kEvalBatch, 0, batches, got.data());
            expect_same_records(got, want, what);

            // A coordinator worker evaluates a chunk of batches on its clone.
            Model chunked = base.clone();
            std::vector<EvalBatch> chunks(batches);
            const std::size_t mid = batches / 2;
            chunked.evaluate_batches(c.data, idx, kEvalBatch, mid, batches,
                                     chunks.data());
            chunked.evaluate_batches(c.data, idx, kEvalBatch, 0, mid, chunks.data());
            expect_same_records(chunks, want, what + " chunked");

            Model whole = base.clone();
            const EvalStats stats = whole.evaluate(c.data, idx);
            expect_same_stats(stats, reduce_eval_batches(want), what + " evaluate");
            expect_same_stats(stats, reduce_eval_batches(got), what + " evaluate");
        }
    }
}

} // namespace
} // namespace fmore::ml
