#include <gtest/gtest.h>

#include <set>

#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/reference/mlp.hpp"

namespace fmore::ml {
namespace {

TEST(SyntheticImages, ShapeAndLabels) {
    stats::Rng rng(1);
    ImageDatasetSpec spec;
    spec.samples = 200;
    const Dataset data = make_synthetic_images(spec, rng);
    EXPECT_EQ(data.size(), 200u);
    EXPECT_EQ(data.sample_shape, (std::vector<std::size_t>{1, 12, 12}));
    EXPECT_EQ(data.num_classes, 10u);
    std::set<int> labels(data.labels.begin(), data.labels.end());
    EXPECT_GE(labels.size(), 8u); // nearly all classes present
    for (const int l : data.labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, 10);
    }
}

TEST(SyntheticImages, DeterministicPerSeed) {
    ImageDatasetSpec spec;
    spec.samples = 50;
    stats::Rng r1(7);
    stats::Rng r2(7);
    const Dataset a = make_synthetic_images(spec, r1);
    const Dataset b = make_synthetic_images(spec, r2);
    EXPECT_EQ(a.features, b.features);
    EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticImages, DifficultyKnobOrdersLearnability) {
    // A linear probe should separate the easy spec better than the hard
    // one after identical training: the knob drives the achievable ceiling
    // that ranks MNIST-O above CIFAR-10 in the paper's figures.
    auto train_probe = [](const ImageDatasetSpec& spec, std::size_t h, std::size_t w,
                          std::size_t c) {
        stats::Rng rng(11);
        Dataset data = make_synthetic_images(spec, rng);
        Model probe = reference::make_mlp(ImageSpec{c, h, w, 10}, 5);
        std::vector<std::size_t> train_idx;
        std::vector<std::size_t> test_idx;
        for (std::size_t i = 0; i < 700; ++i) train_idx.push_back(i);
        for (std::size_t i = 700; i < 900; ++i) test_idx.push_back(i);
        for (int e = 0; e < 8; ++e) probe.train_epoch(data, train_idx, 16, 0.05);
        return probe.evaluate(data, test_idx).accuracy;
    };
    ImageDatasetSpec easy = mnist_o_spec(900);
    ImageDatasetSpec hard = cifar10_spec(900);
    const double easy_acc = train_probe(easy, easy.height, easy.width, easy.channels);
    const double hard_acc = train_probe(hard, hard.height, hard.width, hard.channels);
    EXPECT_GT(easy_acc, hard_acc);
    EXPECT_GT(easy_acc, 0.5);
}

TEST(SyntheticImages, CannedSpecsMatchPaperDatasets) {
    EXPECT_EQ(mnist_o_spec(10).channels, 1u);
    EXPECT_EQ(mnist_f_spec(10).channels, 1u);
    EXPECT_EQ(cifar10_spec(10).channels, 3u);
    EXPECT_GT(mnist_f_spec(10).noise, mnist_o_spec(10).noise);
    EXPECT_GT(cifar10_spec(10).noise, mnist_f_spec(10).noise);
}

TEST(SyntheticImages, RejectsBadSpec) {
    stats::Rng rng(2);
    ImageDatasetSpec spec;
    spec.classes = 1;
    EXPECT_THROW(make_synthetic_images(spec, rng), std::invalid_argument);
    spec.classes = 10;
    spec.samples = 0;
    EXPECT_THROW(make_synthetic_images(spec, rng), std::invalid_argument);
}

TEST(SyntheticText, ShapeAndTokenRange) {
    stats::Rng rng(3);
    TextDatasetSpec spec;
    spec.samples = 150;
    const Dataset data = make_synthetic_text(spec, rng);
    EXPECT_EQ(data.size(), 150u);
    EXPECT_EQ(data.sample_shape, (std::vector<std::size_t>{spec.seq_len}));
    for (const float f : data.features) {
        EXPECT_GE(f, 0.0F);
        EXPECT_LT(f, static_cast<float>(spec.vocab));
        EXPECT_EQ(f, std::floor(f));
    }
}

TEST(SyntheticText, SharpnessControlsClassSignal) {
    // Sharper chains concentrate transition mass; measure the mean max
    // transition probability per row indirectly through repeat-structure:
    // an LSTM probe learns sharp chains far better than flat ones.
    auto probe_accuracy = [](double sharpness) {
        stats::Rng rng(13);
        TextDatasetSpec spec;
        spec.samples = 900;
        spec.vocab = 24;
        spec.sharpness = sharpness;
        Dataset data = make_synthetic_text(spec, rng);
        Model probe = make_lstm_classifier(TextSpec{spec.vocab, spec.seq_len, 10}, 5);
        std::vector<std::size_t> train_idx;
        std::vector<std::size_t> test_idx;
        for (std::size_t i = 0; i < 700; ++i) train_idx.push_back(i);
        for (std::size_t i = 700; i < 900; ++i) test_idx.push_back(i);
        for (int e = 0; e < 10; ++e) probe.train_epoch(data, train_idx, 16, 0.3);
        return probe.evaluate(data, test_idx).accuracy;
    };
    EXPECT_GT(probe_accuracy(0.9), probe_accuracy(0.05) + 0.15);
}

TEST(SyntheticText, HpnewsSpecIsLearnableConfiguration) {
    const TextDatasetSpec spec = hpnews_spec(10);
    EXPECT_EQ(spec.samples, 10u);
    EXPECT_GE(spec.sharpness, 0.5);
    EXPECT_LE(spec.vocab, 64u);
}

TEST(SyntheticText, RejectsBadSpec) {
    stats::Rng rng(4);
    TextDatasetSpec spec;
    spec.vocab = 1;
    EXPECT_THROW(make_synthetic_text(spec, rng), std::invalid_argument);
    spec.vocab = 16;
    spec.seq_len = 1;
    EXPECT_THROW(make_synthetic_text(spec, rng), std::invalid_argument);
}

/// `split` holds `pool` cut at `train_n`, each half reserved to its size.
void expect_pool_cut(const Dataset& pool, const DatasetSplit& split, std::size_t train_n) {
    const auto cut = static_cast<std::ptrdiff_t>(train_n);
    const auto feature_cut = static_cast<std::ptrdiff_t>(train_n * pool.sample_volume());
    for (const Dataset* half : {&split.train, &split.test}) {
        EXPECT_EQ(half->sample_shape, pool.sample_shape);
        EXPECT_EQ(half->num_classes, pool.num_classes);
        EXPECT_EQ(half->features.capacity(), half->features.size());
    }
    EXPECT_EQ(split.train.labels, std::vector<int>(pool.labels.begin(), pool.labels.begin() + cut));
    EXPECT_EQ(split.test.labels, std::vector<int>(pool.labels.begin() + cut, pool.labels.end()));
    EXPECT_EQ(split.train.features,
              std::vector<float>(pool.features.begin(), pool.features.begin() + feature_cut));
    EXPECT_EQ(split.test.features,
              std::vector<float>(pool.features.begin() + feature_cut, pool.features.end()));
}

TEST(SyntheticSplit, EqualsThePoolCutAtTrainSamples) {
    const ImageDatasetSpec images = cifar10_spec(60);
    stats::Rng a(8);
    stats::Rng b(8);
    expect_pool_cut(make_synthetic_images(images, a), make_synthetic_images(images, 45, b), 45);

    const TextDatasetSpec text = hpnews_spec(60);
    stats::Rng c(9);
    stats::Rng d(9);
    expect_pool_cut(make_synthetic_text(text, c), make_synthetic_text(text, 50, d), 50);
}

TEST(SyntheticSplit, RejectsMoreTrainingThanSamples) {
    stats::Rng rng(10);
    EXPECT_THROW(make_synthetic_images(mnist_o_spec(10), 11, rng), std::invalid_argument);
    EXPECT_THROW(make_synthetic_text(hpnews_spec(10), 11, rng), std::invalid_argument);
}

TEST(Dataset, GatherBuildsBatches) {
    stats::Rng rng(5);
    ImageDatasetSpec spec;
    spec.samples = 20;
    const Dataset data = make_synthetic_images(spec, rng);
    const Tensor batch = data.gather({0, 5, 7});
    EXPECT_EQ(batch.shape(), (std::vector<std::size_t>{3, 1, 12, 12}));
    const auto labels = data.gather_labels({0, 5, 7});
    EXPECT_EQ(labels.size(), 3u);
    EXPECT_EQ(labels[0], data.labels[0]);
    EXPECT_THROW(data.gather({100}), std::out_of_range);
    EXPECT_THROW(data.gather_labels({100}), std::out_of_range);
}

} // namespace
} // namespace fmore::ml
