#include <gtest/gtest.h>

#include "fmore/ml/dense.hpp"
#include "fmore/ml/activations.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/reference/mlp.hpp"

namespace fmore::ml {
namespace {

Model tiny_model(std::uint64_t seed) {
    Model model(seed);
    model.add(std::make_unique<Dense>(4, 8));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Dense>(8, 3));
    return model;
}

TEST(Model, ParameterRoundTrip) {
    Model model = tiny_model(1);
    const auto params = model.get_parameters();
    EXPECT_EQ(params.size(), model.parameter_count());
    EXPECT_EQ(params.size(), 4u * 8u + 8u + 8u * 3u + 3u);

    std::vector<float> altered = params;
    for (float& p : altered) p += 1.0F;
    model.set_parameters(altered);
    EXPECT_EQ(model.get_parameters(), altered);
    model.set_parameters(params);
    EXPECT_EQ(model.get_parameters(), params);
}

TEST(Model, SetParametersRejectsWrongSize) {
    Model model = tiny_model(2);
    std::vector<float> wrong(model.parameter_count() + 1, 0.0F);
    EXPECT_THROW(model.set_parameters(wrong), std::invalid_argument);
    wrong.resize(model.parameter_count() - 1);
    EXPECT_THROW(model.set_parameters(wrong), std::invalid_argument);
}

TEST(Model, DifferentSeedsDifferentInit) {
    Model a = tiny_model(1);
    Model b = tiny_model(99);
    EXPECT_NE(a.get_parameters(), b.get_parameters());
    Model c = tiny_model(1);
    EXPECT_EQ(a.get_parameters(), c.get_parameters());
}

TEST(Model, SgdStepMovesAgainstGradient) {
    Model model = tiny_model(3);
    Dataset data;
    data.sample_shape = {4};
    data.num_classes = 3;
    stats::Rng rng(4);
    for (int i = 0; i < 32; ++i) {
        std::vector<float> feat(4);
        const int label = i % 3;
        for (auto& f : feat) f = static_cast<float>(rng.uniform(-1.0, 1.0));
        feat[static_cast<std::size_t>(label)] += 2.0F; // separable signal
        data.push_sample(feat, label);
    }
    std::vector<std::size_t> idx(32);
    for (std::size_t i = 0; i < 32; ++i) idx[i] = i;

    const double before = model.evaluate(data, idx).mean_loss;
    for (int e = 0; e < 30; ++e) model.train_epoch(data, idx, 8, 0.1);
    const double after = model.evaluate(data, idx).mean_loss;
    EXPECT_LT(after, before * 0.5);
    EXPECT_GT(model.evaluate(data, idx).accuracy, 0.9);
}

TEST(Model, TrainEpochHandlesEdgeCases) {
    Model model = tiny_model(5);
    Dataset data;
    data.sample_shape = {4};
    data.num_classes = 3;
    data.push_sample({1.0F, 0.0F, 0.0F, 0.0F}, 0);
    const TrainStats empty = model.train_epoch(data, {}, 8, 0.1);
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_THROW(model.train_epoch(data, {0}, 0, 0.1), std::invalid_argument);
    const TrainStats one = model.train_epoch(data, {0}, 8, 0.1);
    EXPECT_EQ(one.samples, 1u);
}

/// 24 separable 4-feature samples over 3 classes, and all their indices.
Dataset separable_data(std::vector<std::size_t>& idx) {
    Dataset data;
    data.sample_shape = {4};
    data.num_classes = 3;
    stats::Rng rng(11);
    for (int i = 0; i < 24; ++i) {
        std::vector<float> feat(4);
        const int label = i % 3;
        for (auto& f : feat) f = static_cast<float>(rng.uniform(-1.0, 1.0));
        feat[static_cast<std::size_t>(label)] += 2.0F;
        data.push_sample(feat, label);
    }
    idx.resize(24);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    return data;
}

// The model caches its parameter-block list; each list must point into its
// own model's layers.
TEST(ModelParamCache, CloneStepsItsOwnParameters) {
    std::vector<std::size_t> idx;
    const Dataset data = separable_data(idx);
    Model source = tiny_model(12);
    (void)source.train_epoch(data, idx, 8, 0.1); // leaves nonzero gradients
    const std::vector<float> before = source.get_parameters();

    Model copy = source.clone();
    copy.sgd_step(0.5);
    EXPECT_EQ(source.get_parameters(), before);
    EXPECT_NE(copy.get_parameters(), before);
}

TEST(ModelParamCache, MovedModelsTrainTheirParameters) {
    std::vector<std::size_t> idx;
    const Dataset data = separable_data(idx);

    Model source = tiny_model(13);
    const std::vector<float> start = source.get_parameters();
    Model constructed(std::move(source));
    (void)constructed.train_epoch(data, idx, 8, 0.1);
    const std::vector<float> trained = constructed.get_parameters();
    ASSERT_EQ(trained.size(), start.size());
    EXPECT_NE(trained, start);

    Model other = tiny_model(14);
    const std::vector<float> other_start = other.get_parameters();
    Model assigned(1);
    assigned = std::move(other);
    (void)assigned.train_epoch(data, idx, 8, 0.1);
    const std::vector<float> assigned_trained = assigned.get_parameters();
    ASSERT_EQ(assigned_trained.size(), other_start.size());
    EXPECT_NE(assigned_trained, other_start);
}

TEST(ModelParamCache, AddAfterForwardGrowsTheList) {
    Model model(15);
    model.add(std::make_unique<Dense>(4, 8));
    (void)model.forward(Tensor({2, 4}), false);
    const std::size_t before = model.parameter_count();
    model.add(std::make_unique<Dense>(8, 3));
    EXPECT_EQ(model.parameter_count(), before + 8u * 3u + 3u);
    EXPECT_EQ(model.get_parameters().size(), model.parameter_count());
}

TEST(ModelZoo, FactoriesProduceWorkingModels) {
    stats::Rng rng(6);
    // CNN on a small image batch.
    const ImageSpec img{1, 12, 12, 10};
    Model cnn = make_cnn(img, 7);
    Tensor x({2, 1, 12, 12});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    EXPECT_EQ(cnn.forward(x, false).shape(), (std::vector<std::size_t>{2, 10}));

    const ImageSpec cif{3, 14, 14, 10};
    Model deep = make_cnn_deep(cif, 8);
    Tensor xc({2, 3, 14, 14});
    EXPECT_EQ(deep.forward(xc, false).shape(), (std::vector<std::size_t>{2, 10}));

    Model mlp = reference::make_mlp(img, 9);
    EXPECT_EQ(mlp.forward(x, false).shape(), (std::vector<std::size_t>{2, 10}));

    const TextSpec text{32, 12, 10};
    Model lstm = make_lstm_classifier(text, 10);
    Tensor ids({2, 12});
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<float>(rng.uniform_int(0, 31));
    EXPECT_EQ(lstm.forward(ids, false).shape(), (std::vector<std::size_t>{2, 10}));
}

TEST(ModelZoo, ParameterCountsAreStable) {
    // Guards against silent architecture drift that would invalidate the
    // recorded experiment numbers.
    Model cnn = make_cnn(ImageSpec{1, 12, 12, 10}, 1);
    // conv 8*1*9+8 = 80; dense (8*5*5)->64: 12864; dense 64->10: 650.
    EXPECT_EQ(cnn.parameter_count(), 80u + 12864u + 650u);
    Model lstm = make_lstm_classifier(TextSpec{32, 12, 10}, 1);
    // embed 32*16=512; lstm 4*32*(16+32)+128 = 6272; dense 32->10: 330.
    EXPECT_EQ(lstm.parameter_count(), 512u + 6272u + 330u);
}

} // namespace
} // namespace fmore::ml
