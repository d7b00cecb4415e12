// Finite-difference gradient checks: for each layer family, build a tiny
// model ending in softmax cross-entropy, compare analytic parameter
// gradients against central differences. This is the test that certifies
// the substrate's backpropagation — including the LSTM's BPTT.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "fmore/ml/activations.hpp"
#include "fmore/ml/conv2d.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/embedding.hpp"
#include "fmore/ml/lstm.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/pooling.hpp"
#include "fmore/reference/mlp.hpp"

namespace fmore::ml {
namespace {

/// Fraction of sampled parameter coordinates whose analytic gradient
/// disagrees with the central difference. The analytic flat
/// gradient is extracted without extra API surface: after one backward
/// pass, an SGD step with lr = 1 subtracts exactly the gradient, so
/// (params_before - params_after) is the flat gradient in parameter order.
double max_gradient_error(Model& model, const Tensor& input,
                          const std::vector<int>& labels, double eps = 1e-3) {
    SoftmaxCrossEntropy loss;
    std::vector<float> params = model.get_parameters();

    model.zero_grad();
    (void)loss.forward(model.forward(input, /*training=*/false), labels);
    model.backward(loss.backward());
    model.sgd_step(1.0);
    const std::vector<float> stepped = model.get_parameters();
    std::vector<double> analytic(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
        analytic[i] = static_cast<double>(params[i]) - static_cast<double>(stepped[i]);
    }
    model.set_parameters(params);

    // Relative error per coordinate with the denominator floored at 1e-3:
    // float32 forward noise makes sub-1e-3 gradients uncomparable, and
    // ReLU/max-pool kink crossings make isolated coordinates disagree even
    // with a correct backward pass. The check therefore asserts on the
    // FRACTION of disagreeing coordinates rather than the single worst one.
    const std::size_t stride = std::max<std::size_t>(1, params.size() / 96);
    std::size_t checked = 0;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < params.size(); i += stride) {
        const float saved = params[i];
        params[i] = saved + static_cast<float>(eps);
        model.set_parameters(params);
        const double up = loss.forward(model.forward(input, false), labels);
        params[i] = saved - static_cast<float>(eps);
        model.set_parameters(params);
        const double down = loss.forward(model.forward(input, false), labels);
        params[i] = saved;
        model.set_parameters(params);
        const double numeric = (up - down) / (2.0 * eps);

        const double denom = std::max({std::fabs(numeric), std::fabs(analytic[i]), 1e-3});
        if (std::fabs(numeric - analytic[i]) / denom > 0.05) ++bad;
        ++checked;
    }
    return static_cast<double>(bad) / static_cast<double>(checked);
}

TEST(GradientCheck, DenseRelu) {
    Model model(11);
    model.add(std::make_unique<Dense>(6, 8));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Dense>(8, 3));
    stats::Rng rng(1);
    Tensor x({4, 6});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    EXPECT_LE(max_gradient_error(model, x, {0, 1, 2, 1}), 0.05);
}

TEST(GradientCheck, TanhHead) {
    Model model(12);
    model.add(std::make_unique<Dense>(5, 5));
    model.add(std::make_unique<reference::Tanh>());
    model.add(std::make_unique<Dense>(5, 2));
    stats::Rng rng(2);
    Tensor x({3, 5});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    EXPECT_LE(max_gradient_error(model, x, {1, 0, 1}), 0.05);
}

TEST(GradientCheck, ConvPoolStack) {
    Model model(13);
    model.add(std::make_unique<Conv2d>(1, 2, 3));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<MaxPool2d>());
    model.add(std::make_unique<Flatten>());
    model.add(std::make_unique<Dense>(2 * 2 * 2, 3));
    stats::Rng rng(3);
    Tensor x({2, 1, 6, 6});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    EXPECT_LE(max_gradient_error(model, x, {2, 0}), 0.05);
}

TEST(GradientCheck, LstmBptt) {
    Model model(14);
    model.add(std::make_unique<Lstm>(3, 4));
    model.add(std::make_unique<Dense>(4, 2));
    stats::Rng rng(4);
    Tensor x({2, 5, 3});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    EXPECT_LE(max_gradient_error(model, x, {0, 1}), 0.05);
}

TEST(GradientCheck, EmbeddingLstmClassifier) {
    Model model(15);
    model.add(std::make_unique<Embedding>(7, 3));
    model.add(std::make_unique<Lstm>(3, 4));
    model.add(std::make_unique<Dense>(4, 2));
    const Tensor ids({2, 4}, {1.0F, 3.0F, 5.0F, 0.0F, 2.0F, 2.0F, 6.0F, 4.0F});
    EXPECT_LE(max_gradient_error(model, ids, {1, 0}), 0.05);
}

} // namespace
} // namespace fmore::ml
