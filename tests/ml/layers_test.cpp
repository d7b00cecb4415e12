#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "fmore/ml/activations.hpp"
#include "fmore/ml/conv2d.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/dropout.hpp"
#include "fmore/ml/embedding.hpp"
#include "fmore/ml/lstm.hpp"
#include "fmore/ml/pooling.hpp"

namespace fmore::ml {
namespace {

TEST(DenseLayer, ForwardShapeAndValues) {
    Dense dense(3, 2);
    stats::Rng rng(1);
    dense.initialize(rng);
    // Overwrite with known weights: y = [x0+x1+x2, 2*x0] + [0.5, -0.5].
    auto params = dense.parameters();
    *params[0].values = {1.0F, 1.0F, 1.0F, 2.0F, 0.0F, 0.0F};
    *params[1].values = {0.5F, -0.5F};
    const Tensor x({1, 3}, {1.0F, 2.0F, 3.0F});
    const Tensor y = dense.forward(x, false);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_FLOAT_EQ(y[0], 6.5F);
    EXPECT_FLOAT_EQ(y[1], 1.5F);
}

TEST(DenseLayer, BatchedForward) {
    Dense dense(2, 1);
    auto params = dense.parameters();
    *params[0].values = {1.0F, -1.0F};
    *params[1].values = {0.0F};
    const Tensor x({3, 2}, {1.0F, 0.0F, 0.0F, 1.0F, 2.0F, 2.0F});
    const Tensor y = dense.forward(x, false);
    EXPECT_FLOAT_EQ(y[0], 1.0F);
    EXPECT_FLOAT_EQ(y[1], -1.0F);
    EXPECT_FLOAT_EQ(y[2], 0.0F);
}

TEST(ReLULayer, ClampsNegatives) {
    ReLU relu;
    const Tensor x({1, 4}, {-1.0F, 0.0F, 2.0F, -3.0F});
    const Tensor y = relu.forward(x, false);
    EXPECT_FLOAT_EQ(y[0], 0.0F);
    EXPECT_FLOAT_EQ(y[2], 2.0F);
    const Tensor g = relu.backward(Tensor({1, 4}, {1.0F, 1.0F, 1.0F, 1.0F}));
    EXPECT_FLOAT_EQ(g[0], 0.0F);
    EXPECT_FLOAT_EQ(g[2], 1.0F);
}

TEST(FlattenLayer, RoundTripsShape) {
    Flatten flatten;
    const Tensor x({2, 3, 4});
    const Tensor y = flatten.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
    const Tensor g = flatten.backward(y);
    EXPECT_EQ(g.shape(), x.shape());
}

TEST(Conv2dLayer, KnownKernel) {
    Conv2d conv(1, 1, 2);
    auto params = conv.parameters();
    *params[0].values = {1.0F, 0.0F, 0.0F, 1.0F}; // main-diagonal sum
    *params[1].values = {0.0F};
    const Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    const Tensor y = conv.forward(x, false);
    ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y[0], 1.0F + 5.0F);
    EXPECT_FLOAT_EQ(y[1], 2.0F + 6.0F);
    EXPECT_FLOAT_EQ(y[2], 4.0F + 8.0F);
    EXPECT_FLOAT_EQ(y[3], 5.0F + 9.0F);
}

TEST(Conv2dLayer, RejectsBadInput) {
    Conv2d conv(2, 4, 3);
    EXPECT_THROW(conv.forward(Tensor({1, 1, 5, 5}), false), std::invalid_argument);
    EXPECT_THROW(conv.forward(Tensor({1, 2, 2, 2}), false), std::invalid_argument);
}

TEST(MaxPoolLayer, PicksMaxAndRoutesGradient) {
    MaxPool2d pool;
    const Tensor x({1, 1, 2, 2}, {1.0F, 5.0F, 3.0F, 2.0F});
    const Tensor y = pool.forward(x, false);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_FLOAT_EQ(y[0], 5.0F);
    const Tensor g = pool.backward(Tensor({1, 1, 1, 1}, {7.0F}));
    EXPECT_FLOAT_EQ(g[0], 0.0F);
    EXPECT_FLOAT_EQ(g[1], 7.0F);
    EXPECT_FLOAT_EQ(g[2], 0.0F);
}

TEST(MaxPoolLayer, OddSizesDropTrailing) {
    MaxPool2d pool;
    const Tensor x({1, 1, 5, 5});
    const Tensor y = pool.forward(x, false);
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
}

TEST(DropoutLayer, IdentityAtEval) {
    Dropout drop(0.5);
    stats::Rng rng(2);
    drop.attach_rng(&rng);
    const Tensor x({1, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
    const Tensor y = drop.forward(x, false);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(DropoutLayer, TrainModeZeroesAndScales) {
    Dropout drop(0.5);
    stats::Rng rng(3);
    drop.attach_rng(&rng);
    Tensor x({1, 1000});
    x.fill(1.0F);
    const Tensor y = drop.forward(x, true);
    int zeros = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        if (y[i] == 0.0F) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(y[i], 2.0F); // inverted scaling 1/(1-0.5)
        }
    }
    EXPECT_NEAR(zeros / 1000.0, 0.5, 0.08);
}

TEST(DropoutLayer, RequiresRngForTraining) {
    Dropout drop(0.3);
    EXPECT_THROW(drop.forward(Tensor({1, 4}), true), std::logic_error);
    EXPECT_THROW(Dropout(1.0), std::invalid_argument);
    EXPECT_THROW(Dropout(-0.1), std::invalid_argument);
}

TEST(EmbeddingLayer, LooksUpRows) {
    Embedding emb(4, 2);
    auto params = emb.parameters();
    *params[0].values = {0, 0, 1, 1, 2, 2, 3, 3}; // row i = (i, i)
    const Tensor ids({1, 3}, {2.0F, 0.0F, 3.0F});
    const Tensor y = emb.forward(ids, false);
    ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 3, 2}));
    EXPECT_FLOAT_EQ(y[0], 2.0F);
    EXPECT_FLOAT_EQ(y[2], 0.0F);
    EXPECT_FLOAT_EQ(y[4], 3.0F);
}

TEST(EmbeddingLayer, BackwardScattersIntoRows) {
    Embedding emb(3, 1);
    auto params = emb.parameters();
    *params[0].values = {0.0F, 0.0F, 0.0F};
    const Tensor ids({1, 2}, {1.0F, 1.0F});
    (void)emb.forward(ids, true);
    (void)emb.backward(Tensor({1, 2, 1}, {0.5F, 0.25F}));
    EXPECT_FLOAT_EQ((*params[0].grads)[1], 0.75F);
    EXPECT_FLOAT_EQ((*params[0].grads)[0], 0.0F);
}

TEST(EmbeddingLayer, RejectsOutOfVocab) {
    Embedding emb(3, 2);
    EXPECT_THROW(emb.forward(Tensor({1, 1}, {5.0F}), false), std::out_of_range);
    // Ids with no size_t value are rejected before any conversion.
    for (const float id : {-1.0F, std::numeric_limits<float>::quiet_NaN(), 1e30F}) {
        EXPECT_THROW(emb.forward(Tensor({1, 1}, {id}), false), std::out_of_range) << id;
    }
}

TEST(EmbeddingLayer, BackwardParamsMatchesBackward) {
    // backward_params skips the zero input gradient; the table gradient it
    // accumulates must equal backward's bit for bit.
    Embedding full(5, 3);
    stats::Rng rng(9);
    full.initialize(rng);
    Embedding params_only = full;
    const Tensor ids({2, 3}, {4.0F, 0.0F, 4.0F, 1.0F, 2.0F, 4.0F});
    Tensor grad({2, 3, 3});
    for (std::size_t i = 0; i < grad.size(); ++i)
        grad[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (int step = 0; step < 2; ++step) {
        (void)full.forward(ids, true);
        const Tensor grad_ids = full.backward(grad);
        EXPECT_EQ(grad_ids.shape(), (std::vector<std::size_t>{2, 3}));
        (void)params_only.forward(ids, true);
        params_only.backward_params(grad);
    }
    const std::vector<float>& a = *full.parameters()[0].grads;
    const std::vector<float>& b = *params_only.parameters()[0].grads;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(LstmLayer, OutputShapeAndFiniteness) {
    Lstm lstm(4, 6);
    stats::Rng rng(4);
    lstm.initialize(rng);
    Tensor x({2, 5, 4});
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const Tensor h = lstm.forward(x, true);
    EXPECT_EQ(h.shape(), (std::vector<std::size_t>{2, 6}));
    EXPECT_TRUE(h.all_finite());
    const Tensor g = lstm.backward(Tensor({2, 6}, std::vector<float>(12, 0.1F)));
    EXPECT_EQ(g.shape(), x.shape());
    EXPECT_TRUE(g.all_finite());
}

TEST(LstmLayer, HiddenStateBoundedByTanh) {
    Lstm lstm(3, 4);
    stats::Rng rng(5);
    lstm.initialize(rng);
    Tensor x({1, 8, 3});
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(rng.uniform(-3.0, 3.0));
    }
    const Tensor h = lstm.forward(x, false);
    for (std::size_t i = 0; i < h.size(); ++i) {
        EXPECT_LE(std::fabs(h[i]), 1.0F);
    }
}

TEST(LstmLayer, RejectsWrongInputShape) {
    Lstm lstm(3, 4);
    EXPECT_THROW(lstm.forward(Tensor({2, 5}), false), std::invalid_argument);
    EXPECT_THROW(lstm.forward(Tensor({2, 5, 7}), false), std::invalid_argument);
}

} // namespace
} // namespace fmore::ml
