// Kernel-equivalence suite: the GEMM-backed layers must match the textbook
// loops of the reference layers (fmore/reference/naive_layers.hpp) bit for
// bit (gemm.hpp's order contract), across random shapes including
// non-square inputs, non-square kernels and every register-tile tail of the
// three convolution kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fmore/ml/conv2d.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/gemm.hpp"
#include "fmore/ml/lstm.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/ml/tensor.hpp"
#include "fmore/reference/naive_layers.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {
namespace {

constexpr double kTol = 1e-10;

Tensor random_tensor(std::vector<std::size_t> shape, stats::Rng& rng) {
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NEAR(a[i], b[i], kTol) << what << " element " << i;
    }
}

/// Byte-for-byte equality (so +0 vs -0 and NaN payloads count), naming the
/// first differing element on failure.
void expect_bit_identical(const std::vector<float>& a, const std::vector<float>& b,
                          const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) return;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
            << what << " element " << i << ": " << a[i] << " vs " << b[i];
    }
}

void expect_bit_identical(const Tensor& a, const Tensor& b, const std::string& what) {
    ASSERT_EQ(a.shape(), b.shape()) << what;
    expect_bit_identical(a.storage(), b.storage(), what);
}

// ---------------------------------------------------------------------------
// Raw kernel vs scalar reference
// ---------------------------------------------------------------------------

TEST(GemmKernelTest, MatchesScalarReferenceOnRandomShapes) {
    stats::Rng rng(31);
    // Shapes chosen to hit every tile path: full 8x16 tiles, 4-row and
    // 1-3 row tails, 8/4-wide and scalar j tails, tiny and skinny extremes.
    std::vector<std::array<std::size_t, 3>> shapes = {
        {4, 16, 8},  {8, 100, 9}, {5, 17, 3},  {3, 7, 11},  {1, 1, 1},
        {2, 37, 64}, {16, 9, 100}, {7, 23, 5}, {13, 52, 21}, {4, 4, 200},
    };
    // Every row split of the 8-row tile (8, 8+1, 8+4, 8+4+3, 8+8+1, twelve
    // tiles) at the widths the models run: one 16-lane tile (a B16
    // minibatch in W x^T) and sixteen (dense1's 256 inputs).
    for (const std::size_t m : {8, 9, 12, 15, 17, 96}) {
        for (const std::size_t n : {16, 256}) shapes.push_back({m, n, 19});
    }
    for (const auto& [m, n, k] : shapes) {
        std::vector<float> a(m * k);
        std::vector<float> b(k * n);
        std::vector<float> c_ref(m * n);
        for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : c_ref) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> c_fast = c_ref;

        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                float acc = c_ref[i * n + j];
                for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
                c_ref[i * n + j] = acc;
            }
        }
        gemm_acc(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                 static_cast<std::ptrdiff_t>(n), c_fast.data(),
                 static_cast<std::ptrdiff_t>(n));
        expect_close(c_fast, c_ref,
                     "gemm " + std::to_string(m) + "x" + std::to_string(n) + "x"
                         + std::to_string(k));
    }
}

TEST(GemmKernelTest, StridedATransposeMatchesMaterializedTranspose) {
    stats::Rng rng(32);
    const std::size_t m = 6, n = 21, k = 13;
    std::vector<float> at(k * m); // a stored transposed [k x m]
    std::vector<float> b(k * n);
    std::vector<float> c_ref(m * n, 0.25F);
    for (float& v : at) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> c_fast = c_ref;

    // Reference through a materialized row-major A.
    std::vector<float> a(m * k);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk) a[i * k + kk] = at[kk * m + i];
    gemm_acc(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
             static_cast<std::ptrdiff_t>(n), c_ref.data(),
             static_cast<std::ptrdiff_t>(n));
    // Same multiply via strides: row stride 1, column stride m.
    gemm_acc(m, n, k, at.data(), 1, static_cast<std::ptrdiff_t>(m), b.data(),
             static_cast<std::ptrdiff_t>(n), c_fast.data(),
             static_cast<std::ptrdiff_t>(n));
    expect_close(c_fast, c_ref, "strided-A gemm");
}

// ---------------------------------------------------------------------------
// Production layer vs naive reference layer
// ---------------------------------------------------------------------------

/// Run forward+backward, returning outputs, input gradients and parameter
/// gradients. Parameter gradients start at zero, or, when `seeded`, at a
/// fixed nonzero pattern that backward must accumulate onto.
struct LayerPass {
    Tensor output;
    Tensor grad_input;
    std::vector<std::vector<float>> param_grads;
};

LayerPass run_layer(Layer& layer, const Tensor& input, const Tensor& grad_out,
                    bool seeded = false) {
    for (const ParamBlock& block : layer.parameters()) {
        for (std::size_t i = 0; i < block.grads->size(); ++i) {
            (*block.grads)[i] =
                seeded ? static_cast<float>(i % 13) * 0.375F - 2.125F : 0.0F;
        }
    }
    LayerPass pass;
    pass.output = layer.forward(input, /*training=*/true);
    pass.grad_input = layer.backward(grad_out);
    for (const ParamBlock& block : layer.parameters()) {
        pass.param_grads.push_back(*block.grads);
    }
    return pass;
}

/// An output gradient for `layer` at `input`: uniform in [-0.5, 0.5) with
/// every 7th entry zeroed, or, when `mostly_zero`, with about 80% of the
/// entries zeroed (what ReLU and Dropout hand a conv layer). The naive
/// loops short-circuit g == 0, the kernels do not, and the results must
/// still agree.
Tensor random_grad(Layer& layer, const Tensor& input, stats::Rng& rng,
                   bool mostly_zero) {
    const Tensor probe = layer.forward(input, true);
    Tensor grad_out(probe.shape());
    for (std::size_t i = 0; i < grad_out.size(); ++i)
        grad_out[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (std::size_t i = 0; i < grad_out.size(); i += 7) grad_out[i] = 0.0F;
    if (mostly_zero) {
        for (std::size_t i = 0; i < grad_out.size(); ++i) {
            if (rng.uniform(0.0, 1.0) < 0.8) grad_out[i] = 0.0F;
        }
    }
    return grad_out;
}

/// `naive_layer` takes `layer`'s parameters, then both run the same pass.
void expect_layer_equivalence(Layer& layer, Layer& naive_layer, const Tensor& input,
                              const std::string& what, stats::Rng& rng,
                              bool mostly_zero = false, bool seeded = false) {
    reference::copy_parameters(layer, naive_layer);
    const Tensor grad_out = random_grad(naive_layer, input, rng, mostly_zero);
    const LayerPass naive = run_layer(naive_layer, input, grad_out, seeded);
    const LayerPass fast = run_layer(layer, input, grad_out, seeded);
    expect_bit_identical(fast.output, naive.output, what + " forward");
    expect_bit_identical(fast.grad_input, naive.grad_input, what + " grad_input");
    ASSERT_EQ(fast.param_grads.size(), naive.param_grads.size());
    for (std::size_t p = 0; p < fast.param_grads.size(); ++p) {
        expect_bit_identical(fast.param_grads[p], naive.param_grads[p],
                             what + " param_grad " + std::to_string(p));
    }
}

TEST(KernelEquivalenceTest, Conv2dMatchesNaiveOnRandomShapes) {
    stats::Rng rng(41);
    struct Case {
        std::size_t batch, in_c, out_c, k, h, w;
        bool mostly_zero = false;
    };
    // From out_c = 16 up the forward tiles up to 8 output pixels (flat,
    // across output rows) x 16 output channels; below 16 it puts 16 grid
    // positions in the lanes, up to 8 output channels per block, and the
    // last block's shifted loads reach past the image into the staged
    // planes' zeros. The weight gradient tiles 8 or 16 output-channel lanes
    // x one input channel's 9 taps (3x3) or up to 8 taps (other kernels);
    // the input gradient puts 16 images in the lanes, up to 8 input
    // channels per tile. The cases below reach every tail of all three:
    // partial lane groups of images (batches 1-15, 17, 33), 16-lane channel
    // blocks with 1, 8 and 16 real lanes, 8-lane blocks below 16 channels,
    // narrow blocks of 8 channels and of fewer, and grids of exactly 16 and
    // 17 positions ((oh - 1) * w + ow).
    const std::vector<Case> cases = {
        {16, 1, 8, 3, 12, 12},         // MNIST layer
        {4, 3, 8, 3, 14, 14},          // CIFAR layer, 27 taps
        {2, 8, 16, 3, 6, 6},           // deep CIFAR layer, h*w = 36
        {3, 2, 5, 3, 9, 13},           // non-square input
        {1, 1, 3, 5, 7, 11},           // big kernel, odd dims
        {2, 4, 4, 1, 5, 6},            // 1x1 kernel
        {2, 3, 1, 3, 7, 9},            // one output channel
        {3, 2, 9, 3, 8, 8},            // 9 output channels: 8 + 1
        {2, 5, 17, 3, 6, 7},           // 17 output channels: 8 + 8 + 1
        {3, 4, 6, 2, 5, 7},            // k = 2, h*w = 35
        {2, 11, 4, 3, 6, 5},           // 11 input channels: 8 + 3, 99 taps
        {1, 6, 10, 3, 9, 9},           // batch 1, h*w = 81
        {1, 2, 3, 2, 4, 2},            // output one pixel wide
        {4, 8, 16, 3, 6, 6, true},     // deep CIFAR layer, mostly-zero gradient
        {5, 3, 8, 3, 14, 14, true},    // CIFAR layer, mostly-zero gradient
        {128, 3, 8, 3, 14, 14},        // fl_cifar eval batch, conv1
        {128, 8, 16, 3, 6, 6},         // fl_cifar eval batch, conv2
        {2, 1, 8, 3, 28, 28},          // output row 26 wide: three tiles + 2
        {3, 4, 24, 3, 7, 8},           // 24 output channels: 16 + 8 lanes
        {1, 3, 1, 3, 5, 5},            // one output channel at batch 1
        {15, 8, 16, 3, 6, 6},          // deep CIFAR layer, one lane group short
        {17, 8, 16, 3, 6, 6},          // deep CIFAR layer, 16 + 1 images
        {33, 8, 16, 3, 6, 6},          // deep CIFAR layer, 16 + 16 + 1 images
        {17, 5, 16, 3, 7, 6},          // 5 input channels, odd width, 16 + 1 images
        {15, 3, 32, 3, 9, 8},          // 32 output channels: two full 16-lane blocks
        {16, 8, 17, 3, 6, 6},          // 17 output channels: 16 + 1 lanes
        {17, 8, 16, 3, 6, 6, true},    // deep CIFAR layer, 16 + 1 images, mostly-zero gradient
        {3, 2, 15, 3, 8, 8},           // 15 output channels: narrow blocks of 8 + 7
        {2, 3, 5, 3, 5, 6},            // grid of exactly 16 positions: one block
        {3, 2, 7, 3, 3, 19},           // grid of 17 positions, a 7-channel block alone
        {15, 3, 8, 3, 14, 14},         // CIFAR layer, one lane group short
        {17, 3, 8, 3, 14, 14},         // CIFAR layer, 16 + 1 images
    };
    for (const Case& c : cases) {
        Conv2d layer(c.in_c, c.out_c, c.k);
        reference::NaiveConv2d naive(c.in_c, c.out_c, c.k);
        layer.initialize(rng);
        // initialize() zeroes the bias; the forward kernel must seed each
        // output from a real one.
        for (float& b : *layer.parameters()[1].values)
            b = static_cast<float>(rng.uniform(-0.5, 0.5));
        const Tensor input = random_tensor({c.batch, c.in_c, c.h, c.w}, rng);
        const std::string what = "conv2d B" + std::to_string(c.batch) + " "
                                 + std::to_string(c.in_c) + "->"
                                 + std::to_string(c.out_c) + " k"
                                 + std::to_string(c.k) + " " + std::to_string(c.h)
                                 + "x" + std::to_string(c.w);
        expect_layer_equivalence(layer, naive, input, what, rng, c.mostly_zero);
        // Gradients accumulate onto what is already there, in order.
        expect_layer_equivalence(layer, naive, input, what + " seeded", rng, c.mostly_zero,
                                 /*seeded=*/true);
    }
}

TEST(KernelEquivalenceTest, Conv2dZeroGradientKeepsPositiveZeros) {
    // The kernels add g * w terms the naive loops skip (g == 0) and padding
    // zeros. With every weight and input negative, each such term is -0, so
    // only sums that start at +0 still end on +0 as the naive loops do.
    stats::Rng rng(47);
    Conv2d layer(8, 16, 3);
    for (const ParamBlock& block : layer.parameters()) {
        for (float& v : *block.values) v = -static_cast<float>(rng.uniform(0.1, 1.0));
    }
    reference::NaiveConv2d naive_layer(8, 16, 3);
    reference::copy_parameters(layer, naive_layer);
    Tensor input = random_tensor({2, 8, 6, 6}, rng);
    for (std::size_t i = 0; i < input.size(); ++i) input[i] = -std::fabs(input[i]) - 0.1F;
    const Tensor grad_out({2, 16, 4, 4});
    const LayerPass naive = run_layer(naive_layer, input, grad_out);
    const LayerPass fast = run_layer(layer, input, grad_out);
    expect_bit_identical(fast.grad_input, naive.grad_input, "zero-gradient grad_input");
    for (std::size_t p = 0; p < fast.param_grads.size(); ++p) {
        expect_bit_identical(fast.param_grads[p], naive.param_grads[p],
                             "zero-gradient param_grad " + std::to_string(p));
    }
    EXPECT_FALSE(std::signbit(fast.grad_input[0]));
}

TEST(KernelEquivalenceTest, Conv2dForwardKeepsPositiveZeros) {
    // Bias -0, inputs +0 and negative weights make every product -0. The
    // naive loops add each input channel's partial, which starts at +0, to
    // the bias: -0 + (+0) = +0. A partial seeded with its first product
    // would stay -0 and leave -0 in the output.
    Conv2d layer(3, 9, 3);
    const std::vector<ParamBlock> blocks = layer.parameters();
    std::fill(blocks[0].values->begin(), blocks[0].values->end(), -0.5F);
    std::fill(blocks[1].values->begin(), blocks[1].values->end(), -0.0F);
    reference::NaiveConv2d naive_layer(3, 9, 3);
    reference::copy_parameters(layer, naive_layer);
    const Tensor input({2, 3, 6, 11});
    const Tensor naive = naive_layer.forward(input, /*training=*/false);
    const Tensor fast = layer.forward(input, /*training=*/false);
    expect_bit_identical(fast, naive, "signed-zero forward");
    for (std::size_t i = 0; i < fast.size(); ++i) {
        ASSERT_FALSE(std::signbit(fast[i])) << "element " << i;
    }
}

TEST(KernelEquivalenceTest, BackwardParamsMatchesBackwardParameterGradients) {
    // backward_params must leave every parameter gradient byte-identical to
    // a full backward: Conv2d's override, and the default on a layer without
    // one (Dense and the reference layers).
    stats::Rng rng(46);
    const auto check = [&](Layer& layer, const Tensor& input, const std::string& what) {
        const Tensor grad_out = random_grad(layer, input, rng, /*mostly_zero=*/true);
        const LayerPass full = run_layer(layer, input, grad_out);
        for (const ParamBlock& block : layer.parameters()) {
            std::fill(block.grads->begin(), block.grads->end(), 0.0F);
        }
        (void)layer.forward(input, /*training=*/true);
        layer.backward_params(grad_out);
        const std::vector<ParamBlock> blocks = layer.parameters();
        ASSERT_EQ(blocks.size(), full.param_grads.size()) << what;
        for (std::size_t p = 0; p < blocks.size(); ++p) {
            expect_bit_identical(*blocks[p].grads, full.param_grads[p],
                                 what + " param_grad " + std::to_string(p));
        }
    };
    const auto check_stack = [&](Layer& first, Layer& odd, Layer& dense,
                                 const std::string& tag) {
        first.initialize(rng);
        check(first, random_tensor({16, 3, 14, 14}, rng), "conv2d" + tag);
        odd.initialize(rng);
        check(odd, random_tensor({3, 5, 7, 6}, rng), "conv2d odd" + tag);
        dense.initialize(rng);
        check(dense, random_tensor({5, 33}, rng), "dense" + tag);
    };
    Conv2d first(3, 8, 3);
    Conv2d odd(5, 9, 2);
    Dense dense(33, 17);
    check_stack(first, odd, dense, " fast");
    reference::NaiveConv2d naive_first(3, 8, 3);
    reference::NaiveConv2d naive_odd(5, 9, 2);
    reference::NaiveDense naive_dense(33, 17);
    check_stack(naive_first, naive_odd, naive_dense, " naive");
}

TEST(KernelEquivalenceTest, ConvKernelsRejectBadGeometry) {
    // All three convolution kernels index the input by the kernel's extent.
    // An input smaller than the kernel would underflow the output size, and
    // a zero-size kernel has no taps; each must throw before writing.
    const auto shape = [](std::size_t h, std::size_t w, std::size_t kh, std::size_t kw) {
        ConvShape s;
        s.in_c = 2;
        s.h = h;
        s.w = w;
        s.kh = kh;
        s.kw = kw;
        return s;
    };
    const std::size_t out_c = 4;
    std::vector<float> x(2 * 9 * 9, 0.5F);
    std::vector<float> gy(out_c * 9 * 9, 0.25F); // covers every shape's output
    std::vector<float> weight(out_c * 2 * 9, 0.1F);
    std::vector<float> bias(out_c, 0.1F);
    std::vector<float> y(gy.size(), 0.0F);
    std::vector<float> wgrad(weight.size(), 0.0F);
    std::vector<float> bgrad(out_c, 0.0F);
    std::vector<float> gx(x.size(), 0.0F);
    std::vector<float> scratch;
    for (const ConvShape& s : {shape(2, 9, 3, 3), shape(9, 2, 3, 3), shape(2, 2, 3, 3),
                               shape(9, 9, 0, 3), shape(9, 9, 3, 0), shape(9, 9, 0, 0)}) {
        EXPECT_THROW(conv2d_forward(x.data(), weight.data(), bias.data(), out_c, s, 1,
                                    scratch, y.data()),
                     std::invalid_argument);
        EXPECT_THROW(conv2d_input_grad(gy.data(), weight.data(), out_c, s, 1, scratch,
                                       gx.data()),
                     std::invalid_argument);
        EXPECT_THROW(conv2d_weight_grad(x.data(), gy.data(), out_c, s, 1, scratch,
                                        wgrad.data(), bgrad.data()),
                     std::invalid_argument);
    }
    // Nothing was written before the rejection.
    const auto all_zero = [](const std::vector<float>& v) {
        return std::all_of(v.begin(), v.end(), [](float e) { return e == 0.0F; });
    };
    EXPECT_TRUE(all_zero(y));
    EXPECT_TRUE(all_zero(gx));
    EXPECT_TRUE(all_zero(wgrad));
    EXPECT_TRUE(all_zero(bgrad));
    // The accepted geometry runs, down to an input exactly the kernel's size.
    for (const ConvShape& s : {shape(9, 9, 3, 3), shape(3, 3, 3, 3)}) {
        EXPECT_NO_THROW(conv2d_forward(x.data(), weight.data(), bias.data(), out_c, s, 1,
                                       scratch, y.data()));
        EXPECT_NO_THROW(conv2d_input_grad(gy.data(), weight.data(), out_c, s, 1, scratch,
                                          gx.data()));
        EXPECT_NO_THROW(conv2d_weight_grad(x.data(), gy.data(), out_c, s, 1, scratch,
                                           wgrad.data(), bgrad.data()));
    }
}

TEST(KernelEquivalenceTest, ConvKernelsWriteNothingPastTheirOutputs) {
    // The kernels compute lanes they never store: output channels past
    // out_c in a wide-forward or weight-gradient block, grid positions past
    // an output row or past the last output in a narrow-forward block, and
    // images past the batch in an input-gradient lane group. Each output
    // sits in a buffer with a guard band after it, wide enough to take a
    // whole extra block, at 17 output channels (a 16-lane block with one
    // real lane), 9 (an 8-lane weight-gradient block with one; narrow
    // blocks of 8 + 1), 8 (one full narrow block), 3 (a narrow tail block
    // alone) and 17 images (a lane group with one real image). The guards
    // must come back untouched.
    stats::Rng rng(48);
    const float canary = -7.0F;
    ConvShape s;
    s.in_c = 3;
    s.h = 6;
    s.w = 5;
    s.kh = 3;
    s.kw = 3;
    const std::size_t batch = 17;
    const auto random_values = [&](std::size_t n) {
        std::vector<float> v(n);
        for (float& e : v) e = static_cast<float>(rng.uniform(-1.0, 1.0));
        return v;
    };
    const auto guarded = [&](std::size_t n, std::size_t guard) {
        std::vector<float> v(n + guard, canary);
        std::fill(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n), 0.0F);
        return v;
    };
    const auto expect_guard = [&](const std::vector<float>& v, std::size_t n,
                                  const std::string& what) {
        for (std::size_t i = n; i < v.size(); ++i) {
            ASSERT_EQ(v[i], canary) << what << " wrote " << i - n << " past its end";
        }
    };
    for (const std::size_t out_c : {3, 8, 9, 17}) {
        const std::string tag = " out_c " + std::to_string(out_c);
        const std::size_t image = s.in_c * s.h * s.w;
        const std::size_t y_image = out_c * s.out_pixels();
        const std::vector<float> x = random_values(batch * image);
        const std::vector<float> weight = random_values(out_c * s.taps());
        const std::vector<float> bias = random_values(out_c);
        const std::vector<float> gy = random_values(batch * y_image);
        std::vector<float> scratch;

        std::vector<float> y = guarded(batch * y_image, 16 * s.out_pixels());
        conv2d_forward(x.data(), weight.data(), bias.data(), out_c, s, batch, scratch,
                       y.data());
        expect_guard(y, batch * y_image, "conv2d_forward" + tag);

        std::vector<float> wgrad = guarded(out_c * s.taps(), 16 * s.taps());
        std::vector<float> bgrad = guarded(out_c, 16);
        conv2d_weight_grad(x.data(), gy.data(), out_c, s, batch, scratch, wgrad.data(),
                           bgrad.data());
        expect_guard(wgrad, out_c * s.taps(), "conv2d_weight_grad weights" + tag);
        expect_guard(bgrad, out_c, "conv2d_weight_grad bias" + tag);

        std::vector<float> gx = guarded(batch * image, 16 * image);
        conv2d_input_grad(gy.data(), weight.data(), out_c, s, batch, scratch, gx.data());
        expect_guard(gx, batch * image, "conv2d_input_grad" + tag);
    }
}

TEST(KernelEquivalenceTest, DenseMatchesNaiveOnRandomShapes) {
    stats::Rng rng(43);
    struct Case {
        std::size_t batch, in, out;
    };
    for (const Case& c : std::vector<Case>{
             {16, 200, 64}, {16, 800, 64}, {1, 7, 3}, {5, 33, 17}, {128, 64, 10}}) {
        Dense layer(c.in, c.out);
        reference::NaiveDense naive(c.in, c.out);
        layer.initialize(rng);
        const Tensor input = random_tensor({c.batch, c.in}, rng);
        expect_layer_equivalence(layer, naive, input,
                                 "dense " + std::to_string(c.in) + "->"
                                     + std::to_string(c.out),
                                 rng);
    }
    // The zoo's hidden layers (make_cnn_deep 256->96, make_cnn 200->64) at
    // row counts that reach both forward orientations and every GEMM tail
    // of each: x W^T for 1, 3 and 7 rows and for more rows than one 16-row
    // panel (17, 33, 128), W x^T for 9 (the fewest it takes), 15 and 16.
    // One layer per shape runs them all in turn, so each call also reuses
    // the scratch the last one left.
    for (const auto& [in, out] : std::vector<std::pair<std::size_t, std::size_t>>{
             {256, 96}, {200, 64}}) {
        Dense layer(in, out);
        reference::NaiveDense naive(in, out);
        layer.initialize(rng);
        for (const std::size_t batch : {1, 3, 7, 9, 15, 16, 17, 33, 128}) {
            const Tensor input = random_tensor({batch, in}, rng);
            expect_layer_equivalence(layer, naive, input,
                                     "dense " + std::to_string(in) + "->"
                                         + std::to_string(out) + " x"
                                         + std::to_string(batch),
                                     rng);
        }
    }
}

TEST(KernelEquivalenceTest, LstmMatchesNaiveOnRandomShapes) {
    stats::Rng rng(44);
    struct Case {
        std::size_t batch, seq, embed, hidden;
    };
    for (const Case& c :
         std::vector<Case>{{16, 16, 16, 32}, {3, 5, 7, 11}, {1, 2, 4, 4}}) {
        Lstm layer(c.embed, c.hidden);
        reference::NaiveLstm naive(c.embed, c.hidden);
        layer.initialize(rng);
        const Tensor input = random_tensor({c.batch, c.seq, c.embed}, rng);
        expect_layer_equivalence(layer, naive, input,
                                 "lstm E" + std::to_string(c.embed) + " H"
                                     + std::to_string(c.hidden),
                                 rng);
    }
}

TEST(KernelEquivalenceTest, WholeModelTrainingStepBitIdentical) {
    // End-to-end: one SGD epoch of a production model and of its reference
    // twin from identical starting parameters and generator state must land
    // on byte-identical parameters. The paper's CNN on 1x12x12 and the deep
    // CNN on 3x14x14 (the fl_cifar model) cover ReLU/Dropout-sparse
    // gradients reaching both conv layers and the first layer's
    // parameter-only backward.
    struct Case {
        const char* name;
        Model (*make)(const ImageSpec&, std::uint64_t);
        Model (*make_naive)(const ImageSpec&, std::uint64_t);
        std::size_t channels, side;
    };
    for (const Case& c : {Case{"cnn", &make_cnn, &reference::naive_cnn, 1, 12},
                          Case{"cnn_deep", &make_cnn_deep, &reference::naive_cnn_deep, 3,
                               14}}) {
        stats::Rng data_rng(45);
        ml::ImageDatasetSpec spec;
        spec.samples = 64;
        spec.channels = c.channels;
        spec.height = c.side;
        spec.width = c.side;
        const Dataset data = make_synthetic_images(spec, data_rng);
        std::vector<std::size_t> indices(data.size());
        for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

        const ImageSpec image{c.channels, c.side, c.side, data.num_classes};
        Model naive_model = c.make_naive(image, 99);
        Model fast_model = c.make(image, 99);
        expect_bit_identical(fast_model.get_parameters(), naive_model.get_parameters(),
                             std::string(c.name) + " starting parameters");
        (void)naive_model.train_epoch(data, indices, 16, 0.05);
        (void)fast_model.train_epoch(data, indices, 16, 0.05);
        expect_bit_identical(fast_model.get_parameters(), naive_model.get_parameters(),
                             std::string(c.name) + " parameters after one epoch");
    }
}

} // namespace
} // namespace fmore::ml
